"""Exact work counts of a few cheap commands, pinned.

`tools/workcount.py` counts `CycloNum` additions and multiplications, the
calls of the trace-form kernel `exactnum.trace_form` and the calls to every
entry point perfbench's tracer wraps, one fresh process per command.  The
counts do not depend on the machine's speed, so a change in the work a
command does shows here as an exact number; a change that moves them
updates PINS and says why.  `group 2I order` and `group 2O order` only
build their group, so they pin the build's own work.  Each command also
runs under a second hash seed, since a count that depended on set or dict
order would be no measure at all.
"""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "workcount.py")

PINS = {
    "group 2I order": {
        "exit": 0,
        "cli.resolve_group": 1,
        "exactnum.add": 16,
        "exactnum.mul": 17,
        "groups.build_binary_polyhedral": 1,
    },
    "group 2O order": {
        "exit": 0,
        "cli.resolve_group": 1,
        "exactnum.add": 14,
        "exactnum.mul": 17,
        "groups.build_binary_polyhedral": 1,
    },
    "group 2I chartab": {
        "exit": 0,
        "characters.character_table": 1,
        "characters.inner_product": 126,
        "characters.spin_character": 1,
        "cli.resolve_group": 1,
        "exactnum.add": 620,
        "exactnum.mul": 1358,
        "exactnum.trace": 1134,
        "groups.build_binary_polyhedral": 1,
    },
    "induce 2I": {
        "exit": 0,
        "characters.character_table": 22,
        "characters.cyclic_character": 44,
        "characters.inner_product": 522,
        "characters.restrict": 198,
        "characters.spin_character": 1,
        "cli.resolve_group": 1,
        "exactnum.add": 776,
        "exactnum.mul": 1358,
        "exactnum.trace": 4320,
        "groups.build_binary_polyhedral": 1,
        "induction.induce_character": 22,
        "induction.induce_twist": 42,
        "induction.induction_table": 7,
        "induction.render_all_columns": 1,
    },
    "mckay 2I": {
        "exit": 0,
        "characters.character_table": 2,
        "characters.inner_product": 126,
        "characters.spin_character": 1,
        "cli.resolve_group": 1,
        "exactnum.add": 620,
        "exactnum.mul": 1358,
        "exactnum.trace": 1134,
        "groups.build_binary_polyhedral": 1,
        "mckay.mckay_graph": 1,
    },
    "spectrum 2I --irrep 2s --nmax 20": {
        "exit": 0,
        "characters.character_table": 4,
        "characters.inner_product": 126,
        "characters.spin_character": 1,
        "cli.resolve_group": 1,
        "exactnum.add": 622,
        "exactnum.mul": 1371,
        "exactnum.trace": 1134,
        "groups.build_binary_polyhedral": 1,
        "spectra.degeneracy_series": 1,
        "spectra.levels": 21,
    },
    "verify isospectral --nmax 60": {
        "exit": 0,
        "characters.character_table": 210,
        "characters.cyclic_character": 240,
        "characters.inner_product": 1485,
        "characters.restrict": 484,
        "characters.spin_character": 15,
        "cli.resolve_group": 3,
        "exactnum.add": 4402,
        "exactnum.mul": 6406,
        "exactnum.trace": 10905,
        "groups.build_binary_polyhedral": 3,
        "induction.induce_character": 60,
        "induction.induce_twist": 60,
        "spectra.degeneracy_series": 120,
        "spectra.levels": 7320,
        "theorems.verify_isospectrality": 3,
    },
}


@pytest.fixture(scope="module")
def workcount():
    spec = importlib.util.spec_from_file_location("workcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(PINS))
def test_work_counts_are_pinned_under_two_hash_seeds(workcount, command):
    assert workcount.count(command, hash_seed=0) == PINS[command]
    assert workcount.count(command, hash_seed=1) == PINS[command]
