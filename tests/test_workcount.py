"""Exact work counts of a few cheap commands, pinned.

`tools/workcount.py` counts `CycloNum` additions and multiplications and
the calls to every entry point perfbench's tracer wraps, one fresh process
per command.  The counts do not depend on the machine's speed, so a change
in the work a command does shows here as an exact number; a change that
moves them updates PINS and says why.  Each command also runs under a
second hash seed, since a count that depended on set or dict order would
be no measure at all.
"""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "workcount.py")

PINS = {
    "group 2I chartab": {
        "exit": 0,
        "characters.character_table": 1,
        "characters.cyclic_character": 135,
        "characters.inner_product": 223,
        "characters.restrict": 36,
        "characters.spin_character": 44,
        "cli.resolve_group": 1,
        "exactnum.add": 7188,
        "exactnum.mul": 10498,
        "groups.build_binary_polyhedral": 1,
    },
    "induce 2I": {
        "exit": 0,
        "characters.character_table": 22,
        "characters.cyclic_character": 179,
        "characters.inner_product": 619,
        "characters.restrict": 234,
        "characters.spin_character": 44,
        "cli.resolve_group": 1,
        "exactnum.add": 10530,
        "exactnum.mul": 16870,
        "groups.build_binary_polyhedral": 1,
        "induction.induce_character": 22,
        "induction.induce_twist": 42,
        "induction.induction_table": 7,
        "induction.render_all_columns": 1,
    },
    "mckay 2I": {
        "exit": 0,
        "characters.character_table": 2,
        "characters.cyclic_character": 135,
        "characters.inner_product": 304,
        "characters.restrict": 36,
        "characters.spin_character": 45,
        "cli.resolve_group": 1,
        "exactnum.add": 7917,
        "exactnum.mul": 12037,
        "groups.build_binary_polyhedral": 1,
        "mckay.mckay_graph": 1,
    },
    "verify isospectral --nmax 60": {
        "exit": 0,
        "characters.character_table": 210,
        "characters.cyclic_character": 564,
        "characters.inner_product": 1909,
        "characters.restrict": 573,
        "characters.spin_character": 118,
        "cli.resolve_group": 3,
        "exactnum.add": 26024,
        "exactnum.mul": 42896,
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
