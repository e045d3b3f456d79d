"""Exact work counts of a few cheap commands, pinned.

`tools/workcount.py` counts `CycloNum` additions and multiplications, the
calls of the trace-form kernel `exactnum.trace_form` and of
`exactnum.reduce_mod_p`, and the calls to every entry point perfbench's
tracer wraps, one fresh process per command.  The
counts do not depend on the machine's speed, so a change in the work a
command does shows here as an exact number; a change that moves them
updates PINS and says why.  `group 2I order` and `group 2O order` only
build their group, so they pin the build's own work; with a warm `--cache`,
`group 2I order` pins the work of a load.  Each command also runs under a
second hash seed, since a count that depended on set or dict order would be
no measure at all.
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
        "exactnum.add": 15,
        "exactnum.mul": 16,
        "groups.build_binary_polyhedral": 1,
    },
    "group 2O order": {
        "exit": 0,
        "cli.resolve_group": 1,
        "exactnum.add": 13,
        "exactnum.mul": 16,
        "groups.build_binary_polyhedral": 1,
    },
    "group 2I chartab": {
        "exit": 0,
        "characters.character_table": 1,
        "characters.inner_product": 45,
        "cli.resolve_group": 1,
        "exactnum.add": 213,
        "exactnum.mul": 213,
        "exactnum.reduce_mod_p": 99,
        "exactnum.trace": 405,
        "groups.build_binary_polyhedral": 1,
    },
    "induce 2I": {
        "exit": 0,
        "characters.character_table": 22,
        "characters.cyclic_character": 22,
        "characters.inner_product": 243,
        "cli.resolve_group": 1,
        "exactnum.add": 369,
        "exactnum.mul": 213,
        "exactnum.reduce_mod_p": 99,
        "exactnum.trace": 2187,
        "groups.build_binary_polyhedral": 1,
        "induction.induce_character": 22,
        "induction.induce_twist": 42,
        "induction.induction_table": 7,
        "induction.render_all_columns": 1,
    },
    "mckay 2I": {
        "exit": 0,
        "characters.character_table": 1,
        "characters.inner_product": 45,
        "cli.resolve_group": 1,
        "exactnum.add": 213,
        "exactnum.mul": 213,
        "exactnum.reduce_mod_p": 99,
        "exactnum.trace": 405,
        "groups.build_binary_polyhedral": 1,
        "mckay.mckay_graph": 1,
    },
    # a cyclic group reads its McKay adjacency mod 241 like 2T, 2O and 2I,
    # with no spin character, and its rows omega^r in power order are
    # orthonormal by the geometric sum, with no inner product
    "mckay Z6": {
        "exit": 0,
        "characters.character_table": 1,
        "characters.cyclic_character": 6,
        "cli.resolve_group": 1,
        "exactnum.add": 77,
        "exactnum.mul": 101,
        "exactnum.reduce_mod_p": 42,
        "groups.cyclic_group": 1,
        "mckay.mckay_graph": 1,
    },
    "spectrum 2I --irrep 2s --nmax 20": {
        "exit": 0,
        "characters.character_table": 5,
        "characters.inner_product": 45,
        "cli.resolve_group": 1,
        "exactnum.add": 213,
        "exactnum.mul": 213,
        "exactnum.reduce_mod_p": 99,
        "exactnum.trace": 405,
        "groups.build_binary_polyhedral": 1,
        "spectra.degeneracy_series": 1,
        "spectra.levels": 21,
    },
    "verify isospectral --nmax 60": {
        "exit": 0,
        "characters.character_table": 255,
        "characters.cyclic_character": 120,
        "characters.inner_product": 593,
        "cli.resolve_group": 3,
        "exactnum.add": 795,
        "exactnum.mul": 431,
        "exactnum.reduce_mod_p": 670,
        "exactnum.trace": 4833,
        "groups.build_binary_polyhedral": 3,
        "induction.induce_character": 60,
        "induction.induce_twist": 60,
        "spectra.degeneracy_series": 120,
        "spectra.levels": 7320,
        "theorems.verify_isospectrality": 3,
    },
    # a cyclic twist checks omega^r by one walk over H, not |H|^2 block
    # products: a restored product loop moves exactnum.mul
    "verify induced-matrices --nmax 60": {
        "exit": 0,
        "characters.cyclic_character": 120,
        "cli.resolve_group": 3,
        "exactnum.add": 2193,
        "exactnum.mul": 48,
        "groups.build_binary_polyhedral": 3,
        "induction.induce_character": 60,
        "induction.induced_matrices": 60,
        "induction.verify_monomial_rep": 60,
    },
    # the oracle item compares 324 GF(p) counts with one nine-level series
    # per twist: a restored per-level direct route shows as spectra.degeneracy
    "verify oracle --nmax 60": {
        "exit": 0,
        "characters.character_table": 609,
        "characters.cyclic_character": 12,
        "characters.inner_product": 109,
        "cli.resolve_group": 6,
        "exactnum.add": 586,
        "exactnum.mul": 638,
        "exactnum.reduce_mod_p": 350,
        "exactnum.trace": 889,
        "groups.build_binary_polyhedral": 3,
        "groups.cyclic_group": 3,
        "spectra.degeneracy_series": 36,
        "spectra.levels": 324,
        "spectra.oracle_projector_degeneracy": 324,
    },
    # the whole pass: reciprocity reads eigenvalue counts (no restrict), the
    # oracle reads the tables' residues (no reduce_mod_p per twist), and
    # the cyclic tables take no row products
    "verify all --nmax 60": {
        "exit": 1,
        "characters.character_table": 1026,
        "characters.cyclic_character": 196,
        "characters.inner_product": 593,
        "cli.resolve_group": 6,
        "exactnum.add": 3220,
        "exactnum.mul": 649,
        "exactnum.reduce_mod_p": 778,
        "exactnum.trace": 4833,
        "groups.build_binary_polyhedral": 3,
        "groups.cyclic_group": 3,
        "groups.verify_generator_conjugations": 3,
        "induction.column_sum_is_regular": 11,
        "induction.induce_character": 64,
        "induction.induce_twist": 198,
        "induction.induced_matrices": 60,
        "induction.induction_table": 12,
        "induction.verify_monomial_rep": 60,
        "mckay.class_correspondence": 3,
        "mckay.compactified_diagram": 3,
        "mckay.mckay_graph": 3,
        "mckay.relink_matches_mckay": 3,
        "spectra.degeneracy_series": 243,
        "spectra.lens_torsion": 8,
        "spectra.levels": 12951,
        "spectra.oracle_projector_degeneracy": 324,
        "theorems.artin_sufficiency": 3,
        "theorems.compare_reference_matrices": 6,
        "theorems.solve_irrep_quantities": 6,
        "theorems.sunada_check": 2,
        "theorems.verify_central_relations": 3,
        "theorems.verify_dimension_relation": 3,
        "theorems.verify_isospectrality": 3,
    },
}


@pytest.fixture(scope="module")
def workcount():
    spec = importlib.util.spec_from_file_location("workcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a load builds the group from the stored R, S and T: no quaternion
# product of `generator_triple`, only the least-angle check's cos(pi/n)
WARM_LOAD = {
    "exit": 0,
    "cli.resolve_group": 1,
    "exactnum.add": 1,
    "groups.load_group": 1,
}


@pytest.mark.parametrize("command", sorted(PINS))
def test_work_counts_are_pinned_under_two_hash_seeds(workcount, command):
    assert workcount.count(command, hash_seed=0) == PINS[command]
    assert workcount.count(command, hash_seed=1) == PINS[command]


def test_warm_cache_load_is_pinned_under_two_hash_seeds(workcount, tmp_path):
    command = f"--cache {tmp_path} group 2I order"
    filling = workcount.count(command)
    assert filling["groups.build_binary_polyhedral"] == filling["groups.save_group"] == 1
    build = PINS["group 2I order"]
    for seed in (0, 1):
        assert workcount.count(command, hash_seed=seed) == WARM_LOAD
    assert all(WARM_LOAD.get(k, 0) <= build[k] for k in ("exactnum.add", "exactnum.mul"))
