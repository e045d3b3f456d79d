"""Mutation gate: each named patch of src/ must turn its named tests red.

    python3 tools/mutants.py [--list] [NAME ...]

A mutant replaces one exact snippet of one source file by a wrong one, the
kind of slip a later change could make.  For each mutant selected (all of
them with no NAME), the script copies this checkout to a temporary
directory, applies the patch there and runs only the mutant's tests with
pytest on that copy.  The mutant is killed when pytest reports a failing
test (exit 1), and survives when its tests pass (exit 0).  Before any
mutant, the union of the selected mutants' tests runs once on an unpatched
copy and must pass, so that a kill means the patch, not a broken checkout.

Anything else is an error: a snippet that does not occur exactly once in
its file (the mutant no longer matches the code and must be updated), a
pytest exit other than 0 or 1 (no test collected, a usage or collection
error), or a run longer than TIMEOUT_S.

Exit status: 0 when every selected mutant is killed, 1 when one survives,
2 on an error.  This is not part of tier-1: each mutant costs a pytest run
of its tests, about a minute for all of them.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     os.pardir))
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the checkout
    old: str            # must occur exactly once in the file
    new: str
    tests: tuple        # pytest node ids relative to the checkout


MUTANTS = (
    # the oracle's packed slots (spectra._slot_bits) one bit narrower: only
    # the worst-case slot reaches the bound, the real class sums stay below it
    Mutant("slot-one-bit-narrower", "src/spaceforms/spectra.py",
           "(PRIME - 1) ** 4).bit_length()",
           "(PRIME - 1) ** 4).bit_length() - 1",
           ("tests/test_spectra.py::test_a_packed_slot_holds_its_bound",)),
    # P P compared with P instead of (|G|/dim chi) P
    Mutant("idempotent-check-without-scale", "src/spaceforms/spectra.py",
           "total = (PRIME - scale) * P",
           "total = (PRIME - 1) * P",
           ("tests/test_spectra.py::test_packed_oracle_equals_the_plain_reference",)),
    # reciprocity reads the eigenvalue count of omega^(r+1)
    Mutant("eigenvalue-count-read-at-r-plus-1", "src/spaceforms/induction.py",
           "{ir.name: alpha[r] for ir, alpha in zip(table, counts)}",
           "{ir.name: alpha[(r + 1) % len(alpha)] for ir, alpha in zip(table, counts)}",
           ("tests/test_induction.py::test_reference_tables_reproduced",)),
    # a cyclic group whose classes do not hold the powers of g in order
    # gets a table whose rows are not characters
    Mutant("cyclic-table-out-of-power-order-accepted", "src/spaceforms/groups.py",
           "        if cur != j or G.class_of[cur] != j:\n",
           "        if False:\n",
           ("tests/test_characters.py::"
            "test_a_cyclic_group_whose_classes_miss_the_powers_of_g_is_refused",)),
    # every table of an abelian group skips the row products, not only one
    # whose rows are j -> zeta_q^(rj)
    Mutant("abelian-rows-accepted-unread", "src/spaceforms/characters.py",
           "if k == q and all(",
           "if k == q or all(",
           ("tests/test_characters.py::"
            "test_cyclic_rows_other_than_omega_r_take_the_row_check",)),
    # the table verdicts compare only the listed rows of each column
    Mutant("table-rows-past-the-list-unchecked", "src/spaceforms/theorems.py",
           "for r, dec in enumerate(got):",
           "for r, dec in enumerate(got[:len(rows)]):",
           ("tests/test_theorems.py::test_an_unlisted_table_row_fails_naming_r",)),
    # 2T's unlisted S column read against the T row r instead of -r mod q
    Mutant("unlisted-column-read-without-the-inverse", "src/spaceforms/theorems.py",
           "row, j = dec.as_dict(), sign * r % q",
           "row, j = dec.as_dict(), r % q",
           ("tests/test_golden.py::test_verify_verdicts",)),
    # the McKay adjacency with chi_1/2 off by one on every group
    Mutant("half-residue-off-by-one", "src/spaceforms/characters.py",
           "half = [2 * reduce_mod_p(G.elements[rep].w) for rep in G.class_reps]",
           "half = [2 * reduce_mod_p(G.elements[rep].w) + 1 for rep in G.class_reps]",
           ("tests/test_characters.py::"
            "test_mckay_adjacency_is_the_inner_product_definition",)),
    # the same offset on cyclic groups only
    Mutant("half-residue-off-by-one-on-cyclic-groups", "src/spaceforms/characters.py",
           "half = [2 * reduce_mod_p(G.elements[rep].w) for rep in G.class_reps]",
           "half = [2 * reduce_mod_p(G.elements[rep].w) + (G.num_classes == len(G))\n"
           "            for rep in G.class_reps]",
           ("tests/test_characters.py::"
            "test_mckay_adjacency_is_the_inner_product_definition",)),
    # the McKay adjacency reads chi_j(c) in place of chi_j(c^-1)
    Mutant("adjacency-without-inverse-class", "src/spaceforms/characters.py",
           "    weights = [size * h for size, h in zip(G.class_sizes, half)]\n"
           "    inverse_class = [G.class_of[G.inv[rep]] for rep in G.class_reps]\n",
           "    weights = [size * h for size, h in zip(G.class_sizes, half)]\n"
           "    inverse_class = list(range(G.num_classes))\n",
           ("tests/test_characters.py::"
            "test_mckay_adjacency_is_the_inner_product_definition",)),
    # irrep labels ordered with the spinor flag before the dimension, which
    # reorders the rows of every table
    Mutant("irrep-label-order-spinor-first", "src/spaceforms/characters.py",
           "        return ((self.dimension, self.spinor, self.primes)\n"
           "                < (other.dimension, other.spinor, other.primes))",
           "        return ((self.spinor, self.dimension, self.primes)\n"
           "                < (other.spinor, other.dimension, other.primes))",
           ("tests/test_golden.py::test_cli_digest[group 2T chartab]",
            "tests/test_records.py::"
            "test_irrep_labels_order_by_dimension_then_spinor_then_primes")),
    # a record that was frozen accepts assignment
    Mutant("frozen-record-accepts-assignment", "src/spaceforms/spectra.py",
           "class LensTorsion(Record, frozen=True):",
           "class LensTorsion(Record):",
           ("tests/test_records.py::"
            "test_frozen_records_refuse_assignment_and_mutable_ones_take_it",)),
    # the Moebius sign of the factor x - 1 flipped: a flip on a factor that
    # Phi_120 reads fails the module's own degree check at import, so this
    # one leaves Phi_120 (mu(120) = 0) and breaks Phi_n for squarefree n
    Mutant("moebius-sign-flipped-on-x-minus-1", "src/spaceforms/exactnum.py",
           "mu = _mobius(n // d) if n % d == 0 else 0",
           "mu = (_mobius(n // d) if n % d == 0 else 0) * (-1 if d == 1 else 1)",
           ("tests/test_exactnum.py::"
            "test_cyclotomic_polynomials_multiply_to_x_n_minus_1",)),
    # a twist's chi(-E) read as its dimension on spinor rows too, which
    # makes both period steps of a spinor series wrong
    Mutant("central-values-without-spinor-sign", "src/spaceforms/spectra.py",
           "sum(-v if spinor else v for v, spinor in signed)",
           "sum(v for v, spinor in signed)",
           ("tests/test_characters.py::test_central_values_are_the_values_of_every_row",)),
    # a lens index r stored as the row of omega^(r+1)
    Mutant("lens-index-stored-as-row-r-plus-1", "src/spaceforms/spectra.py",
           "return TwistSpec(G, ((twist % len(G), 1),))",
           "return TwistSpec(G, (((twist + 1) % len(G), 1),))",
           ("tests/test_spectra.py::test_a_lens_index_is_the_row_named_w_r",)),
)


class MutantError(Exception):
    """A mutant that cannot be judged."""


def _copy_checkout(dest: str) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis",
        ".perfbench_out", ".perfbench_work"))


def _apply(checkout: str, mutant: Mutant) -> None:
    path = os.path.join(checkout, mutant.path)
    with open(path) as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise MutantError(f"{mutant.name}: its snippet occurs {found} times in "
                          f"{mutant.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _pytest(checkout: str, tests) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                               "-p", "no:cacheprovider", *tests],
                              cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise MutantError(f"pytest ran longer than {TIMEOUT_S} s on {list(tests)}") from None
    if proc.returncode not in (0, 1):
        raise MutantError(f"pytest exited {proc.returncode} on {list(tests)}:\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode


def judge(mutant: Mutant) -> bool:
    """Whether the mutant's tests go red on a patched copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = os.path.join(tmp, "checkout")
        _copy_checkout(checkout)
        _apply(checkout, mutant)
        return _pytest(checkout, mutant.tests) == 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--list", action="store_true", help="print the mutants and exit")
    p.add_argument("names", nargs="*", metavar="NAME")
    args = p.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        p.error(f"unknown mutants {unknown}; known: {sorted(by_name)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}  {' '.join(m.tests)}")
        return 0
    try:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            checkout = os.path.join(tmp, "checkout")
            _copy_checkout(checkout)
            tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
            if _pytest(checkout, tests):
                raise MutantError(f"the unpatched checkout fails {tests}")
        survivors = []
        for m in chosen:
            killed = judge(m)
            print(f"{'killed  ' if killed else 'SURVIVED'}  {m.name}", flush=True)
            if not killed:
                survivors.append(m.name)
    except MutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
