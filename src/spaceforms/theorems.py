"""Verification harness for the spectral identities.

Everything here is checked at the level of degeneracy sequences, which
carry every additive spectral quantity: isospectrality of lens twists
against their induced twists, the dimension relation, the central-
subgroup relations, the per-irrep inversion matrices (solved exactly
over Q and compared against the transcribed classical matrices with a
discrepancy taxonomy), Artin sufficiency, and the Sunada-style pairing.

The linear solver, not the transcription, is ground truth: the solved
matrices satisfy the round-trip identity M * A = I exactly, and the
induction tables they come from are themselves triple-checked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._reference_tables import (REFERENCE_INDUCTIONS, REFERENCE_MATRIX_DEVIATIONS,
                                REFERENCE_SOLUTION_MATRICES)
from .characters import Record, character_table, regular_character, rref
from .groups import (GROUP_NAMES, SCHEMA, ContractViolation, FiniteGroup,
                     SubgroupHandle, verify_generator_conjugations)
from .induction import (_mat_mul, column_sum, column_sum_is_regular,
                        induce_character, induce_twist, induction_table,
                        verify_monomial_rep)
from .mckay import (class_correspondence, compactified_diagram, mckay_graph,
                    relink_matches_mckay)
from .spectra import (ORACLE_MAX_LEVEL, degeneracy_series, lens_torsion,
                      oracle_projector_degeneracy)

GENERATORS = ("R", "S", "T", "RST")


class CheckResult(Record):
    key: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"item": self.key, "status": "pass" if self.passed else "FAIL",
                "detail": self.detail}


# -- per-irrep quantities: the linear systems ----------------------------


def sector_irreps(G: FiniteGroup, sector: str):
    table = character_table(G)
    if sector not in ("spinor", "nonspinor"):
        raise ValueError("sector must be 'spinor' or 'nonspinor'")
    want = sector == "spinor"
    return [ir for ir in table if ir.label.spinor == want]


def decomposition_row(G: FiniteGroup, r: int, gen: str, sector: str):
    """Multiplicities of the sector's irreps in Ind(omega^r) from <gen>;
    the complementary sector must not occur (spinor separation)."""
    dec = induce_twist(G, gen, r).as_dict()
    irreps = sector_irreps(G, sector)
    names = {ir.name for ir in irreps}
    stray = set(dec) - names
    if stray:
        raise ContractViolation(
            f"induction {r}^({gen}) mixes spectral sectors: {sorted(stray)}")
    return [Fraction(dec.get(ir.name, 0)) for ir in irreps]


class SolutionMatrix(Record):
    """Exact inverse expressing per-irrep quantities through lens ones."""
    group_name: str
    sector: str
    row_labels: list          # irrep names
    rhs: list                 # (r, generator) pairs
    matrix: list              # rows of Fractions
    decomposition: list       # the solved system A (rows = rhs equations)

    def row(self, name: str):
        return self.matrix[self.row_labels.index(name)]

    def round_trip_mismatch(self) -> str:
        """The first entry of M A off the identity, by irrep names; "" if none."""
        prod = _mat_mul(self.matrix, self.decomposition)
        names = self.row_labels
        return next((f"(M A)[{names[i]}, {names[j]}] = {v}, not {int(i == j)}"
                     for i, row in enumerate(prod) for j, v in enumerate(row)
                     if v != int(i == j)), "")

    def round_trip_is_identity(self) -> bool:
        return not self.round_trip_mismatch()

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "solution_matrix",
            "group": self.group_name,
            "sector": self.sector,
            "rows": list(self.row_labels),
            "columns": [f"{r};{g}" for r, g in self.rhs],
            "matrix": [[str(v) for v in row] for row in self.matrix],
        }


def solve_irrep_quantities(G: FiniteGroup, sector: str,
                           chosen_rhs: list[tuple[int, str]]) -> SolutionMatrix:
    """Invert the decomposition equations S(r;gen) = sum m_A S(A) for
    the chosen lens quantities, exactly over Q.  The solution is not
    judged here: the `matrix_roundtrip` verdicts report M A = I."""
    irreps = sector_irreps(G, sector)
    if len(chosen_rhs) != len(irreps):
        raise ValueError(f"need exactly {len(irreps)} equations for "
                         f"{len(irreps)} unknowns")
    A = [decomposition_row(G, r, gen, sector) for r, gen in chosen_rhs]
    n = len(A)
    # M = A^-1 is the right half of the reduced echelon form of [A | I]
    rows, pivots = rref([row + [int(i == j) for j in range(n)]
                         for i, row in enumerate(A)], None)
    missing = next((c for c in range(n) if c not in pivots), None)
    if missing is not None:
        raise ValueError("singular system: no pivot in column "
                         f"{missing} (rank deficiency)")
    return SolutionMatrix(G.name, sector, [ir.name for ir in irreps],
                          list(chosen_rhs), [row[n:] for row in rows], A)


def reference_system(G: FiniteGroup, sector: str):
    name = GROUP_NAMES[G.presentation[2]][0]
    ref = REFERENCE_SOLUTION_MATRICES[(name, sector)]
    matrix = [[Fraction(v) for v in row] for row in ref["matrix"]]
    return ref["rows"], [tuple(x) for x in ref["rhs"]], matrix


class RowComparison(Record):
    name: str
    status: str               # exact | permuted | scaled | scaled_permuted | other
    partner: str | None = None
    scale: Fraction | None = None


class MatrixComparison(Record):
    solution: SolutionMatrix
    reference_rows: list
    reference_matrix: list
    rows: list

    def statuses(self) -> dict:
        return {r.name: r.status for r in self.rows}

    def summary(self) -> str:
        parts = []
        for r in self.rows:
            if r.status == "exact":
                continue
            extra = ""
            if r.partner and r.partner != r.name:
                extra += f" with row {r.partner}"
            if r.scale is not None and r.scale != 1:
                extra += f" scaled by {r.scale}"
            parts.append(f"{r.name}: {r.status}{extra}")
        return "; ".join(parts) if parts else "exact match"


def _family(name: str) -> str:
    return name.rstrip("'")


def compare_reference_matrices(G: FiniteGroup, sector: str) -> MatrixComparison:
    """Solve the sector system at the reference right-hand sides and
    classify per-row discrepancies against the transcribed matrix:
    row permutations within a prime family, per-row rational scalings,
    or anything else (flagged for review)."""
    ref_rows, ref_rhs, ref_matrix = reference_system(G, sector)
    sol = solve_irrep_quantities(G, sector, ref_rhs)
    if sol.row_labels != ref_rows:
        raise ContractViolation("irrep inventory disagrees with the reference")
    comp = MatrixComparison(sol, ref_rows, ref_matrix, [])
    for i, name in enumerate(sol.row_labels):
        got = sol.matrix[i]
        if got == ref_matrix[i]:
            comp.rows.append(RowComparison(name, "exact"))
            continue
        fam = [j for j, other in enumerate(ref_rows)
               if _family(other) == _family(name)]
        status, partner, scale = "other", None, None
        for j in fam:
            if got == ref_matrix[j]:
                status, partner = "permuted", ref_rows[j]
                break
            c = _row_scale(got, ref_matrix[j])
            if c is not None:
                if j == i:
                    status, partner, scale = "scaled", ref_rows[j], c
                else:
                    status, partner, scale = "scaled_permuted", ref_rows[j], c
                break
        comp.rows.append(RowComparison(name, status, partner, scale))
    return comp


def _row_scale(a, b):
    """c with a == c*b, or None."""
    pivot = next((k for k, v in enumerate(b) if v != 0), None)
    if pivot is None or b[pivot] == 0 or a[pivot] == 0:
        return None
    c = a[pivot] / b[pivot]
    return c if all(x == c * y for x, y in zip(a, b)) else None


# -- degeneracy-level verifications ---------------------------------------


def lens_series(G: FiniteGroup, gen: str, r: int, n_max: int):
    H = G.cyclic_subgroup(gen)
    return degeneracy_series(H, r % H.order, n_max)


def verify_isospectrality(G: FiniteGroup, n_max: int = 60) -> list[CheckResult]:
    """degeneracy_series(H, r) == degeneracy_series(G, Ind r) for every
    cyclic subgroup and twist, exactly and level by level."""
    out = []
    for gen in GENERATORS:
        H = G.cyclic_subgroup(gen)
        for r in range(H.order):
            lhs = lens_series(G, gen, r, n_max)
            ind = induce_twist(G, gen, r).as_dict()
            rhs = degeneracy_series(G, ind, n_max)
            if lhs.entries == rhs.entries:
                out.append(CheckResult(f"{G.name}:isospectral:{r};{gen}", True))
            else:
                bad = next(n for n in range(n_max + 1)
                           if lhs.entries[n] != rhs.entries[n])
                out.append(CheckResult(
                    f"{G.name}:isospectral:{r};{gen}", False,
                    f"first mismatch at level {bad}: "
                    f"{lhs.entries[bad]} != {rhs.entries[bad]}"))
    return out


def verify_dimension_relation(G: FiniteGroup, n_max: int = 60) -> CheckResult:
    """sum_A dim(A) d_n(A) = (n+1)^2 at every level."""
    table = character_table(G)
    per_irrep = [(ir.label.dimension, degeneracy_series(G, ir.name, n_max))
                 for ir in table]
    for n in range(n_max + 1):
        total = sum(dim * s.entries[n] for dim, s in per_irrep)
        if total != (n + 1) ** 2:
            return CheckResult(f"{G.name}:dimension_relation", False,
                               f"level {n}: {total} != {(n + 1) ** 2}")
    return CheckResult(f"{G.name}:dimension_relation", True)


def _central_relation_rows(G: FiniteGroup):
    """Rows (key, lhs irrep names, base irrep names, lens twist, factor,
    note).  The lhs/base lists describe virtual sums of irreps; [] means
    a literal zero left-hand side.

    The exact theorem behind all of these is the spin ladder
    sum_gamma Ind(w^t) - Ind_RST(w^t) = Res chi_{t/2} - Res chi_{(t-2)/2};
    rows marked "as printed" follow the classical write-up even where it
    deviates from the ladder, so those checks report honestly red."""
    two_i = G.presentation[2] == 5
    res1 = ["3'"] if two_i else ["3"]   # Res chi_1 by the table naming
    rows = [
        ("untwisted", ["1"], [], 0, Fraction(1, 2), ""),
        ("first_spinor", ["2s"], [], 1, Fraction(1), ""),
        ("spin1", res1, ["1"], 2, Fraction(1),
         "lhs is Res chi_1; named 3' by the 2I tables (documented interchange)"
         if two_i else ""),
    ]
    if G.presentation[2] == 3:
        rows.append(("spin3half_printed", [], ["2s"], 3, Fraction(1),
                     "printed claim: lhs vanishes (no 4s irrep)"))
        rows.append(("spin3half_actual", ["2s'", "2s''"], ["2s"], 3, Fraction(1),
                     "true tetrahedral instance: lhs = Res chi_3/2"))
    else:
        rows.append(("spin3half", ["4s"], ["2s"], 3, Fraction(1), ""))
    if two_i:
        rows.append(("spin2_printed", ["3'"], ["1"], 4, Fraction(1),
                     "printed claim (false under every labeling)"))
        rows.append(("spin2_actual", ["5"], ["3'"], 4, Fraction(1),
                     "true identity: S(5) = S(3') + sum S(4;gamma) - S(4;RST)"))
        rows.append(("spin5half", ["6s"], ["4s"], 5, Fraction(1), ""))
    return rows


def verify_central_relations(G: FiniteGroup, n_max: int = 60) -> list[CheckResult]:
    """Per-level checks of the relations expressing irrep quantities
    through low-twist lens quantities over all four cyclic subgroups,
    twist indices reduced mod the subgroup order."""
    out = []
    rows = _central_relation_rows(G)
    # each distinct series once: rows share irreps and lens twists
    names = {nm for _, lhs, base, *_ in rows for nm in lhs + base}
    irrep = {nm: degeneracy_series(G, nm, n_max).entries for nm in names}
    orders = {gen: G.cyclic_subgroup(gen).order for gen in GENERATORS}
    lens = {(gen, r): lens_series(G, gen, r, n_max).entries
            for gen, q in orders.items() for r in {row[3] % q for row in rows}}
    for key, lhs_names, base_names, twist, factor, note in rows:
        ok = True
        detail = note
        for n in range(n_max + 1):
            lhs = sum(irrep[nm][n] for nm in lhs_names)
            rhs = sum(lens[gen, twist % orders[gen]][n]
                      for gen in ("R", "S", "T"))
            rhs -= lens["RST", twist % orders["RST"]][n]
            rhs += sum(irrep[nm][n] for nm in base_names)
            rhs = factor * rhs
            if lhs != rhs:
                ok = False
                detail = (f"level {n}: {lhs} != {rhs}"
                          + (f" ({note})" if note else ""))
                break
        out.append(CheckResult(f"{G.name}:central:{key}", ok, detail))
    return out


class SunadaVerdict(Record):
    equivalent: bool
    isospectral_verified: bool
    detail: str


def sunada_check(G: FiniteGroup, H1: SubgroupHandle, H2: SubgroupHandle,
                 twist1, twist2, n_max: int = 60) -> SunadaVerdict:
    """Test Gamma-equivalence of the induced twists by exact character
    equality; if equivalent, the two quotient spectra must agree level
    by level for the given twists, and the verdict names the first level
    where they do not."""
    ind1 = induce_character(H1, twist1)
    ind2 = induce_character(H2, twist2)
    if ind1 != ind2:
        return SunadaVerdict(False, False,
                             "induced characters differ; no spectral claim")
    s1 = degeneracy_series(H1, twist1, n_max)
    s2 = degeneracy_series(H2, twist2, n_max)
    n = next((n for n, (a, b) in enumerate(zip(s1.entries, s2.entries)) if a != b),
             None)
    if n is not None:
        return SunadaVerdict(True, False,
                             f"equivalent induced twists, unequal spectra at "
                             f"level {n}: {s1[n]} != {s2[n]}")
    return SunadaVerdict(True, True,
                         f"equal series up to level {n_max}")


def artin_sufficiency(G: FiniteGroup) -> list[CheckResult]:
    """(i) the three cyclic subgroups meet every conjugacy class;
    (ii) their induced characters span the full character space over Q;
    (iii) the class/irrep counting identity."""
    out = []
    covered = set()
    for gen in ("R", "S", "T"):
        gi = G.generators[gen]
        for j in range(G.orders[gi]):
            covered.add(G.class_of[G.power(gi, j)])
    out.append(CheckResult(
        f"{G.name}:artin:class_coverage", len(covered) == G.num_classes,
        "" if len(covered) == G.num_classes else
        f"only {len(covered)} of {G.num_classes} classes met"))
    rank = _induced_span_rank(G, ("R", "S", "T"))
    out.append(CheckResult(
        f"{G.name}:artin:span_rank", rank == G.num_classes,
        f"rank {rank} of {G.num_classes}"))
    l, m, n = G.presentation
    count = 1 + 1 + (l - 1) + (m - 1) + (n - 1)
    out.append(CheckResult(
        f"{G.name}:artin:counting", count == G.num_classes,
        f"{count} vs {G.num_classes}"))
    return out


def _induced_span_rank(G: FiniteGroup, gens) -> int:
    rows = []
    table = character_table(G)
    for gen in gens:
        H = G.cyclic_subgroup(gen)
        for r in range(H.order):
            dec = induce_twist(G, gen, r).as_dict()
            rows.append([dec.get(ir.name, 0) for ir in table])
    return len(rref(rows, None)[1])


# -- the verify items -----------------------------------------------------
# One function (groups, n_max) -> [CheckResult] per item.  VERIFY_ITEMS lists
# them in report order with the group selectors each reads; the caller
# resolves those once and passes the groups in that order.


def _tables(gs, n_max):
    out = []
    for G in gs:
        for gen, rows in REFERENCE_INDUCTIONS[G.name].items():
            detail = _table_mismatch(G, gen, rows)
            out.append(CheckResult(f"{G.name}:table:{gen}", not detail, detail))
            ok = column_sum_is_regular(G, gen)
            out.append(CheckResult(f"{G.name}:column_regular:{gen}", ok,
                                   "" if ok else _column_witness(G, gen)))
    return out


def _table_mismatch(G: FiniteGroup, gen: str, rows) -> str:
    """The first row that differs from the listed rows, or "" when none
    does, over all q rows of the <gen> column and of each unlisted column
    whose generator s is conjugate to gen or to its inverse.  Row r of <s>
    reads the listed row r, or -r mod q when [s] = [gen^-1] (2T's S
    against T).  A listed index j past the list reads row q - j: gen is
    conjugate to its inverse there, so omega^j and omega^(q-j) induce the
    same character."""
    c = G.class_of[G.generators[gen]]
    columns = [("", gen, 1)]
    for s, x in G.generators.items():
        sign = 1 if G.class_of[x] == c else -1 if G.class_of[G.inv[x]] == c else 0
        if sign and s not in REFERENCE_INDUCTIONS[G.name]:
            columns.append((f"<{s}> ", s, sign))
    for prefix, column, sign in columns:
        got = induction_table(G, column)
        q = len(got)
        for r, dec in enumerate(got):
            row, j = dec.as_dict(), sign * r % q
            j = j if j < len(rows) else q - j
            if row != rows[j]:
                source = f" at <{gen}> r = {j}" if prefix or j != r else ""
                return f"{prefix}r = {r}: derived {row}, listed {rows[j]}{source}"
    return ""


def _column_witness(G: FiniteGroup, gen: str) -> str:
    """The first class where the column sum of Ind omega^r differs from
    the regular character, with both values."""
    pairs = zip(G.class_labels, column_sum(G, gen).values,
                regular_character(G).values)
    label, got, want = next((l, a, b) for l, a, b in pairs if a != b)
    return f"[{label}]: sum of Ind w^r {got} != regular {want}"


def _isospectral(gs, n_max):
    return [c for G in gs for c in verify_isospectrality(G, n_max)]


def _dimension(gs, n_max):
    return [verify_dimension_relation(G, n_max) for G in gs]


def _relations(gs, n_max):
    return [c for G in gs for c in verify_central_relations(G, n_max)]


def _matrices(gs, n_max):
    out = []
    for G in gs:
        for sector in ("spinor", "nonspinor"):
            comp = compare_reference_matrices(G, sector)
            want = dict.fromkeys(comp.reference_rows, "exact")
            want.update(REFERENCE_MATRIX_DEVIATIONS.get((G.name, sector), {}))
            ok = comp.statuses() == want
            out.append(CheckResult(f"{G.name}:matrix:{sector}", ok, comp.summary()))
            mismatch = comp.solution.round_trip_mismatch()
            out.append(CheckResult(f"{G.name}:matrix_roundtrip:{sector}",
                                   not mismatch, mismatch))
    return out


def _conjugations(gs, n_max):
    return [CheckResult(f"{G.name}:conjugation:{name}", ok, detail)
            for G in gs for name, ok, detail in verify_generator_conjugations(G)]


def _induced_matrices(gs, n_max):
    return [CheckResult(f"{G.name}:induced_matrices:{r};{gen}", bool(v), v.witness)
            for G in gs for gen in GENERATORS
            for r in range(G.cyclic_subgroup(gen).order)
            for v in [verify_monomial_rep(G, gen, r)]]


def _mckay(gs, n_max):
    out = []
    for G in gs:
        key = f"{G.name}:mckay"
        graph, diagram = mckay_graph(G), compactified_diagram(G)
        out.append(CheckResult(f"{key}:ade", graph.ade_name in ("E6~", "E7~", "E8~"),
                               graph.ade_name))
        sums = graph.neighbour_mark_sums()
        bad = next((i for i, s in enumerate(sums) if s != 2 * graph.marks[i]), None)
        out.append(CheckResult(f"{key}:marks", bad is None, "" if bad is None else
                               f"node {graph.nodes[bad]}: 2 * mark {graph.marks[bad]} "
                               f"!= {sums[bad]}, the sum over its neighbours"))
        found = sorted(diagram.arc_sizes.values())
        want = sorted(k - 1 for k in G.presentation)
        out.append(CheckResult(f"{key}:arcs", found == want, "" if found == want else
                               f"arc sizes {found}, expected {want}"))
        ok = relink_matches_mckay(diagram, graph) is not None
        out.append(CheckResult(f"{key}:relink", ok, "" if ok else
                               f"no arc relinks to the McKay arms {graph.arm_lengths()}"))
        cc = class_correspondence(G)
        out.append(CheckResult(f"{key}:two_to_one", cc["two_to_one"],
                               "; ".join(cc["problems"])))
    return out


def _sunada(gs, n_max):
    [G] = gs
    S, T = G.cyclic_subgroup("S"), G.cyclic_subgroup("T")
    v1, v2 = sunada_check(G, S, T, 1, 5, n_max), sunada_check(G, S, T, 1, 1, n_max)
    return [CheckResult(f"{G.name}:sunada:(1,5)",
                        v1.equivalent and v1.isospectral_verified, v1.detail),
            CheckResult(f"{G.name}:sunada:(1,1)-inequivalent",
                        not v2.equivalent, v2.detail)]


def _artin(gs, n_max):
    return [c for G in gs for c in artin_sufficiency(G)]


def _oracle_check(G: FiniteGroup) -> CheckResult:
    """The GF(p) projector oracle against the degeneracy series, the one
    the CLI and every other verdict read, for every twist up to
    ORACLE_MAX_LEVEL; the first disagreement fails the group."""
    twists = (range(len(G)) if G.num_classes == len(G)
              else [ir.name for ir in character_table(G)])
    for tw in twists:
        series = degeneracy_series(G, tw, ORACLE_MAX_LEVEL)
        for lev in range(ORACLE_MAX_LEVEL + 1):
            o, f = oracle_projector_degeneracy(G, tw, lev), series[lev]
            if o != f:
                return CheckResult(f"{G.name}:oracle", False,
                                   f"twist {tw} level {lev}: oracle {o} != {f}")
    return CheckResult(f"{G.name}:oracle", True)


def _oracle(gs, n_max):
    return [_oracle_check(G) for G in gs]


def _torsion(gs, n_max):
    """On the exact values: the anchors T(4,1) = 2, T(6,1) = 1,
    T(6,3) = 4, the identity T(4,1)^2 = T(6,1)^2 T(6,3), which follows
    from the anchors, and, for q = 4 and 6, prod_{r=1}^{q-1} T(q, r) = q^2
    (prod 2 sin(pi r/q) = q), which they do not imply.  The detail shows
    the float residual of the identity's log form for display only."""
    tors = {(q, r): lens_torsion(q, r) for q in (4, 6) for r in range(1, q)}
    t41, t61, t63 = tors[4, 1], tors[6, 1], tors[6, 3]
    ok = ([t.exact.as_integer() for t in (t41, t61, t63)] == [2, 1, 4]
          and t41.exact * t41.exact == t61.exact * t61.exact * t63.exact
          and all(math.prod(tors[q, r].exact for r in range(1, q)) == q * q
                  for q in (4, 6)))
    lhs, rhs = t41.log_value, t61.log_value + t63.log_value / 2
    return [CheckResult("torsion:anchors", ok, f"log residual {abs(lhs - rhs):.2e}")]


POLYHEDRAL = ("2T", "2O", "2I")

# item -> (group selectors it reads, check); `verify all` runs them in order
VERIFY_ITEMS = {
    "tables": (POLYHEDRAL, _tables),
    "isospectral": (POLYHEDRAL, _isospectral),
    "dimension": (POLYHEDRAL, _dimension),
    "relations": (POLYHEDRAL, _relations),
    "matrices": (POLYHEDRAL, _matrices),
    "conjugations": (POLYHEDRAL, _conjugations),
    "induced-matrices": (POLYHEDRAL, _induced_matrices),
    "mckay": (POLYHEDRAL, _mckay),
    "sunada": (("2T",), _sunada),
    "artin": (POLYHEDRAL, _artin),
    "oracle": (POLYHEDRAL + ("Z2", "Z4", "Z6"), _oracle),
    "torsion": ((), _torsion),
}
