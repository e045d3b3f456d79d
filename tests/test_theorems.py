from fractions import Fraction

import pytest

from spaceforms import groups, induction, theorems
from spaceforms._reference_tables import REFERENCE_INDUCTIONS
from spaceforms.characters import ClassFunction
from spaceforms.cli import main
from spaceforms.induction import InducedDecomposition, induce_twist, induction_table
from spaceforms.spectra import (DegeneracySeries, LensTorsion, SpectralWeight,
                               degeneracy_series, spectral_sum)
from spaceforms.theorems import (CheckResult, compare_reference_matrices,
                                 reference_system, sector_irreps,
                                 solve_irrep_quantities, sunada_check,
                                 verify_central_relations,
                                 verify_dimension_relation,
                                 verify_isospectrality)

F = Fraction


def test_solver_single_rows(g2t, g2i):
    sol = solve_irrep_quantities(g2i, "spinor",
                                 [(1, "T"), (3, "T"), (5, "T"), (1, "S")])
    assert sol.row("4s") == [F(1), F(1), F(0), F(-1)]
    sol = solve_irrep_quantities(g2t, "nonspinor",
                                 [(0, "T"), (2, "T"), (4, "T"), (2, "R")])
    assert sol.row("3") == [F(0), F(0), F(0), F(1, 2)]


def test_solver_full_matrix_2o_spinor(g2o):
    sol = solve_irrep_quantities(g2o, "spinor", [(1, "T"), (1, "S"), (3, "S")])
    assert sol.matrix == [[F(1), F(0), F(-1, 2)],
                          [F(-1), F(1), F(0)],
                          [F(0), F(0), F(1, 2)]]
    assert sol.round_trip_is_identity()


def test_solver_rejects_singular_choices(g2o):
    with pytest.raises(ValueError):
        solve_irrep_quantities(g2o, "spinor", [(1, "T"), (1, "T"), (3, "S")])
    with pytest.raises(ValueError):
        solve_irrep_quantities(g2o, "spinor", [(1, "T"), (1, "S")])


def test_sector_separation(all_groups):
    for G in all_groups:
        spin = {ir.name for ir in sector_irreps(G, "spinor")}
        non = {ir.name for ir in sector_irreps(G, "nonspinor")}
        assert spin.isdisjoint(non)
        assert len(spin) + len(non) == G.num_classes


EXPECTED_STATUSES = {
    ("2T", "spinor"): {"2s": "scaled", "2s'": "scaled_permuted",
                       "2s''": "scaled_permuted"},
    ("2T", "nonspinor"): {"1": "exact", "1'": "exact", "1''": "exact",
                          "3": "exact"},
    ("2O", "spinor"): {"2s": "exact", "2s'": "exact", "4s": "exact"},
    ("2O", "nonspinor"): {"1": "exact", "1'": "exact", "2": "exact",
                          "3": "exact", "3'": "exact"},
    ("2I", "spinor"): {"2s": "exact", "2s'": "exact", "4s": "exact",
                       "6s": "exact"},
    ("2I", "nonspinor"): {"1": "exact", "3": "permuted", "3'": "permuted",
                          "4": "exact", "5": "exact"},
}


def test_reference_matrix_comparison_taxonomy(all_groups):
    for G in all_groups:
        for sector in ("spinor", "nonspinor"):
            comp = compare_reference_matrices(G, sector)
            assert comp.statuses() == EXPECTED_STATUSES[(G.name, sector)]
            assert comp.solution.round_trip_is_identity()


def test_a_false_inverse_fails_the_round_trip_naming_the_entry(monkeypatch, capsys,
                                                              g2t):
    # the solver returns M unjudged; with M[2s][last] one too large, (M A)
    # first differs from I in row 2s at the first irrep that the last
    # equation counts, and the verdict says so and exits 1
    sol = solve_irrep_quantities(g2t, "spinor", reference_system(g2t, "spinor")[1])
    names, last = sol.row_labels, sol.decomposition[-1]
    j = next(j for j, m in enumerate(last) if m)
    rref = theorems.rref

    def off_by_one(rows, p):
        out, pivots = rref(rows, p)
        out[0][-1] += 1
        return out, pivots
    monkeypatch.setattr(theorems, "rref", off_by_one)
    code = main(["verify", "matrices"])
    out = capsys.readouterr().out
    assert code == 1
    assert (f"FAIL  2T:matrix_roundtrip:spinor  [(M A)[{names[0]}, {names[j]}] = "
            f"{int(j == 0) + last[j]}, not {int(j == 0)}]") in out


def test_tetrahedral_spinor_scale_factor(g2t):
    comp = compare_reference_matrices(g2t, "spinor")
    scales = {r.name: r.scale for r in comp.rows}
    assert scales == {"2s": F(1, 2), "2s'": F(1, 2), "2s''": F(1, 2)}
    partners = {r.name: r.partner for r in comp.rows}
    assert partners["2s'"] == "2s''" and partners["2s''"] == "2s'"


def test_icosahedral_row_interchange(g2i):
    comp = compare_reference_matrices(g2i, "nonspinor")
    partners = {r.name: r.partner for r in comp.rows if r.partner}
    assert partners == {"3": "3'", "3'": "3"}


def test_isospectrality_small_sweep(g2t):
    results = verify_isospectrality(g2t, 30)
    assert len(results) == 4 + 6 + 6 + 2
    assert all(r.passed for r in results)


def test_dimension_relation(all_groups):
    for G in all_groups:
        assert verify_dimension_relation(G, 30).passed


def test_isospectrality_holds_for_variant_builds():
    # the central equality is generator-triple independent
    for n in (3, 4, 5):
        B = groups.build_binary_polyhedral(n, variant=1)
        assert all(r.passed for r in verify_isospectrality(B, 20))


def test_central_relations_pattern(all_groups):
    # the printed forms that deviate from the underlying ladder identity
    # must fail (honestly), everything else must pass
    for G in all_groups:
        results = {r.key.split(":", 2)[2]: r for r in
                   verify_central_relations(G, 40)}
        for key, res in results.items():
            if key.endswith("_printed"):
                assert not res.passed, res.key
            else:
                assert res.passed, (res.key, res.detail)
        if G.name == "2T":
            assert "spin3half_printed" in results
            assert "spin3half_actual" in results
        if G.name == "2I":
            assert "spin2_printed" in results
            assert "spin2_actual" in results and results["spin2_actual"].passed


def test_sunada_pair(g2t):
    yes = sunada_check(g2t, g2t.cyclic_subgroup("S"), g2t.cyclic_subgroup("T"),
                       1, 5, 40)
    assert yes.equivalent and yes.isospectral_verified
    no = sunada_check(g2t, g2t.cyclic_subgroup("S"), g2t.cyclic_subgroup("T"),
                      1, 1, 40)
    assert not no.equivalent and not no.isospectral_verified


def test_sunada_conjugate_subgroups_trivial_twist(g2o):
    # conjugate subgroups with the trivial twist are always equivalent
    s, t = g2o.generators["S"], g2o.generators["T"]
    t_mult, inv = g2o.mult, g2o.inv
    conj = [t_mult[t_mult[s][x]][inv[s]]
            for x in g2o.cyclic_subgroup("T").member_indices]
    H2 = groups.SubgroupHandle(g2o, conj,
                               generator_index=t_mult[t_mult[s][t]][inv[s]],
                               name="conjT")
    verdict = sunada_check(g2o, g2o.cyclic_subgroup("T"), H2, 0, 0, 30)
    assert verdict.equivalent and verdict.isospectral_verified


def test_artin(all_groups):
    for G in all_groups:
        for res in theorems.artin_sufficiency(G):
            assert res.passed, res.key


def test_solved_system_consistency(all_groups):
    # every equation the solver did not use is implied by the solved
    # quantities: its residual vanishes at every level
    n_max = 20
    for G in all_groups:
        for sector, parity in (("spinor", 1), ("nonspinor", 0)):
            _, rhs, _ = reference_system(G, sector)
            sol = solve_irrep_quantities(G, sector, rhs)
            irreps = sector_irreps(G, sector)
            basis = [theorems.lens_series(G, gen, r, n_max).entries for r, gen in rhs]
            solved = {ir.name: [sum(c * b[n] for c, b in zip(row, basis))
                                for n in range(n_max + 1)]
                      for ir, row in zip(irreps, sol.matrix)}
            for gen in theorems.GENERATORS:
                H = G.cyclic_subgroup(gen)
                for r in range(H.order):
                    if H.group.neg_identity_index is not None and r % 2 != parity:
                        continue
                    dec = induce_twist(G, gen, r).as_dict()
                    implied = [sum(dec.get(ir.name, 0) * solved[ir.name][n]
                                   for ir in irreps) for n in range(n_max + 1)]
                    lhs = theorems.lens_series(G, gen, r, n_max).entries
                    assert implied == list(lhs), (G.name, sector, gen, r)


def test_heat_trace_decomposes_into_lens_traces(g2t):
    # untwisted heat trace = half the signed sum of the four untwisted
    # lens traces, at every truncation
    for n_max in (0, 5, 17, 40):
        lhs = spectral_sum(degeneracy_series(g2t, "1", n_max),
                           SpectralWeight.heat(0.2)).value
        parts = []
        for gen in ("T", "S", "R", "RST"):
            H = g2t.cyclic_subgroup(gen)
            parts.append(spectral_sum(degeneracy_series(H, 0, n_max),
                                      SpectralWeight.heat(0.2)).value)
        rhs = (parts[0] + parts[1] + parts[2] - parts[3]) / 2
        assert abs(lhs - rhs) < 1e-12


def test_degeneracy_identity_carries_to_weighted_sums(g2t):
    # an identity of degeneracy series implies it for every additive
    # spectral quantity; spot-check with heat and zeta weights
    H = g2t.cyclic_subgroup("S")
    lhs = degeneracy_series(H, 1, 60)
    rhs = degeneracy_series(g2t, {"2s": 1, "2s'": 1}, 60)
    for w in (SpectralWeight.heat(0.1), SpectralWeight.zeta(3.0)):
        assert abs(spectral_sum(lhs, w).value - spectral_sum(rhs, w).value) < 1e-9


def test_reference_system_shapes(all_groups):
    for G in all_groups:
        for sector in ("spinor", "nonspinor"):
            rows, rhs, matrix = reference_system(G, sector)
            assert len(rows) == len(rhs) == len(matrix)
            assert all(len(r) == len(rows) for r in matrix)


def test_check_result_json():
    assert CheckResult("x", True).as_dict() == {"item": "x", "status": "pass",
                                                "detail": ""}


def test_unequal_spectra_of_equivalent_twists_are_a_failing_verdict(
        monkeypatch, capsys, g2t):
    # a fresh 2T, so that nothing the patched series touches is kept on
    # the shared one; the <T> side of the (1, 5) pair is off at level 7
    monkeypatch.setitem(groups._BUILD_CACHE, (3, 0),
                        groups.group_from_json(groups.group_to_json(g2t)))
    series = theorems.degeneracy_series

    def off_at_level_7(target, twist, n_max):
        s = series(target, twist, n_max)
        if target.name.endswith("<T>") and twist == 5:
            entries = list(s.entries)
            entries[7] += 1
            s = DegeneracySeries(s.twist, tuple(entries))
        return s
    monkeypatch.setattr(theorems, "degeneracy_series", off_at_level_7)
    code = main(["verify", "sunada", "--nmax", "20"])
    out = capsys.readouterr().out
    assert code == 1
    assert ("FAIL  2T:sunada:(1,5)  [equivalent induced twists, unequal spectra "
            "at level 7: ") in out


def test_a_column_that_misses_the_regular_character_names_the_class(
        monkeypatch, g2t):
    # the tables are decomposed first, so that only the column sums see
    # an induction that is off by one at [-E]; the table verdicts also read
    # 2T's S column, which is not listed
    G = groups.group_from_json(groups.group_to_json(g2t))
    for gen in [*REFERENCE_INDUCTIONS["2T"], "S"]:
        induction_table(G, gen)
    induce = induction._twist_character

    def off_at_minus_e(G, gen, r):
        f = induce(G, gen, r)
        return ClassFunction(G, (f.values[0], f.values[1] + 1) + f.values[2:])
    monkeypatch.setattr(induction, "_twist_character", off_at_minus_e)
    results = [c for c in theorems._tables([G], 20) if ":column_regular:" in c.key]
    assert len(results) == len(REFERENCE_INDUCTIONS["2T"])
    for c in results:
        q = G.cyclic_subgroup(c.key.rsplit(":", 1)[1]).order
        assert not c.passed
        assert c.detail == f"[-E]: sum of Ind w^r {q} != regular 0"


def test_torsion_anchors_gate_on_the_exact_identity(monkeypatch):
    # T(4,1)^2 = T(6,1)^2 T(6,3) is checked on the exact values; the log
    # residual is display text only, so a float error does not flip it
    real = theorems.lens_torsion

    def patched(field, change, at):
        def torsion(q, r):
            t = real(q, r)
            if (q, r) != at:
                return t
            fields = dict(q=t.q, r=t.r, exact=t.exact, value=t.value,
                          log_value=t.log_value)
            return LensTorsion(**{**fields, field: change(fields[field])})
        monkeypatch.setattr(theorems, "lens_torsion", torsion)
        [check] = theorems._torsion([], 60)
        return check

    check = patched("log_value", lambda v: v + 1e-9, (4, 1))
    assert check.passed and check.detail == "log residual 1.00e-09"
    check = patched("exact", lambda v: v + 1, (6, 3))
    assert not check.passed


def test_torsion_gates_on_the_product_over_all_twists(monkeypatch, capsys):
    # the anchors imply T(4,1)^2 = T(6,1)^2 T(6,3); prod_{r=1}^{q-1}
    # T(q, r) = q^2 also reads T(6, 2), so a wrong T(6, 2) alone fails
    real = theorems.lens_torsion

    def torsion(q, r):
        t = real(q, r)
        return LensTorsion(q, r, t.exact + 1, t.value, t.log_value) if (q, r) == (6, 2) else t

    monkeypatch.setattr(theorems, "lens_torsion", torsion)
    code = main(["verify", "torsion"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == ("FAIL  torsion:anchors  [log residual 0.00e+00]\n"
                   "0/1 checks passed\n")


@pytest.mark.parametrize("group, gen, r, key, named", [
    ("2O", "T", 6, "2O:table:T", "r = 6: "),
    ("2I", "S", 5, "2I:table:S", "r = 5: "),
    ("2T", "S", 1, "2T:table:T", "<S> r = 1: "),
])
def test_an_unlisted_table_row_fails_naming_r(monkeypatch, capsys, group, gen, r, key,
                                              named):
    # the table verdicts check all q rows of each column: a row past the
    # listed ones reads the listed row q - r, and 2T's S column, which is
    # not listed, reads the T row q - r; one false derived row there FAILs
    # naming r, and the run exits 1
    real = theorems.induction_table

    def one_false_row(G, column):
        rows = real(G, column)
        if (G.name, column) == (group, gen):
            rows = list(rows)
            d = rows[r]
            rows[r] = InducedDecomposition(d.group_name, d.generator, d.twist,
                                           d.subgroup_order, rows[0].constituents)
        return rows
    monkeypatch.setattr(theorems, "induction_table", one_false_row)
    code = main(["verify", "tables"])
    out = capsys.readouterr().out
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL  {key}  [{named}derived "), fails
