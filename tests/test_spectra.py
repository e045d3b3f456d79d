import functools
import math
import random
from fractions import Fraction

import pytest

from spaceforms import characters, groups, spectra
from spaceforms.characters import character_table
from spaceforms.exactnum import PRIME, CycloNum, reduce_mod_p, root_of_unity
from spaceforms.groups import ContractViolation
from spaceforms.spectra import (ORACLE_MAX_LEVEL, DegeneracySeries,
                                SpectralWeight, TwistError, TwistSpec,
                                degeneracy, degeneracy_series, lens_torsion,
                                oracle_projector_degeneracy, spectral_sum)


def lens_count(q, r, n):
    """Independent counting oracle for the homogeneous lens space."""
    return (n + 1) * sum(1 for m in range(-n, n + 1, 2) if (m - r) % q == 0)


def test_lens_series_against_counting_oracle():
    for q in (1, 2, 3, 4, 5, 6, 8, 10, 12, 20):
        Z = groups.cyclic_group(q)
        for r in range(q):
            for n in range(21):
                assert degeneracy(Z, r, n) == lens_count(q, r, n)
            n_max = 5 * q + 3     # five periods deep
            assert degeneracy_series(Z, r, n_max).entries == tuple(
                lens_count(q, r, n) for n in range(n_max + 1))


def test_round_sphere_and_z2():
    Z1 = groups.cyclic_group(1)
    assert [degeneracy(Z1, 0, n) for n in range(8)] == [(n + 1) ** 2
                                                        for n in range(8)]
    Z2 = groups.cyclic_group(2)
    for n in range(12):
        want = (n + 1) ** 2 if n % 2 == 0 else 0
        assert degeneracy(Z2, 0, n) == want


def test_parity_vanishing(all_groups):
    for G in all_groups:
        table = character_table(G)
        for ir in table:
            s = degeneracy_series(G, ir.name, 13)
            for n in range(14):
                if ir.label.spinor and n % 2 == 0:
                    assert s[n] == 0
                if not ir.label.spinor and n % 2 == 1:
                    assert s[n] == 0


def test_additivity(g2o):
    s1 = degeneracy_series(g2o, "2s", 25)
    s2 = degeneracy_series(g2o, "3", 25)
    both = degeneracy_series(g2o, {"2s": 1, "3": 1}, 25)
    assert all(both[n] == s1[n] + s2[n] for n in range(26))


def test_reflection_symmetry_of_lens_twists():
    for q in (4, 6, 8, 10):
        Z = groups.cyclic_group(q)
        for r in range(q):
            a = degeneracy_series(Z, r, 24)
            b = degeneracy_series(Z, (q - r) % q, 24)
            assert a.entries == b.entries


def test_poincare_like_trivial_series(g2i):
    s = degeneracy_series(g2i, "1", 14)
    assert s.entries[:13] == (1,) + (0,) * 11 + (13,)


def test_lens_matches_twisted_quotient(g2t):
    # the order-6 lens of <S> with twist 1 carries the same series as
    # the tetrahedral quotient twisted by the induced 2s'' + 2s
    H = g2t.cyclic_subgroup("S")
    lhs = degeneracy_series(H, 1, 60)
    rhs = degeneracy_series(g2t, {"2s": 1, "2s'": 1}, 60)
    assert lhs.entries == rhs.entries


def test_twist_validation(g2t):
    with pytest.raises(TwistError):
        degeneracy(g2t, {"3": -1, "1": 5}, 4)
    with pytest.raises(TwistError):
        TwistSpec.coerce(g2t, 1)
    with pytest.raises(KeyError):
        degeneracy(g2t, "4s", 2)   # 2T has no 4s; valid names listed


def test_a_lens_index_is_the_row_named_w_r(all_groups):
    # one twist type: omega^r by its index is row r of the cyclic table,
    # the row named w^r, on a cyclic group or a subgroup handle alike
    hosts = [groups.cyclic_group(q) for q in (2, 4, 6)]
    hosts += [G.cyclic_subgroup(gen) for G in all_groups
              for gen in ("R", "S", "T", "RST")]
    assert len(hosts) == 15
    for H in hosts:
        q = len(H.group) if isinstance(H, groups.SubgroupHandle) else len(H)
        for r in range(q):
            tw = TwistSpec.coerce(H, r)
            assert tw == TwistSpec.coerce(H, f"w^{r}") == TwistSpec.coerce(H, r + q)
            assert tw.terms == ((r, 1),)
            assert tw.describe().startswith(f"w^{r} on ")
    # the one row of Z1 is the trivial character, named 1 as on 2T, 2O, 2I
    assert TwistSpec.coerce(groups.cyclic_group(1), 0).describe() == "1 on Z1"


def test_names_of_one_row_add_their_coefficients(g2t):
    assert TwistSpec.coerce(g2t, {"2S": 1, "2s": 2}) == TwistSpec.coerce(g2t, {"2s": 3})
    assert TwistSpec.coerce(g2t, {"2s": 3}).terms == ((character_table(g2t).row("2s"), 3),)
    assert TwistSpec.coerce(g2t, {"2s": 1, "2S": -1, "1": 0}).terms == ()


def test_series_exports(g2t):
    s = degeneracy_series(g2t, "1", 6)
    doc = s.to_json()
    assert doc["schema"] == "spaceforms/1"
    assert doc["entries"][0] == {"level": 0, "eigenvalue": 0, "degeneracy": 1}
    csv = s.to_csv()
    assert csv.splitlines()[0] == "level,eigenvalue,degeneracy"
    assert csv.splitlines()[1] == "0,0,1"


def test_spectral_sum_raw_and_counting():
    Z2 = groups.cyclic_group(2)
    s = degeneracy_series(Z2, 0, 6)
    raw = spectral_sum(s, SpectralWeight.raw())
    assert raw.value == sum(s.entries)
    cnt = spectral_sum(s, SpectralWeight.counting(10.0))
    assert cnt.value == 1 + 9    # levels 0 and 2 (eigenvalues 0 and 8)


def test_heat_trace_limit_and_bound():
    Z1 = groups.cyclic_group(1)
    s = degeneracy_series(Z1, 0, 40)
    big_t = spectral_sum(s, SpectralWeight.heat(50.0))
    assert abs(big_t.value - 1.0) < 1e-12     # ground state only
    small = spectral_sum(s, SpectralWeight.heat(0.5))
    longer = degeneracy_series(Z1, 0, 80)
    true_tail = (spectral_sum(longer, SpectralWeight.heat(0.5)).value
                 - small.value)
    assert small.truncation_bound is not None
    assert true_tail <= small.truncation_bound


def per_level_sum(series, weight):
    """The heat or counting sum level by level, over every level."""
    if weight.kind == "heat":
        return sum(d * math.exp(-weight.param * n * (n + 2))
                   for n, d in enumerate(series.entries))
    return float(sum(d for n, d in enumerate(series.entries)
                     if n * (n + 2) <= weight.param))


def test_heat_and_counting_sums_equal_the_per_level_formula_bit_for_bit(all_groups):
    # the heat sum stops at the first weight that is exactly 0.0 and the
    # counting sum takes the levels below isqrt(floor(lambda) + 1); over
    # the deep-spectrum ranges of t and lambda, the golden heat commands,
    # a t whose weights pass through subnormals (2s first counts at level
    # 1, weight exp(-720) at t = 240) and the edges of the cutoff, both
    # give the per-level float exactly
    rng = random.Random(40)
    cases = []
    for G in all_groups:
        cases.append((degeneracy_series(G, "2s'", 20), [0.5], []))
        cases.append((degeneracy_series(G, "2s", 20), [50.0, 240.0, 745.0], []))
        for target, twist in ((G, "2s"), (G, "1"), (G.cyclic_subgroup("T"), 1)):
            n_max = rng.randint(200, 2000)
            cases.append((degeneracy_series(target, twist, n_max),
                          [0.001, 0.05] + [rng.uniform(0.001, 0.05) for _ in range(8)],
                          [float(rng.randint(n_max * n_max // 4, n_max * n_max))
                           for _ in range(8)]))
    for series, ts, lams in cases:
        n_max = series.n_max
        edges = [n * (n + 2) for n in (0, 1, 7, n_max - 1, n_max, n_max + 1)]
        lams = lams + edges + [lam - 1e-9 for lam in edges] + [
            -0.5, -1.0, -2.0, math.nan, math.inf, -math.inf, 1e300]
        weights = ([SpectralWeight.heat(t) for t in ts]
                   + [SpectralWeight.counting(lam) for lam in lams])
        for w in weights:
            got = spectral_sum(series, w).value
            assert got.hex() == per_level_sum(series, w).hex(), (series.twist, w)


def test_zeta_tail_bound_covers_a_4000_level_sum(g2i):
    # d_n <= dim (n+1)^2 and n(n+2) >= 3(n+1)^2/4 bound every omitted
    # term, for every twist and every s above the threshold
    cases = [(groups.cyclic_group(1), 0), (g2i, "6s"), (g2i, {"2s": 1, "4": 2}),
             (g2i.cyclic_subgroup("T"), 3)]
    for target, twist in cases:
        deep = degeneracy_series(target, twist, 4000)
        for n_max in (1, 10, 60, 200):
            short = DegeneracySeries(deep.twist, deep.entries[:n_max + 1])
            for s in (1.55, 2.0, 2.5, 3.0, 4.0):
                got = spectral_sum(short, SpectralWeight.zeta(s))
                rest = spectral_sum(deep, SpectralWeight.zeta(s)).value - got.value
                assert 0 < rest <= got.truncation_bound, (twist, n_max, s)
        for s in (1.5 + 1e-9, 10.0, 1000.5):
            assert math.isfinite(spectral_sum(short, SpectralWeight.zeta(s)).truncation_bound)


def test_tail_bounds_read_integers_only(g2i, monkeypatch):
    # the heat and zeta tail bounds read dim rho from the twist's integer
    # table rows' labels (`TwistSpec.central_values`): with the twist
    # character and CycloNum products and sums refused they stay bit for
    # bit the same
    series = [degeneracy_series(groups.cyclic_group(10), 3, 40),
              degeneracy_series(g2i, {"2s": 1, "4s": 2}, 40)]
    weights = [SpectralWeight.heat(0.05), SpectralWeight.zeta(2.5)]
    want = [spectral_sum(s, w) for s in series for w in weights]
    assert [tw.twist.dimension() for tw in series] == [1, 10]

    def refused(*args):
        raise AssertionError("the tail bounds take a field operation")
    monkeypatch.setattr(TwistSpec, "character", refused)
    monkeypatch.setattr(CycloNum, "__mul__", refused)
    monkeypatch.setattr(CycloNum, "__add__", refused)
    assert [spectral_sum(s, w) for s in series for w in weights] == want


def test_zeta_threshold():
    Z1 = groups.cyclic_group(1)
    s = degeneracy_series(Z1, 0, 10)
    val = spectral_sum(s, SpectralWeight.zeta(3.0))
    want = sum((n + 1) ** 2 * (n * (n + 2)) ** -3.0 for n in range(1, 11))
    assert abs(val.value - want) < 1e-15
    with pytest.raises(ValueError):
        spectral_sum(s, SpectralWeight.zeta(1.2))
    with pytest.raises(ValueError):
        SpectralWeight.heat(0.0)


def test_torsion_anchor_values():
    assert lens_torsion(4, 1).exact.as_integer() == 2
    assert lens_torsion(6, 1).exact.as_integer() == 1
    assert lens_torsion(6, 3).exact.as_integer() == 4
    lhs = lens_torsion(4, 1).log_value
    rhs = lens_torsion(6, 1).log_value + lens_torsion(6, 3).log_value / 2
    assert abs(lhs - rhs) < 1e-12


def test_torsion_rejects_untwisted():
    with pytest.raises(ValueError):
        lens_torsion(6, 0)
    with pytest.raises(ValueError):
        lens_torsion(6, 12)
    with pytest.raises(ValueError):
        lens_torsion(1, 1)


def test_torsion_general_values():
    for q in (3, 5, 8, 12):
        for r in range(1, q):
            lt = lens_torsion(q, r)
            assert abs(lt.value - 4 * math.sin(math.pi * r / q) ** 2) < 1e-12
            assert lt.value > 0


def test_oracle_examples():
    Z2 = groups.cyclic_group(2)
    assert oracle_projector_degeneracy(Z2, 0, 2) == 9
    Z4 = groups.cyclic_group(4)
    assert oracle_projector_degeneracy(Z4, 0, 0) == 1


def test_oracle_matches_formula_spotwise(g2t):
    for name in ("1", "2s", "3"):
        for n in range(9):
            assert oracle_projector_degeneracy(g2t, name, n) == \
                degeneracy(g2t, name, n)


def test_oracle_level_cap(g2t):
    with pytest.raises(ValueError):
        oracle_projector_degeneracy(g2t, "1", 9)


def test_oracle_rejects_reducible(g2t):
    with pytest.raises(TwistError):
        oracle_projector_degeneracy(g2t, {"1": 2}, 2)


def test_degeneracy_series_equality_semantics(g2t):
    a = degeneracy_series(g2t, "1", 10)
    b = degeneracy_series(g2t, {"1": 1}, 10)
    assert a == b
    assert isinstance(a, DegeneracySeries)


# -- the closed-form series ----------------------------------------------


def fresh_copy(G):
    """The same group with every derived cache empty."""
    return groups.group_from_json(groups.group_to_json(G))


def test_closed_form_series_matches_direct_path(all_groups):
    # a shallow series (half a period), then two full periods plus one
    # level past them, against the per-level inner product, for every
    # irrep, a mixed spinor/non-spinor combination and every lens twist
    # on each generator's subgroup; the multiplicity columns of a fresh
    # group grow together, at least as deep as asked and never past the
    # period
    for G in map(fresh_copy, all_groups):
        table = character_table(G)
        spinor = next(ir.name for ir in table if ir.label.spinor)
        plain = next(ir.name for ir in table
                     if not ir.label.spinor and ir.label.dimension > 1)
        cases = [(G, ir.name) for ir in table] + [(G, {spinor: 1, plain: 2})]
        for gen in ("R", "S", "T", "RST"):
            H = G.cyclic_subgroup(gen)
            cases += [(H, r) for r in range(H.order)]
        for target, twist in cases:
            host = TwistSpec.coerce(target, twist).group
            period = math.lcm(*host.orders)
            for n_max in (period // 2, 2 * period + 1):
                got = degeneracy_series(target, twist, n_max).entries
                want = tuple(degeneracy(target, twist, n)
                             for n in range(n_max + 1))
                assert got == want, (G.name, target, twist, n_max)
                if not isinstance(twist, dict):
                    depths = {len(c) for c in host._multiplicity_columns}
                    assert len(depths) == 1
                    assert depths.pop() >= min(n_max + 1, period)
        hosts = [G] + [G.cyclic_subgroup(gen).group
                       for gen in ("R", "S", "T", "RST")]
        for host in hosts:
            period = math.lcm(*host.orders)
            assert {len(c) for c in host._multiplicity_columns} == {period}
        assert len(G._multiplicity_columns) == len(table)


def test_series_reuses_the_irreducible_columns(g2i, monkeypatch):
    # the character table pays the k(k+1)/2 exact inner products of row
    # orthogonality, and reads the McKay adjacency mod 241 with none;
    # every series, of any irreducible and to any depth, is integer
    # arithmetic only
    G = fresh_copy(g2i)
    k = G.num_classes
    calls = []
    real = characters.inner_product

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(characters, "inner_product", counted)
    monkeypatch.setattr(spectra, "inner_product", counted)
    character_table(G)
    assert len(calls) == k * (k + 1) // 2
    calls.clear()
    first = degeneracy_series(G, {"2s": 1, "4s": 1}, 60)
    again = [degeneracy_series(G, "2s", 60),
             degeneracy_series(G, {"4s": 3, "2s": 1}, 200),
             degeneracy_series(G, {"2S": 1, "4s": 1}, 7)]
    shallow = degeneracy_series(G, "6s", 20)
    assert calls == []
    monkeypatch.undo()
    assert first.entries == tuple(a + b for a, b in zip(
        degeneracy_series(g2i, "2s", 60).entries,
        degeneracy_series(g2i, "4s", 60).entries))
    assert again[1].entries == tuple(
        degeneracy(g2i, {"4s": 3, "2s": 1}, n) for n in range(201))
    assert again[2].entries == first.entries[:8]
    assert shallow.entries == tuple(degeneracy(g2i, "6s", n) for n in range(21))


# The affine Dynkin diagrams E6~, E7~ and E8~ by irrep name (McKay 1980):
# an input to the column recurrence that the library does not derive.
AFFINE_DIAGRAMS = {
    "2T": ("1-2s-3", "1'-2s'-3", "1''-2s''-3"),
    "2O": ("1-2s-3-4s-3'-2s'-1'", "2-4s"),
    "2I": ("1-2s-3'-4s-5-6s-4-2s'", "3-6s"),
}


def test_columns_read_the_affine_dynkin_diagram(all_groups):
    for G in all_groups:
        names = [ir.name for ir in character_table(G)]
        edges = {frozenset(pair) for path in AFFINE_DIAGRAMS[G.name]
                 for pair in zip(path.split("-"), path.split("-")[1:])}
        want = tuple(tuple(int(frozenset((a, b)) in edges) for b in names)
                     for a in names)
        assert character_table(G).adjacency == want, G.name


def test_recurrence_columns_equal_the_direct_inner_product(all_groups):
    # to level 2L + 1, past the period, on each group, each generator's
    # cyclic subgroup and three lens groups
    hosts = [(G, [ir.name for ir in character_table(G)]) for G in all_groups]
    hosts += [(H, list(range(len(H)))) for H in
              [G.cyclic_subgroup(gen).group for G in all_groups
               for gen in ("R", "S", "T", "RST")]
              + [groups.cyclic_group(q) for q in (2, 4, 6)]]
    for host, irreducibles in hosts:
        depth = 2 * math.lcm(*host.orders) + 2
        for irreducible, col in zip(irreducibles, spectra._columns(host, depth),
                                    strict=True):
            assert col[:depth] == tuple(degeneracy(host, irreducible, n) // (n + 1)
                                        for n in range(depth)), (host, irreducible)


def poincare_coefficients(a, b, c, n_max):
    """Coefficients of (1 + t^a) / ((1 - t^b)(1 - t^c)) by integer recurrence."""
    coef = [0] * (n_max + 1)
    coef[0] = 1
    if a <= n_max:
        coef[a] += 1
    for d in (b, c):
        for n in range(d, n_max + 1):
            coef[n] += coef[n - d]
    return coef


def test_trivial_series_is_kleins_invariant_poincare_series(all_groups):
    # independent of the character path at every level: m_n for the
    # trivial twist counts the degree-n invariants of Gamma on C^2
    n_max = 3000
    for G, (a, b, c) in zip(all_groups, ((12, 6, 8), (18, 8, 12), (30, 12, 20))):
        want = poincare_coefficients(a, b, c, n_max)
        got = degeneracy_series(G, "1", n_max).entries
        assert got == tuple((n + 1) * m for n, m in enumerate(want)), G.name


def test_series_rejects_negative_n_max(g2t):
    with pytest.raises(ValueError):
        degeneracy_series(g2t, "1", -1)


def test_series_checks_the_period_step(g2t):
    # half the trivial character is no character: the steps are read from
    # the integer table values at E and -E, and Delta_0 = (12/24)(1/2 + 1/2)
    # = 1/2 is not an integer
    with pytest.raises(ContractViolation, match="period step Delta_0"):
        degeneracy_series(g2t, {"1": Fraction(1, 2)}, 3)


def test_series_checks_the_period_block(g2i):
    # half of irrep 4 has integral steps Delta_0 = 2, Delta_1 = 0, but
    # its block is half an irrep column, so some entry is 1/2
    with pytest.raises(ContractViolation, match="period block"):
        degeneracy_series(g2i, {"4": Fraction(1, 2)}, 60)


def test_oracle_matrices_cached_per_group(g2t):
    # the class sums of D^(n/2) mod p are kept per (group, level), and no
    # twist enters them
    assert oracle_projector_degeneracy(g2t, "3", 4) == degeneracy(g2t, "3", 4)
    sums = spectra._class_sums(g2t, 4)
    assert g2t._oracle_class_sums[4] is sums
    assert oracle_projector_degeneracy(g2t, "2s", 4) == degeneracy(g2t, "2s", 4)
    assert spectra._class_sums(g2t, 4) is sums
    assert len(sums) == g2t.num_classes
    # the identity class holds D(E) = I, one packed integer
    bits = spectra._slot_bits(len(g2t))
    assert spectra._unpack(sums[g2t.class_of[g2t.identity_index]], bits, 25) == \
        [int(r == c) for c in range(5) for r in range(5)]
    assert spectra._su2_powers(g2t) is spectra._su2_powers(g2t)


@functools.lru_cache(maxsize=None)
def plain_class_sums(G, n):
    """Per class, the sum of D^(n/2)(g) mod PRIME by the binomial theorem:
    column c is (a11 + a21 t)^(n-c) (a12 + a22 t)^c, row r its t^r; row
    by row."""
    i = reduce_mod_p(root_of_unity(4))
    dim = n + 1
    sums = [[0] * (dim * dim) for _ in range(G.num_classes)]
    for e, c in zip(G.elements, G.class_of):
        w, x, y, z = map(reduce_mod_p, (e.w, e.x, e.y, e.z))
        a11, a21, a12, a22 = w + i * x, i * z - y, y + i * z, w - i * x
        for col in range(dim):
            for j in range(n - col + 1):
                for k in range(col + 1):
                    sums[c][(j + k) * dim + col] += (
                        math.comb(n - col, j) * a11 ** (n - col - j) * a21 ** j
                        * math.comb(col, k) * a12 ** (col - k) * a22 ** k)
    return tuple(tuple(v % PRIME for v in s) for s in sums)


def test_packed_class_sums_equal_the_plain_expansion(all_groups):
    # the class sums stay packed and unreduced, column by column
    for G in all_groups + [groups.cyclic_group(q) for q in (2, 4, 6)]:
        bits = spectra._slot_bits(len(G))
        for n in range(ORACLE_MAX_LEVEL + 1):
            m = n + 1
            got = [spectra._unpack(C, bits, m * m) for C in spectra._class_sums(G, n)]
            assert tuple(tuple(C[c * m + r] % PRIME for r in range(m) for c in range(m))
                         for C in got) == plain_class_sums(G, n), (G.name, n)


def test_a_packed_slot_holds_its_bound():
    # every residue p - 1: at the top level the middle column of D(g), two
    # packed powers of degree n/2, adds n/2 + 1 products in its middle
    # slot; summed over |G| elements and weighted by p - 1, then P P -
    # scale P with n + 1 entries p - 1 and scale 1, that slot reaches the
    # bound `_slot_bits` is drawn for, and every slot still unpacks exactly
    n, top = ORACLE_MAX_LEVEL, PRIME - 1
    c = n // 2
    for order in (1, 2, 4, 6, 24, 48, 120):
        bits = spectra._slot_bits(order)
        column = (spectra._pack([top] * (n - c + 1), bits)
                  * spectra._pack([top] * (c + 1), bits))
        P = top * order * column
        total = (n + 1) * top * P + (PRIME - 1) * P
        assert spectra._unpack(total, bits, n + 1) == [
            (n + 2) * order * (min(r, n - r, c, n - c) + 1) * top ** 4
            for r in range(n + 1)], order


def plain_oracle(G, values, n):
    """The oracle's count from a twist's CycloNum values per class, with P
    formed entry by entry mod PRIME and P P = scale P checked by (n+1)^3
    products; None where that check fails."""
    m, sums = n + 1, plain_class_sums(G, n)
    weights = [reduce_mod_p(values[G.class_of[G.inv[rep]]]) for rep in G.class_reps]
    P = [[sum(w * s[r * m + c] for w, s in zip(weights, sums)) % PRIME
          for c in range(m)] for r in range(m)]
    dim = values[G.class_of[G.identity_index]].as_integer()
    scale = len(G) // dim
    if any((sum(P[r][k] * P[k][c] for k in range(m)) - scale * P[r][c]) % PRIME
           for r in range(m) for c in range(m)):
        return None
    rank = sum(P[r][r] for r in range(m)) * pow(scale, -1, PRIME) % PRIME
    return m * rank // dim


def test_packed_oracle_equals_the_plain_reference(all_groups):
    # every twist of 2T, 2O, 2I, Z2, Z4 and Z6 at levels 0..8
    for G in all_groups + [groups.cyclic_group(q) for q in (2, 4, 6)]:
        table = character_table(G)
        cyclic = G.num_classes == len(G)
        for i, ir in enumerate(table):
            twist = i if cyclic else ir.name
            for n in range(ORACLE_MAX_LEVEL + 1):
                assert oracle_projector_degeneracy(G, twist, n) == \
                    plain_oracle(G, ir.char.values, n), (G.name, ir.name, n)


def test_oracle_refuses_a_twist_that_is_not_a_character(g2i):
    # the oracle reads chi(c^-1) off the residues of the table row; on a
    # fresh copy, irrep 3's residue row with its [T] and [T^2] entries
    # swapped is a class function but no character: its class sum is no
    # multiple of an idempotent
    G = fresh_copy(g2i)
    table = character_table(G)
    i = table.irreps.index(table["3"])
    row = list(table.residues[i])
    t, t2 = G.class_by_label["T"], G.class_by_label["T^2"]
    row[t], row[t2] = row[t2], row[t]
    table.residues = table.residues[:i] + (tuple(row),) + table.residues[i + 1:]
    values = list(table["3"].char.values)
    values[t], values[t2] = values[t2], values[t]
    assert plain_oracle(G, values, 6) is None
    with pytest.raises(ContractViolation, match="oracle at level 6"):
        oracle_projector_degeneracy(G, "3", 6)


def test_oracle_counts_without_field_arithmetic(monkeypatch, g2o):
    # the oracle is an independent route: it takes no spin character, no
    # inner product and no CycloNum product or sum; the table is derived
    # before they are refused
    character_table(g2o)

    def refuse(*args):
        raise AssertionError("the oracle reached the character formula")
    for module, name in ((spectra, "spin_character"), (spectra, "inner_product"),
                         (characters, "trace_form")):
        monkeypatch.setattr(module, name, refuse)
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycloNum, name, refuse)
    assert [oracle_projector_degeneracy(g2o, "4s", n) for n in range(9)] == \
        [0, 0, 0, 4, 0, 6, 0, 8, 0]
