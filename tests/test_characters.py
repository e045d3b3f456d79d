import cmath
import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest

from spaceforms import groups
from spaceforms.characters import (GALOIS_GENERATORS, CharacterTable,
                                   ClassFunction, TableDerivationError,
                                   _dixon_characters, _split,
                                   character_table,
                                   cyclic_character, inner_product,
                                   inner_product_int, nonnegative_int,
                                   normalize_irrep_name,
                                   regular_character, restrict, rref,
                                   spin_character, trivial_character)
from spaceforms.cli import main
from spaceforms.exactnum import (CONDUCTOR, DEGREE, ONE, ZERO, embed_float,
                                 root_of_unity)
from spaceforms.groups import ContractViolation
from spaceforms.induction import induce_character

EXPECT_NAMES = {
    "2T": ["1", "1'", "1''", "2s", "2s'", "2s''", "3"],
    "2O": ["1", "1'", "2", "2s", "2s'", "3", "3'", "4s"],
    "2I": ["1", "2s", "2s'", "3", "3'", "4", "4s", "5", "6s"],
}
EXPECT_DIMS = {
    "2T": [1, 1, 1, 2, 2, 2, 3],
    "2O": [1, 1, 2, 2, 2, 3, 3, 4],
    "2I": [1, 2, 2, 3, 3, 4, 4, 5, 6],
}


def test_irrep_inventories(all_groups):
    for G in all_groups:
        table = character_table(G)
        assert [ir.name for ir in table] == EXPECT_NAMES[G.name]
        assert [ir.label.dimension for ir in table] == EXPECT_DIMS[G.name]
        assert sum(d * d for d in EXPECT_DIMS[G.name]) == len(G)
        assert len(table) == G.num_classes


def test_row_orthonormality_recomputed(all_groups):
    for G in all_groups:
        table = character_table(G)
        for a in table:
            for b in table:
                want = ONE if a is b else ZERO
                assert inner_product(a.char, b.char) == want


def _column_sums(table):
    """sum over the irreps of conj(chi(c_i)) chi(c_j), for every pair."""
    k = table.group.num_classes
    return [[sum((ir.char.value_on_class(ci).conjugate() * ir.char.value_on_class(cj)
                  for ir in table), ZERO) for cj in range(k)] for ci in range(k)]


def test_column_orthogonality_recomputed(all_groups):
    # the table check verifies the rows only; the columns follow for a
    # square table, and are recomputed here on the three tables and on the
    # tables of their cyclic subgroups <R>, <S>, <T> and <RST>
    groups_ = [G for P in all_groups
               for G in [P] + [P.cyclic_subgroup(gen).group
                               for gen in ("R", "S", "T", "RST")]]
    assert len(groups_) == 15
    for G in groups_:
        for ci, row in enumerate(_column_sums(character_table(G))):
            for cj, acc in enumerate(row):
                if ci == cj:
                    assert acc * G.class_sizes[ci] == len(G) * ONE, (G.name, ci)
                else:
                    assert acc == ZERO, (G.name, ci, cj)


def test_mckay_adjacency_is_the_inner_product_definition(all_groups):
    # the table reads A off its residues mod 241; here A_ij = <chi_j,
    # chi_1/2 chi_i> is recomputed by exact inner products on every group
    # the program builds a table for: 2T, 2O, 2I, their cyclic subgroups
    # <R>, <S>, <T> and <RST>, and Z1, Z2, Z4 and Z6
    groups_ = [G for P in all_groups
               for G in [P] + [P.cyclic_subgroup(gen).group
                               for gen in ("R", "S", "T", "RST")]]
    groups_ += [groups.cyclic_group(q) for q in (1, 2, 4, 6)]
    assert len(groups_) == 19
    for G in groups_:
        table = character_table(G)
        half = spin_character(G, 1)
        want = tuple(tuple(inner_product_int(b.char, half * a.char) for b in table)
                     for a in table)
        assert table.adjacency == want, G.name


def test_one_corrupted_table_value_fails_the_row_check(all_groups, g2t):
    # rows orthonormal and the table square is all the check needs: a
    # single wrong value off E and -E breaks the rows (its column cannot be
    # orthogonal to the others), so it is refused there
    def corrupted(G, a, c):
        table = character_table(G)
        irreps = list(table)
        f = irreps[a].char
        values = f.values[:c] + (f.values[c] + 1,) + f.values[c + 1:]
        irreps[a] = dataclasses.replace(irreps[a], char=ClassFunction(G, values))
        return irreps

    cases = [(g2t, a, c) for a in range(len(character_table(g2t)))
             for c in range(2, g2t.num_classes)]
    cases += [(G, len(character_table(G)) - 1, G.num_classes - 1) for G in all_groups]
    for G, a, c in cases:
        with pytest.raises(TableDerivationError, match="^row orthogonality fails"):
            CharacterTable(G, corrupted(G, a, c))


def test_inner_product_basics(g2t):
    triv = trivial_character(g2t)
    assert inner_product(triv, triv) == ONE
    assert inner_product(regular_character(g2t), triv) == ONE
    # spin-1 restricted to 2T is the irrep named 3
    table = character_table(g2t)
    assert inner_product_int(table["3"].char, spin_character(g2t, 2)) == 1


def test_spin_character_values(all_groups):
    for G in all_groups:
        assert spin_character(G, 0).values == trivial_character(G).values
        chi_half = spin_character(G, 1)
        assert chi_half.value_on_element(G.neg_identity_index) == -2 * ONE
        for two_j in (0, 1, 2, 5, 8):
            chi = spin_character(G, two_j)
            assert chi.value_on_element(G.identity_index).as_integer() == two_j + 1


def test_spin_character_matches_eigenvalue_sums(g2o):
    # chi_j(gamma) = sum_k eps^{2k} with eps the spin eigenvalue, as an
    # exact identity on every element
    for i in range(len(g2o)):
        m = g2o.orders[i]
        trace = g2o.elements[i].trace()
        a = next(a for a in range(m)
                 if root_of_unity(m, a) + root_of_unity(m, -a) == trace)
        for two_j in (0, 1, 2, 3, 4, 7):
            want = ZERO
            for t in range(-two_j, two_j + 1, 2):
                want = want + root_of_unity(m, a * t)
            got = spin_character(g2o, two_j).value_on_element(i)
            assert got == want, (i, two_j)


def test_decompose_regular(g2t):
    table = character_table(g2t)
    dec = {ir.name: inner_product_int(ir.char, regular_character(g2t)) for ir in table}
    assert dec == {ir.name: ir.label.dimension for ir in table}


def test_decompose_spin1_on_2i(g2i):
    table = character_table(g2i)
    spin1 = spin_character(g2i, 2)
    dec = {ir.name: m for ir in table if (m := inner_product_int(ir.char, spin1))}
    assert dec == {"3'": 1}


def test_decompose_rejects_non_characters(g2t):
    table = character_table(g2t)
    bad = table["1"].char - table["3"].char
    with pytest.raises(ContractViolation, match="negative multiplicity: -1"):
        [inner_product_int(ir.char, bad) for ir in table]


def test_nonnegative_int_names_the_quantity():
    assert nonnegative_int(ONE * 3, "count") == 3
    with pytest.raises(ContractViolation, match="non-integral count"):
        nonnegative_int(ONE / 2, "count")
    with pytest.raises(ContractViolation, match="non-integral count"):
        nonnegative_int(root_of_unity(4, 1), "count")
    with pytest.raises(ContractViolation, match="negative count: -1"):
        nonnegative_int(-ONE, "count")


def test_restrict(g2t):
    table = character_table(g2t)
    H = g2t.cyclic_subgroup("T")
    res = restrict(table["2s"].char, H)
    assert res.value_on_element(0) == 2 * ONE     # dimension preserved
    assert restrict(trivial_character(g2t), H).values == \
        trivial_character(H.group).values
    # 2s restricted to <T> = w^1 + w^5, consistent with the 5-row of the
    # induction table by reciprocity
    assert inner_product_int(res, cyclic_character(H, 1)) == 1
    assert inner_product_int(res, cyclic_character(H, 5)) == 1
    assert inner_product_int(res, cyclic_character(H, 3)) == 0


def test_spinor_pairing(all_groups):
    for G in all_groups:
        table = character_table(G)
        for two_j in range(0, 13):
            chi = spin_character(G, two_j)
            for ir in table:
                if ir.label.spinor != (two_j % 2 == 1):
                    assert inner_product(ir.char, chi) == ZERO


def test_every_irrep_reached_by_spin(all_groups):
    for G in all_groups:
        table = character_table(G)
        for ir in table:
            assert any(not inner_product(ir.char, spin_character(G, j)).is_zero()
                       for j in range(0, 2 * len(G)))


def test_mckay_dimension_consistency(all_groups):
    for G in all_groups:
        table = character_table(G)
        chi_half = spin_character(G, 1)
        for ir in table:
            prod = chi_half * ir.char
            total = sum(inner_product_int(b.char, prod) * b.label.dimension
                        for b in table)
            assert total == 2 * ir.label.dimension


def test_cyclic_character_tables():
    for q in (2, 3, 6, 10):
        Z = groups.cyclic_group(q)
        table = character_table(Z)
        assert len(table) == q
        for r, ir in enumerate(table):
            assert ir.name == f"w^{r}"
            for k in range(q):
                assert ir.char.value_on_class(k) == root_of_unity(q, r * k)


def test_labels_are_deterministic(g2t):
    # a reconstruction from serialized data must reproduce the names
    from spaceforms.groups import group_from_json, group_to_json
    G2 = group_from_json(group_to_json(g2t))
    assert [ir.name for ir in character_table(G2)] == \
        [ir.name for ir in character_table(g2t)]


def test_a_wrong_node_map_fails_the_table_verdicts(monkeypatch, capsys, g2i):
    # the names come from the McKay graph alone, so the reference rows
    # check them: with 3 and 3' swapped in 2I's node map, 2I's tables FAIL
    from spaceforms import characters
    node_names = dict(characters.NODE_NAMES["2I"])
    node_names[(2, 3)], node_names[(6, 3)] = "3", "3'"
    monkeypatch.setitem(characters.NODE_NAMES, "2I", node_names)
    monkeypatch.setitem(groups._BUILD_CACHE, (5, 0),
                        groups.group_from_json(groups.group_to_json(g2i)))
    code = main(["verify", "tables"])
    failed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert code == 1
    assert failed and all(key.startswith("2I:table:") for key in failed)


def test_a_node_map_that_gives_two_nodes_one_name_is_refused(monkeypatch, g2o):
    from spaceforms import characters
    monkeypatch.setitem(characters.NODE_NAMES, "2O",
                        {**characters.NODE_NAMES["2O"], (4, 3): "3"})
    with pytest.raises(TableDerivationError, match="^2O: the McKay graph does not fit"):
        character_table(groups.group_from_json(groups.group_to_json(g2o)))


def _presentation_triples(G):
    """Every (R, S, T) of G with R = ST and R^2 = S^3 = T^n = RST = -E."""
    n, neg = G.presentation[2], G.neg_identity_index
    return [(G.mult[s][t], s, t) for s in range(len(G)) for t in range(len(G))
            if G.orders[s] == 6 and G.orders[t] == 2 * n
            and G.power(G.mult[s][t], 2) == neg]


def test_names_follow_the_defining_representation(monkeypatch, all_groups):
    # every triple of 2T names 2s as Res chi_1/2, since the McKay graph
    # does; on 2O and 2I the classical names assume the inner class with
    # tr T = 2cos(pi/n), and the other class (tr T = 2cos(3pi/n)) is refused
    for G in all_groups:
        triples = _presentation_triples(G)
        assert len(triples) == {"2T": 24, "2O": 48, "2I": 120}[G.name]
        tr_t = G.elements[G.generators["T"]].trace()
        if G.name != "2T":
            triples = [next(tr for tr in triples if G.elements[tr[2]].trace() != tr_t)]
        for triple in triples:
            monkeypatch.setattr(groups, "find_presentation_triple", lambda *_: triple)
            K = groups.adopt_presentation_triple(G, *G.presentation)
            if G.name == "2T":
                assert character_table(K)["2s"].char == spin_character(K, 1)
            else:
                with pytest.raises(TableDerivationError,
                                   match=rf"^{G.name}: T is not the rotation by the least"):
                    character_table(K)


def test_a_class_function_held_across_an_adoption_keeps_its_group(g2o):
    # adopting a triple returns a new group; chi_1/2 made before it stays
    # on the old group, which keeps its generators, classes and caches,
    # instead of being read against the new class order
    K = groups.find_index2_subgroup(g2o).group
    chi = spin_character(K, 1)
    before = (dict(K.generators), K.presentation, K.classes, K.class_labels)
    A = groups.adopt_presentation_triple(K, 2, 3, 3)
    assert A is not K and A.elements == K.elements and A.mult == K.mult
    assert (dict(K.generators), K.presentation, K.classes, K.class_labels) == before
    assert spin_character(K, 1) is chi
    two_s = character_table(A)["2s"].char
    with pytest.raises(ValueError, match="live on different groups"):
        inner_product(chi, two_s)
    assert inner_product_int(spin_character(A, 1), two_s) == 1
    assert inner_product_int(chi, chi) == 1


def test_alternate_triple_same_labeled_tables():
    from spaceforms.induction import induction_table
    from spaceforms.spectra import degeneracy_series
    for n in (3, 4, 5):
        A = groups.build_binary_polyhedral(n, variant=0)
        B = groups.build_binary_polyhedral(n, variant=1)
        ta, tb = character_table(A), character_table(B)
        assert [ir.name for ir in ta] == [ir.name for ir in tb]
        # labeled induction tables and per-irrep degeneracies must not
        # depend on which valid triple was chosen
        for gen in ("R", "S", "T", "RST"):
            rows_a = [r.as_dict() for r in induction_table(A, gen)]
            rows_b = [r.as_dict() for r in induction_table(B, gen)]
            assert rows_a == rows_b
        for ir in ta:
            assert degeneracy_series(A, ir.name, 20).entries == \
                degeneracy_series(B, ir.name, 20).entries


def test_tables_against_independent_numeric_derivation(all_groups):
    # re-derive each table numerically from the class algebra with code
    # written here (plain eigenvectors, no recognition step) and match
    # the exact table's float embedding up to row order
    import numpy as np
    for G in all_groups:
        k = G.num_classes
        t = G.mult
        a = np.zeros((k, k, k))
        for i, Ci in enumerate(G.classes):
            for j, Cj in enumerate(G.classes):
                for x in Ci:
                    for y in Cj:
                        a[i, j, G.class_of[t[x][y]]] += 1
        for l in range(k):
            a[:, :, l] /= G.class_sizes[l]
        rng = np.random.default_rng(987)
        M = np.tensordot(rng.standard_normal(k), a, axes=(0, 0))
        _, vecs = np.linalg.eig(M)
        sizes = np.array(G.class_sizes, dtype=float)
        numeric = []
        for col in range(k):
            u = vecs[:, col] / vecs[0, col]
            dim = (len(G) / np.sum(np.abs(u) ** 2 / sizes)) ** 0.5
            numeric.append(dim * u / sizes)
        exact = [[embed_float(v) for v in ir.char.values]
                 for ir in character_table(G)]
        used = set()
        for row in exact:
            hit = next((idx for idx, cand in enumerate(numeric)
                        if idx not in used
                        and max(abs(c - e) for c, e in zip(cand, row)) < 1e-8),
                       None)
            assert hit is not None, (G.name, row)
            used.add(hit)


def test_name_normalization():
    assert normalize_irrep_name("2S′") == "2s'"
    assert normalize_irrep_name(" 3' ") == "3'"


def test_table_text_and_json(g2o):
    table = character_table(g2o)
    text = table.to_text()
    assert "[T^2]" in text and "4s" in text
    doc = table.to_json()
    assert doc["schema"] == "spaceforms/1"
    assert len(doc["irreps"]) == 8
    val = doc["irreps"][0]["values"][0]
    assert val["num"][0] == 1 and val["den"] == 1


def test_embedding_of_character_values(g2i):
    # golden ratio values in the 2-dim spinors
    table = character_table(g2i)
    tclass = g2i.class_by_label["T"]
    z = embed_float(table["2s"].char.value_on_class(tclass))
    assert abs(z - 2 * cmath.cos(cmath.pi / 5)) < 1e-12


def test_second_prime_gives_the_same_table(all_groups):
    # 601 = 5 * 120 + 1 is another prime carrying the 120th roots of unity
    for G in all_groups:
        table = {ir.char.values for ir in character_table(G)}
        assert {c.values for c in _dixon_characters(G, 241)} == table
        assert {c.values for c in _dixon_characters(G, 601)} == table


def test_unsuitable_primes_are_refused(g2t):
    # 239 and 251 lack the 120th roots of unity; 121 = 11^2 is no prime
    for p in (239, 251, 121):
        with pytest.raises(TableDerivationError):
            _dixon_characters(g2t, p)


def test_rref_over_q_and_mod_p():
    rows = [[2, 4, 1], [1, 2, 0], [3, 6, 1]]
    # over Q the third row is the sum of the first two: rank 2
    echelon, pivots = rref(rows, None)
    assert pivots == [0, 2]
    assert echelon == [[1, 2, 0], [0, 0, 1]]
    assert all(isinstance(v, Fraction) for row in echelon for v in row)
    assert rref([[2, 1], [1, 2]], None)[0] == [[1, 0], [0, 1]]
    # mod 3 the same pair is singular: 2 * (1, 2) = (2, 1)
    assert rref([[2, 1], [1, 2]], 3) == ([[1, 2]], [0])


def test_split_refuses_a_non_diagonalizable_matrix():
    plane = rref([[1, 0], [0, 1]], 241)
    assert [rows for rows, _ in _split([[2, 0], [0, 3]], plane, 241)] == \
        [[[1, 0]], [[0, 1]]]
    with pytest.raises(TableDerivationError):
        _split([[1, 1], [0, 1]], plane, 241)


# SHA-256 of `spaceforms group <G> chartab --format json`, recorded with
# the earlier floating-point eigenvector derivation: the modular one must
# reproduce every value, label and order exactly
CHARTAB_JSON_SHA256 = {
    "2T": "2fa8ccfec32fa42fccf5b2172844c4d1bb147f585d436fc2c6d6c79b03abd9a7",
    "2O": "455947446afc2b1b32d630d24463de3e7950f42bd592e216a8f3706d9b433a5f",
    "2I": "c6ecfc111d4eed8ab799a9223f97abe2d755f3059c7d373a707ae586c82e91c6",
}


def test_chartab_json_is_pinned(capsys):
    for name, want in CHARTAB_JSON_SHA256.items():
        assert main(["group", name, "chartab", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, name


# -- the trace-form inner product and its Galois-stability guard ---------


def _unflagged(f):
    """A copy of f that the guard treats as not stable, so its inner
    products take the CycloNum sum."""
    return ClassFunction(f.group, f.values, stable=False)


def _agree(pool, base):
    """Every pair (a, b) with a in pool + base and b in base.  Pairs of two
    spin characters, which no caller forms, are left out to keep the test
    short."""
    for a in pool + base:
        assert a.stable is True
        for b in base:
            assert inner_product(a, b) == inner_product(_unflagged(a), b)


def test_trace_path_equals_the_cyclonum_sum(all_groups):
    for G in all_groups:
        spins = [spin_character(G, n) for n in range(61)]
        table = [ir.char for ir in character_table(G)]
        induced = [induce_character(G.cyclic_subgroup(gen), r) for gen in "RST"
                   for r in range(G.cyclic_subgroup(gen).order)]
        # two rational multiples bring denominators 2 and 3 into the sums
        scaled = [table[-1] * Fraction(1, 2), induced[-1] * Fraction(-2, 3)]
        _agree(spins, table + induced + scaled)
        for gen in "RST":
            H = G.cyclic_subgroup(gen)
            _agree([restrict(f, H) for f in spins],
                   [restrict(f, H) for f in table]
                   + [cyclic_character(H, r) for r in range(H.order)])


def test_a_function_that_is_not_stable_keeps_its_irrational_product(g2i):
    # zeta_5 on [E] and 1 elsewhere is no character: the guard refuses it
    f = ClassFunction(g2i, (root_of_unity(5),) + (ONE,) * (g2i.num_classes - 1))
    got = inner_product(f, trivial_character(g2i))
    assert f.stable is False
    assert repr(got) == "(118 + z8 + z12 - z24 - z28)/120"
    assert got == (root_of_unity(5).conjugate() + (len(g2i) - 1)) / len(g2i)
    assert inner_product(trivial_character(g2i), f) == got.conjugate()


def test_arithmetic_sets_flags_without_the_check(g2t):
    chi = character_table(g2t)["2s"].char
    f = ClassFunction(g2t, chi.values)
    assert (f * chi + f).stable is None and f.stable is None
    assert (chi * chi - chi * 3).stable is True
    assert (chi * root_of_unity(3)).stable is None
    inner_product(f, chi)
    assert f.stable is True


def test_the_galois_generators_generate_all_units():
    seen, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for s in GALOIS_GENERATORS:
            y = x * s % CONDUCTOR
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == {k for k in range(CONDUCTOR) if math.gcd(k, CONDUCTOR) == 1}
    assert len(seen) == DEGREE
