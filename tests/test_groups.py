import hashlib
import json
import random

import pytest

from spaceforms import groups
from spaceforms.exactnum import root_of_unity
from spaceforms.groups import (QUAT_ONE, GroupConstructionError, Quat,
                               build_binary_polyhedral, cyclic_group,
                               find_index2_subgroup, find_presentation_triple,
                               generator_triple, group_from_json, group_to_json,
                               left_cosets, verify_generator_conjugations)

EXPECT = {3: (24, 7), 4: (48, 8), 5: (120, 9)}


def test_closure_table_is_the_quaternion_product(g2t, g2o, g2i):
    # the BFS records each generator product once; every composed row
    # must still be the product of the stored quaternions
    for G in (g2t, g2o):
        brute = tuple(tuple(G.index[a * b] for b in G.elements)
                      for a in G.elements)
        assert G.mult == brute
    # inverses are read off the table: each is the index of the conjugate,
    # on built, loaded and subgroup instances alike
    for G in (g2t, g2o, g2i):
        loaded = group_from_json(json.loads(json.dumps(group_to_json(G))))
        for K in (G, loaded, G.cyclic_subgroup("T").group, cyclic_group(10)):
            assert K.inv == tuple(K.index[e.conjugate()] for e in K.elements)


def test_spanning_tree_covers_built_loaded_and_subgroup_instances(all_groups):
    for G in all_groups:
        loaded = group_from_json(json.loads(json.dumps(group_to_json(G))))
        for K in (G, loaded, G.cyclic_subgroup("T").group, cyclic_group(10)):
            assert len(K.tree) == len(K) and K.tree[0] is None
            assert all(K.mult[K.generators[g]][src] == x
                       for x, (g, src) in list(K.tree.items())[1:])
        # a build enumerates by the same walk, over quaternions
        for K in (G, cyclic_group(10)):
            assert list(K.tree) == list(range(len(K)))


def test_adopting_a_triple_rebuilds_the_tree(g2o):
    K = find_index2_subgroup(g2o).group
    assert K.tree == {0: None}          # no generators yet
    A = groups.adopt_presentation_triple(K, 2, 3, 3)
    assert len(A.tree) == len(A)
    assert {g for g, _ in list(A.tree.values())[1:]} <= {"R", "S", "T"}
    assert K.tree == {0: None} and K.generators == {}    # K is unchanged


def test_orders_and_class_counts(all_groups):
    for G in all_groups:
        n = G.presentation[2]
        assert len(G) == EXPECT[n][0]
        assert G.num_classes == EXPECT[n][1]


def test_presentation_relations_exact(all_groups):
    for G in all_groups:
        l, m, n = G.presentation
        R, S, T = (G.generators[k] for k in ("R", "S", "T"))
        rst = G.mult[G.mult[R][S]][T]
        assert rst == G.neg_identity_index
        assert G.power(R, l) == rst
        assert G.power(S, m) == rst
        assert G.power(T, n) == rst
        assert G.mult[rst][rst] == G.identity_index
        assert G.orders[R] == 2 * l
        assert G.orders[S] == 2 * m
        assert G.orders[T] == 2 * n


def test_generator_orders_2i(g2i):
    assert g2i.orders[g2i.generators["T"]] == 10


def test_central_classes_are_singletons(all_groups):
    for G in all_groups:
        assert G.class_sizes[G.class_of[G.identity_index]] == 1
        assert G.class_sizes[G.class_of[G.neg_identity_index]] == 1


def test_class_equation(all_groups):
    for G in all_groups:
        assert sum(G.class_sizes) == len(G)
        for s in G.class_sizes:
            assert len(G) % s == 0


def test_tetrahedral_cross_linking(g2t):
    t, inv = g2t.mult, g2t.inv
    S, T = g2t.generators["S"], g2t.generators["T"]
    assert g2t.class_of[S] == g2t.class_of[inv[T]]
    assert g2t.class_of[t[S][S]] == g2t.class_of[inv[t[T][T]]]
    # but [T] != [T^-1] there (no reflection within the T circle)
    assert g2t.class_of[T] != g2t.class_of[inv[T]]


def test_mult_table_rows_and_columns_are_permutations(all_groups):
    for G in all_groups:
        n = len(G)
        full = set(range(n))
        for i in range(n):
            assert set(G.mult[i]) == full
        for j in range(0, n, max(1, n // 16)):
            assert {G.mult[i][j] for i in range(n)} == full


def test_associativity(g2t, g2i):
    n = len(g2t)
    t = g2t.mult
    for a in range(n):
        for b in range(n):
            row = t[t[a][b]]
            arow = t[a]
            brow = t[b]
            for c in range(n):
                assert row[c] == arow[brow[c]]
    rng = random.Random(5)
    t = g2i.mult
    for _ in range(2000):
        a, b, c = (rng.randrange(120) for _ in range(3))
        assert t[t[a][b]][c] == t[a][t[b][c]]


def test_element_order_equals_eigenvalue_order(all_groups):
    for G in all_groups:
        for i, e in enumerate(G.elements):
            m = G.orders[i]
            assert 120 % m == 0
            trace = e.trace()
            hit = None
            for a in range(m):
                if root_of_unity(m, a) + root_of_unity(m, -a) == trace:
                    hit = a
                    break
            assert hit is not None
            from math import gcd
            pair_order = m // gcd(hit, m) if hit else 1
            assert pair_order == m


def test_cyclic_subgroups(all_groups):
    for G in all_groups:
        l, m, n = G.presentation
        assert G.cyclic_subgroup("R").order == 2 * l
        assert G.cyclic_subgroup("S").order == 2 * m
        assert G.cyclic_subgroup("T").order == 2 * n
        H = G.cyclic_subgroup("RST")
        assert H.order == 2
        assert set(H.member_indices) == {G.identity_index, G.neg_identity_index}


def test_cyclic_subgroups_meet_every_class(all_groups):
    for G in all_groups:
        met = set()
        for gen in ("R", "S", "T"):
            gi = G.generators[gen]
            for j in range(G.orders[gi]):
                met.add(G.class_of[G.power(gi, j)])
        assert met == set(range(G.num_classes))


def test_left_cosets(g2t):
    H = g2t.cyclic_subgroup("T")
    dec = left_cosets(g2t, H)
    assert dec.count == 4
    seen = set()
    for g in range(len(g2t)):
        ri, h = dec.coset_of[g]
        assert g2t.mult[dec.representatives[ri]][h] == g
        seen.add(g)
    assert len(seen) == 24
    whole = g2t.subgroup(range(24))
    assert left_cosets(g2t, whole).count == 1
    triv = g2t.subgroup([g2t.identity_index])
    assert left_cosets(g2t, triv).count == 24


def test_index2_subgroup(g2t, g2o, g2i):
    H = find_index2_subgroup(g2o)
    assert H.order == 24
    assert H.group.num_classes == 7
    with pytest.raises(LookupError):
        find_index2_subgroup(g2i)
    with pytest.raises(LookupError):
        find_index2_subgroup(g2t)


def test_generator_conjugations(g2t, g2o, g2i):
    for name, ok, _ in verify_generator_conjugations(g2t):
        assert ok, name
    for name, ok, _ in verify_generator_conjugations(g2o):
        assert ok, name
    # for the icosahedral group the quoted witness U = S R S^-1 fails;
    # exhaustive search over all presentation triples shows no triple
    # satisfies it, so the report must flag exactly that item
    report = {name: ok for name, ok, _ in verify_generator_conjugations(g2i)}
    assert report["no S/T class fusion"] is True
    assert report["U^-1 T^-1 U = T with U = S R S^-1"] is False


def test_icosahedral_inverting_element_exists(g2i):
    # [T] = [T^-1] in 2I: some element conjugates T^-1 to T, just not
    # the quoted witness
    t, inv = g2i.mult, g2i.inv
    T = g2i.generators["T"]
    assert any(t[t[inv[u]][inv[T]]][u] == T for u in range(len(g2i)))


def test_presentation_triple_search(g2o):
    K = find_index2_subgroup(g2o).group
    r, s, t = find_presentation_triple(K, 2, 3, 3)
    assert K.orders[r] == 4 and K.orders[s] == 6 and K.orders[t] == 6
    assert K.mult[K.mult[r][s]][t] == K.neg_identity_index


def test_bad_presentation_rejected():
    with pytest.raises(ValueError):
        build_binary_polyhedral(6)
    with pytest.raises(GroupConstructionError):
        # non-unit generator constants must be caught immediately
        groups.FiniteGroup.from_generators("bad", {"X": Quat(
            QUAT_ONE.w * 2, QUAT_ONE.x, QUAT_ONE.y, QUAT_ONE.z)})


def test_a_product_that_leaves_the_lattice_raises():
    # w = 1/4: its square has w = 1/16, which is not (p + q sqrt d)/4
    quarter = (1, 0, 0, 0, 0, 0, 0, 0)
    for d in (1, 2, 5):
        with pytest.raises(ArithmeticError, match="leaves the lattice"):
            groups.lattice_mul(quarter, quarter, d)
    # cos(pi/6) = sqrt 3 / 2 is on none of them, and sqrt 5 is not on 2T's
    with pytest.raises(ArithmeticError, match="off the lattice"):
        groups.lattice_quat(cyclic_group(12).elements[1], 5)
    with pytest.raises(ArithmeticError, match="off the lattice"):
        groups.lattice_quat(generator_triple(5)[2], 1)


def test_cached_triple_whose_product_leaves_the_lattice_is_refused(all_groups):
    # R = 1/4: R*S is off the lattice, and the loader names the field
    for G in all_groups:
        doc = group_to_json(G)
        doc["generators"]["R"] = [1] + [0] * 7
        with pytest.raises(ValueError, match="^field 'generators' .* leaves the lattice"):
            group_from_json(doc)


def test_cyclic_groups():
    for q in (q for q in range(1, 121) if 120 % q == 0):
        Z = cyclic_group(q)
        assert len(Z) == q
        assert Z.num_classes == q
        if q % 2 == 0 and q > 1:
            assert Z.class_labels[q // 2] == "-E"
    with pytest.raises(ValueError):
        cyclic_group(7)


def test_serialization_roundtrip(g2t, tmp_path):
    doc = group_to_json(g2t)
    text = json.dumps(doc)
    G2 = group_from_json(json.loads(text))
    assert len(G2) == len(g2t)
    assert G2.mult == g2t.mult
    assert G2.class_labels == g2t.class_labels
    assert G2.generators == g2t.generators
    path = tmp_path / "g.json"
    groups.save_group(g2t, str(path))
    G3 = groups.load_group(str(path))
    assert G3.mult == g2t.mult


# SHA-256 and length of json.dumps(group_to_json(G)): the golden digests
# hash stdout only, so a build that reordered the elements or wrote a
# coordinate another way would pass them
CACHE_DOCUMENTS = {
    "2T": ("bfa88c11fea62bcf119290825055bf19fe801fb8ed711c5797e7b1b1004cbd6a", 194),
    "2O": ("335f7cec272f05d5906eea08b083e682b7e591d72e6269da4a483b8d550d388e", 193),
    "2I": ("c4f9a395190eb4c9c09ff1fd2560729b4227c5fbead1278afaf53951b7fc1789", 195),
}


def test_cache_documents_are_pinned(all_groups):
    for G in all_groups:
        text = json.dumps(group_to_json(G))
        assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == \
            CACHE_DOCUMENTS[G.name]


def test_cache_documents_hold_no_class_data(all_groups):
    # the loader builds the group from R, S and T, so a document stores
    # nothing else, and a field it does not read changes nothing
    facts = lambda G: (G.name, G.elements, G.mult, G.generators, G.presentation,
                       G.classes, G.class_labels)
    for G in all_groups:
        doc = group_to_json(G)
        assert sorted(doc) == ["generators", "kind", "name", "presentation", "schema"]
        assert sorted(doc["generators"]) == ["R", "S", "T"]
        extra = {**doc, "class_labels": list(G.class_labels)}
        loaded = group_from_json(doc)
        assert facts(loaded) == facts(group_from_json(extra)) == facts(G)
        assert loaded is not G and groups._BUILD_CACHE[G.presentation[2], 0] is G


def test_alternate_triple_gives_same_structure():
    # downstream data must not depend on which valid triple was chosen
    for n in (3, 4, 5):
        A = build_binary_polyhedral(n, variant=0)
        B = build_binary_polyhedral(n, variant=1)
        assert len(A) == len(B)
        assert A.num_classes == B.num_classes
        assert sorted(A.class_sizes) == sorted(B.class_sizes)
        ra, sa, ta = generator_triple(n, 0)
        rb, sb, tb = generator_triple(n, 1)
        assert (ra, sa, ta) != (rb, sb, tb)


def test_adopt_presentation_triple_resets_class_indexed_caches(g2o):
    # adopting generators reorders the classes, so the adopted group must
    # start without the class-indexed caches of the group it came from
    # (here a spin character built before the adoption), which keeps them
    from spaceforms import spectra
    from spaceforms.characters import spin_character
    K = find_index2_subgroup(g2o).group
    chi3 = spin_character(K, 3)
    A = groups.adopt_presentation_triple(K, 2, 3, 3)
    assert [spectra.degeneracy(A, "2s", n) for n in range(4)] == [0, 2, 0, 0]
    assert spin_character(A, 1).values == tuple(
        A.elements[rep].trace() for rep in A.class_reps)
    assert spin_character(K, 3) is chi3 and K.presentation is None


def test_group_document_shape_errors_name_the_field(g2t):
    good = group_to_json(g2t)
    R = good["generators"]["R"]
    for field, value in (("name", 5),
                         ("presentation", 3),
                         ("presentation", [2, 3, 6]),
                         ("presentation", [2, 2, 3]),
                         ("presentation", [2, 3, 3.0]),
                         ("generators", [0]),
                         ("generators", {"R": R, "S": R}),
                         ("generators", {**good["generators"], "RST": R}),
                         ("generators", {**good["generators"], "R": R[:7]}),
                         ("generators", {**good["generators"], "R": R[:7] + ["0"]}),
                         ("generators", {**good["generators"], "R": R[:7] + [1.0]}),
                         ("generators", {**good["generators"], "R": R[:7] + [True]}),
                         ("generators", {"R": 1, "S": 2, "T": 3})):
        with pytest.raises(ValueError, match=f"^field '{field}' is not "):
            group_from_json({**good, field: value})
    for field in ("name", "presentation", "generators"):
        doc = dict(good)
        del doc[field]
        with pytest.raises(ValueError, match=f"^field '{field}' is not present"):
            group_from_json(doc)
    # each is well formed and fails one check of the build
    for check, doc in _documents_failing_one_build_check(g2t):
        with pytest.raises(ValueError, match=f"^field 'generators' is not .*{check}"):
            group_from_json(doc)


def _documents_failing_one_build_check(G):
    good = group_to_json(G)
    lattice = lambda x: list(groups.lattice_quat(G.elements[x], 1))
    t, inv, neg = G.mult, G.inv, G.neg_identity_index
    S, T = G.generators["S"], G.generators["T"]
    # R*S*T is not R^2: another R of order 4
    r = next(x for x in range(len(G)) if G.orders[x] == 4 and t[t[x][S]][T] != neg)
    yield r"R\^2 = RST fails", {**good, "generators": {**good["generators"],
                                                         "R": lattice(r)}}
    # T^4 is not RST: 2T's triple under 2O's presentation
    yield r"T\^n = RST fails", {**good, "presentation": [2, 3, 4]}
    # RST is E: T of order 3, S = T^-1 and R = E satisfy every relation
    y = next(x for x in range(len(G)) if G.orders[x] == 3)
    yield "RST = -E fails", {**good, "generators": {
        "R": lattice(0), "S": lattice(inv[y]), "T": lattice(y)}}


def test_every_unit_change_of_a_stored_integer_is_refused(all_groups):
    # 24 integers per document, each moved by +1 and by -1: 144 documents,
    # each refused by a check of the build (or an off-lattice product) and
    # reported as a usage error naming the field
    refused = 0
    for G in all_groups:
        good = group_to_json(G)
        for k in ("R", "S", "T"):
            for i in range(8):
                for delta in (1, -1):
                    v = list(good["generators"][k])
                    v[i] += delta
                    doc = {**good, "generators": {**good["generators"], k: v}}
                    with pytest.raises(ValueError, match="^field 'generators' is not "):
                        group_from_json(doc)
                    refused += 1
    assert refused == 144


def test_save_group_keeps_the_old_file_when_the_dump_fails(g2t, g2o,
                                                           tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    groups.save_group(g2t, str(path))
    before = path.read_bytes()

    def broken_dump(doc, fh):
        fh.write(json.dumps(doc)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(groups.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        groups.save_group(g2o, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]
    monkeypatch.undo()
    assert groups.load_group(str(path)).mult == g2t.mult
