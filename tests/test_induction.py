import pytest

from spaceforms import groups, induction
from spaceforms._reference_tables import REFERENCE_INDUCTIONS
from spaceforms.characters import (ClassFunction, character_table,
                                   inner_product_int, regular_character,
                                   trivial_character)
from spaceforms.exactnum import ONE
from spaceforms.groups import (ContractViolation, adopt_presentation_triple,
                               find_index2_subgroup, group_from_json,
                               group_to_json)
from spaceforms.induction import (MonomialRep, column_sum_is_regular,
                                  frobenius_multiplicity, induce_character,
                                  induce_in_stages, induce_twist,
                                  induced_matrices, induction_table,
                                  independent_rows, nested_handle)


def test_reference_tables_reproduced(all_groups):
    for G in all_groups:
        for gen, rows in REFERENCE_INDUCTIONS[G.name].items():
            table = induction_table(G, gen)
            for r, expected in enumerate(rows):
                assert table[r].as_dict() == expected, (G.name, gen, r)


def test_column_sums_are_regular(all_groups):
    for G in all_groups:
        for gen in ("R", "S", "T", "RST"):
            assert column_sum_is_regular(G, gen)


def test_induction_from_whole_group_is_identity(g2t):
    whole = g2t.subgroup(range(len(g2t)), name="whole")
    chi = character_table(g2t)["3"].char
    sub = whole.group
    transported = type(chi)(sub, (chi.value_on_element(sub.to_parent[rep])
                                  for rep in sub.class_reps))
    assert induce_character(whole, transported) == chi


def test_induction_from_trivial_subgroup_is_regular(all_groups):
    for G in all_groups:
        triv = G.subgroup([G.identity_index], name="triv")
        got = induce_character(triv, trivial_character(triv.group))
        assert got == regular_character(G)


def test_frobenius_reciprocity_examples(g2t, g2i):
    assert frobenius_multiplicity("3", g2t.cyclic_subgroup("T"), 2) == 1
    assert frobenius_multiplicity("6s", g2i.cyclic_subgroup("T"), 5) == 2
    for G in (g2t, g2i):
        for gen in ("R", "S", "T", "RST"):
            assert frobenius_multiplicity("1", G.cyclic_subgroup(gen), 0) == 1


def test_frobenius_reciprocity_exhaustive(all_groups):
    # both sides of the reciprocity identity for every irrep, subgroup
    # and twist (the helper raises on any mismatch)
    for G in all_groups:
        table = character_table(G)
        for gen in ("R", "S", "T", "RST"):
            H = G.cyclic_subgroup(gen)
            for r in range(H.order):
                for ir in table:
                    frobenius_multiplicity(ir.name, H, r)


def test_dimension_bookkeeping(all_groups):
    for G in all_groups:
        for gen in ("R", "S", "T", "RST"):
            H = G.cyclic_subgroup(gen)
            for row in induction_table(G, gen):
                assert row.induced_dimension == len(G) // H.order


def test_reflection_identities(all_groups):
    for G in all_groups:
        for gen in ("R", "S", "T", "RST"):
            rows = [row.constituents for row in induction_table(G, gen)]
            refl = [(r, -r % len(rows), rows[r] == rows[-r % len(rows)])
                    for r in range(len(rows))]
            if G.name == "2T" and gen in ("S", "T"):
                # cross-linked: the reflection pairs the S and T columns
                # instead of folding each column onto itself
                assert not all(ok for _, _, ok in refl)
            else:
                assert all(ok for _, _, ok in refl)


def test_tetrahedral_s_column_is_reflected_t_column(g2t):
    ts = induction_table(g2t, "S")
    tt = induction_table(g2t, "T")
    for r in range(6):
        assert ts[r].as_dict() == tt[(6 - r) % 6].as_dict()


def test_independent_rows_match_ceasing_convention(g2o):
    rows = induction_table(g2o, "T")
    assert independent_rows(rows) == [0, 1, 2, 3, 4]
    rows = induction_table(g2o, "S")
    assert independent_rows(rows) == [0, 1, 2, 3]
    rows = induction_table(g2o, "R")
    assert independent_rows(rows) == [0, 1, 2]


def test_induce_in_stages_through_index2(g2o):
    K = find_index2_subgroup(g2o)
    H = g2o.cyclic_subgroup("S")
    assert set(H.member_indices) <= set(K.member_indices)
    res = induce_in_stages(g2o, K, H, 4)
    assert res["equal"]
    # name the middle stage with K's table under a searched (2,3,3) triple:
    # the adopted group has K's elements in K's order, so the character
    # carries over element by element
    A = adopt_presentation_triple(K.group, 2, 3, 3)
    middle = ClassFunction(A, map(res["middle"].value_on_element, A.class_reps))
    ktab = character_table(A)
    middle = {ir.name: inner_product_int(ir.char, middle) for ir in ktab}
    assert {k: v for k, v in middle.items() if v} == {"1''": 1, "3": 1}
    gtab = character_table(g2o)
    final = {ir.name: inner_product_int(ir.char, res["staged"]) for ir in gtab}
    assert {k: v for k, v in final.items() if v} == {"2": 1, "3": 1, "3'": 1}


def test_induce_in_stages_trivial_chain(all_groups):
    for G in all_groups:
        triv = G.subgroup([G.identity_index], name="triv")
        K = G.cyclic_subgroup("T")
        res = induce_in_stages(G, K, triv, 0)
        assert res["equal"]
        assert res["direct"] == regular_character(G)


def test_induce_in_stages_center_inside_cyclic(all_groups):
    for G in all_groups:
        H = G.cyclic_subgroup("RST")
        for K_gen in ("R", "S", "T"):
            K = G.cyclic_subgroup(K_gen)
            for r in (0, 1):
                res = induce_in_stages(G, K, H, r)
                assert res["equal"], (G.name, K_gen, r)


def test_nested_handle_rejects_non_subsets(g2o):
    K = g2o.cyclic_subgroup("R")
    H = g2o.cyclic_subgroup("S")
    with pytest.raises(ValueError):
        nested_handle(K, H)


def test_monomial_rep_structure(g2t):
    rep = induced_matrices(g2t, "R", 1)
    assert rep.degree == 6 and rep.block_dim == 1
    # D(S) sends block column i to block row perm[i] with the 1x1 block
    # B(h_i): one nonzero entry per row and column, each a root of unity
    perm, hs = rep.data[g2t.generators["S"]]
    assert sorted(perm) == list(range(6))
    for h in hs:
        ((value,),) = rep.blocks[h]
        assert value * value.conjugate() == ONE


def test_monomial_rep_homomorphism_exhaustive(g2t):
    for gen in ("R", "S", "T", "RST"):
        H = g2t.cyclic_subgroup(gen)
        for r in range(H.order):
            rep = induced_matrices(g2t, gen, r)
            assert all(rep.is_homomorphic_at(a, b)
                       for a in range(24) for b in range(24))
            assert rep.character() == induce_character(H, r)


def test_monomial_rep_regular_from_trivial(g2t):
    triv = g2t.subgroup([g2t.identity_index], name="triv")
    rep = induced_matrices(g2t, triv, 0)
    assert rep.degree == 24
    assert rep.character() == regular_character(g2t)
    assert rep.character().value_on_element(g2t.identity_index).as_integer() == 24


def test_block_monomial_rep_with_2dim_inducing_rep(g2t):
    # generic block construction: induce an exact two-dimensional rep of
    # the central subgroup (diag of two odd twists)
    from spaceforms.exactnum import ZERO
    H = g2t.cyclic_subgroup("RST")
    sub = H.group
    e_idx, neg_idx = sub.to_parent[0], sub.to_parent[1]
    blocks = {e_idx: ((ONE, ZERO), (ZERO, ONE)),
              neg_idx: ((-ONE, ZERO), (ZERO, -ONE))}
    rep = induced_matrices(g2t, H, blocks)
    assert rep.degree == 24 and rep.block_dim == 2
    assert all(rep.is_homomorphic_at(a, b)
               for a in range(24) for b in range(24))
    doubled = induce_character(H, 1) * 2
    assert rep.character() == doubled


def test_monomial_rep_rejects_non_homomorphism(g2t):
    H = g2t.cyclic_subgroup("RST")
    sub = H.group
    bad = {sub.to_parent[0]: ((ONE,),),
           sub.to_parent[1]: ((ONE + ONE,),)}   # 2 is not a root of unity
    with pytest.raises(ValueError):
        MonomialRep(g2t, H, bad, 1)


def test_a_twist_on_a_group_out_of_power_order_is_rejected(g2t):
    # omega^r is read as zeta_q^(rj) on element j, a homomorphism exactly
    # when element j is g^j: <T> of 2T with g^2 and g^5 swapped, or with
    # no distinguished generator, is refused for every twist
    H = g2t.cyclic_subgroup("T")
    powers = H.group.to_parent
    swapped = groups.SubgroupHandle(g2t, H.member_indices, generator_index=powers[1])
    swapped._group = groups.FiniteGroup._from_parent(
        g2t, [powers[j] for j in (0, 1, 5, 3, 4, 2)], "swapped", cyclic=True)
    assert swapped.group.class_of[2] == 5
    plain = g2t.subgroup(H.member_indices)
    assert "g" not in plain.group.generators
    for K in (swapped, plain):
        for r in range(H.order):
            with pytest.raises(ValueError,
                               match="^inducing map is not a homomorphism on H$"):
                MonomialRep.from_cyclic_twist(g2t, K, r)
    assert all(induced_matrices(g2t, H, r).degree == 4 for r in range(H.order))


def test_monomial_verification_rejects_one_corrupted_entry(g2i, monkeypatch):
    # D(E) = 1 and D(x) D(s) = D(xs) for every x and generator s imply
    # all |G|^2 products, so one wrong entry is caught anywhere, also on
    # elements the trace check never reads
    assert induction.verify_monomial_rep(g2i, "S", 1)
    H = g2i.cyclic_subgroup("S")
    h = H.generator_index
    unread = [g for g in range(len(g2i)) if g not in g2i.class_reps][:3]
    for g in unread:
        for kind in ("block", "coset"):
            rep = induced_matrices(g2i, "S", 1)
            perm, hs = rep.data[g]
            if kind == "block":
                bad = (perm, (g2i.mult[hs[0]][h],) + hs[1:])
            else:
                bad = ((perm[1], perm[0]) + perm[2:], hs)
            rep.data = rep.data[:g] + (bad,) + rep.data[g + 1:]
            assert rep.character() == induce_character(H, 1)
            monkeypatch.setattr(induction, "induced_matrices",
                                lambda G, gen, r, rep=rep: rep)
            assert not induction.verify_monomial_rep(g2i, "S", 1), (g, kind)
            monkeypatch.undo()


def test_monomial_verification_checks_more_than_one_generator(g2i, monkeypatch):
    # D'(x) = D(-x) on one left coset of <s> that holds no class
    # representative keeps D'(E) = 1, the character and D'(x) D'(s) =
    # D'(xs) for all x; D(-E) = -1 for r = 1, so the products with the
    # other generators are wrong
    H = g2i.cyclic_subgroup("S")
    neg = g2i.neg_identity_index
    for name in ("R", "S", "T"):
        s, powers = g2i.generators[name], g2i.cyclic_subgroup(name).member_indices
        coset = next(c for c in ({g2i.mult[x][h] for h in powers}
                                 for x in range(len(g2i)))
                     if not c & set(g2i.class_reps))
        rep = induced_matrices(g2i, "S", 1)
        rep.data = tuple(rep.data[g2i.mult[neg][x]] if x in coset else d
                         for x, d in enumerate(rep.data))
        assert rep.character() == induce_character(H, 1)
        assert all(rep.is_homomorphic_at(x, s) for x in range(len(g2i)))
        monkeypatch.setattr(induction, "induced_matrices",
                            lambda G, gen, r, rep=rep: rep)
        assert not induction.verify_monomial_rep(g2i, "S", 1), name
        monkeypatch.undo()


def test_a_failed_product_names_the_first_pair(g2i, monkeypatch):
    # a corrupted block on an element no class representative reads keeps
    # the trace, so the verdict fails on the products, naming the first x
    # in index order and a generator s with D(x) D(s) != D(xs)
    H = g2i.cyclic_subgroup("S")
    g = next(g for g in range(len(g2i)) if g not in g2i.class_reps)
    rep = induced_matrices(g2i, "S", 1)
    perm, hs = rep.data[g]
    rep.data = (rep.data[:g] + ((perm, (g2i.mult[hs[0]][H.generator_index],) + hs[1:]),)
                + rep.data[g + 1:])
    monkeypatch.setattr(induction, "induced_matrices", lambda G, gen, r: rep)
    verdict = induction.verify_monomial_rep(g2i, "S", 1)
    assert not verdict
    prefix = "D(x) D(s) != D(xs) at x = "
    assert verdict.witness.startswith(prefix)
    x, s = verdict.witness[len(prefix):].split(", s = ")
    x = int(x)
    assert not rep.is_homomorphic_at(x, g2i.generators[s])
    assert all(rep.is_homomorphic_at(y, g2i.generators[t])
               for y in range(x) for t in ("R", "S", "T"))
    monkeypatch.undo()
    verdict = induction.verify_monomial_rep(g2i, "S", 1)
    assert verdict and verdict.witness == ""


def test_regular_rep_splits_over_the_center(all_groups):
    # Ind from {E} = Ind from {E,-E} of the two central characters
    for G in all_groups:
        H = G.cyclic_subgroup("RST")
        split = induce_character(H, 0) + induce_character(H, 1)
        assert split == regular_character(G)


def test_induced_span_is_full_rank(all_groups):
    from spaceforms.theorems import _induced_span_rank
    for G in all_groups:
        assert _induced_span_rank(G, ("R", "S", "T")) == G.num_classes


def test_dropping_t_loses_rank_on_2i(g2i):
    from spaceforms.theorems import _induced_span_rank
    assert _induced_span_rank(g2i, ("R", "S")) < g2i.num_classes


def test_induce_twist_checks_both_routes_once_per_key(g2t, monkeypatch):
    # a fresh copy has no decompositions yet: the first call for a key
    # still runs and compares both routes, and a failure is not kept
    G = group_from_json(group_to_json(g2t))
    trivial = trivial_character(G)
    real_restrict = induction.restrict
    monkeypatch.setattr(induction, "restrict",
                        lambda chi, H: real_restrict(trivial, H))
    with pytest.raises(ContractViolation, match="disagree"):
        induce_twist(G, "T", 1)
    monkeypatch.undo()
    real_induce = induction.induce_character
    monkeypatch.setattr(induction, "induce_character",
                        lambda H, chi: real_induce(H, 0))
    with pytest.raises(ContractViolation, match="disagree"):
        induce_twist(G, "T", 1)
    monkeypatch.undo()
    dec = induce_twist(G, "T", 1)
    assert dec.as_dict() == induce_twist(g2t, "T", 1).as_dict()
    assert induce_twist(G, "T", 1 + G.cyclic_subgroup("T").order) is dec
    assert G._induced_twists == {("T", 1): dec}


def test_induced_character_is_computed_once_per_key(g2t, monkeypatch):
    # induce_twist and verify_monomial_rep read one Ind(omega^r) per
    # (gen, r mod q), whichever runs first; a fresh copy computes its own
    G = group_from_json(group_to_json(g2t))
    q = G.cyclic_subgroup("T").order
    calls = []
    real_induce = induction.induce_character
    monkeypatch.setattr(induction, "induce_character",
                        lambda H, chi: calls.append(chi) or real_induce(H, chi))
    assert induction.verify_monomial_rep(G, "T", 1)
    assert induce_twist(G, "T", 1 + q) == induce_twist(g2t, "T", 1)
    assert induction.verify_monomial_rep(G, "T", 1 - q)
    assert len(calls) == 1
    G = group_from_json(group_to_json(g2t))
    induce_twist(G, "T", 1)
    assert len(calls) == 2
