import pytest

from spaceforms import groups, mckay
from spaceforms.characters import character_table
from spaceforms.cli import main
from spaceforms.mckay import (class_correspondence, compactified_diagram,
                              export_dot, mckay_graph, relink_matches_mckay)

ADE = {"2T": "E6~", "2O": "E7~", "2I": "E8~"}
ARMS = {"2T": [2, 2, 2], "2O": [1, 3, 3], "2I": [1, 2, 5]}


def test_affine_types(all_groups):
    for G in all_groups:
        g = mckay_graph(G)
        assert g.ade_name == ADE[G.name]
        assert g.arm_lengths() == ARMS[G.name]
        assert g.mark_equation_holds()


def test_marks_are_dimensions(g2i):
    g = mckay_graph(g2i)
    assert sorted(g.marks) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    # affine node (the trivial rep) carries mark 1
    assert g.marks[g.nodes.index("1")] == 1


def test_cyclic_graphs_are_cycles():
    for q in (3, 4, 5, 6, 12):
        Z = groups.cyclic_group(q)
        g = mckay_graph(Z)
        assert g.ade_name == f"A~{q - 1}"
        assert sorted(map(sum, g.adjacency)) == [2] * q
        edges = sum(sum(row) for row in g.adjacency) // 2
        assert edges == q


def test_degenerate_small_cycles():
    g1 = mckay_graph(groups.cyclic_group(1))
    assert g1.ade_name == "A~0" and g1.adjacency == ((2,),)
    g2 = mckay_graph(groups.cyclic_group(2))
    assert g2.ade_name == "A~1"
    assert g2.adjacency == ((0, 2), (2, 0))


def test_bipartite_between_spinor_sectors(g2o):
    from spaceforms.characters import character_table
    table = character_table(g2o)
    g = mckay_graph(g2o)
    spin = {ir.name: ir.label.spinor for ir in table}
    for i, a in enumerate(g.nodes):
        for j, b in enumerate(g.nodes):
            if g.adjacency[i][j]:
                assert spin[a] != spin[b]


def test_compactified_arc_sizes(all_groups):
    for G in all_groups:
        d = compactified_diagram(G)
        l, m, n = G.presentation
        assert sorted(d.arc_sizes.values()) == sorted([l - 1, m - 1, n - 1])
        internal = {lab for arc in d.arcs.values() for lab in arc}
        assert len(internal) + len(d.poles) == G.num_classes


def test_tetrahedral_gluing_emerges(g2t):
    d = compactified_diagram(g2t)
    assert d.reflection == {"R": "self", "S": "T", "T": "S"}
    # the S and T arcs close into one circle through both poles
    circle_nodes = {"E", "-E", "S", "S^2", "T", "T^2"}
    cycle_edges = [e for e in d.edges if set(e) <= circle_nodes]
    assert len(cycle_edges) == 6


def test_no_gluing_for_2o_2i(g2o, g2i):
    assert compactified_diagram(g2o).reflection == \
        {"R": "self", "S": "self", "T": "self"}
    assert compactified_diagram(g2i).reflection == \
        {"R": "self", "S": "self", "T": "self"}


def test_relink_recovers_affine_shape(all_groups):
    keep_expected = {"2T": "R", "2O": "S", "2I": "T"}
    for G in all_groups:
        d = compactified_diagram(G)
        g = mckay_graph(G)
        assert relink_matches_mckay(d, g) == keep_expected[G.name]


def test_class_correspondence(all_groups):
    for G in all_groups:
        cc = class_correspondence(G)
        assert cc["two_to_one"], cc["problems"]
        assert cc["covers_all_nontrivial_classes"]
        for gen in ("R", "S", "T"):
            q = G.orders[G.generators[gen]]
            assert cc["entries"][(gen, 0)] == "E"
            assert cc["entries"][(gen, q // 2)] == "-E"


def test_class_correspondence_pairings(g2o, g2t):
    cc = class_correspondence(g2o)
    assert cc["entries"][("T", 1)] == cc["entries"][("T", 7)] == "T"
    assert cc["cross_linked_generators"] == []
    cc = class_correspondence(g2t)
    assert cc["cross_linked_generators"] == [["S", "T"]]
    # the twist pairs for the fused classes come from different generators
    assert sorted(g for g, _ in cc["pairs"]["S"]) == ["S", "T"]


def test_dot_export_shapes(g2t):
    dot = export_dot(mckay_graph(g2t))
    assert dot.startswith("graph {")
    assert dot.count(" -- ") == 6          # tree with 7 nodes
    assert dot == export_dot(mckay_graph(g2t))   # byte-identical re-export
    z3 = export_dot(mckay_graph(groups.cyclic_group(3)))
    assert z3.count(" -- ") == 3
    d = export_dot(compactified_diagram(g2t))
    assert '"E" -- ' in d or '-- "E"' in d or '"-E"' in d


def test_dot_rejects_unknown():
    with pytest.raises(TypeError):
        export_dot(42)


# -- every mckay verdict can fail, naming a witness -------------------------
# Each test falsifies the fact one verdict reports.  `verify mckay` must then
# FAIL that verdict with a detail and exit 1, not stop on a raise.


def _mckay_verdicts(capsys, family):
    code = main(["verify", "mckay"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if f":mckay:{family}" in line]
    return code, {line.split()[1].split(":")[0]: line for line in lines}


def test_a_false_mark_equation_fails_naming_the_node(monkeypatch, capsys):
    # mark 2 on the trivial node: 2 * 2 != 2, the mark of its neighbour 2s
    real = mckay.McKayGraph

    def first_mark_off(name, nodes, marks, adjacency, ade):
        return real(name, nodes, (marks[0] + 1,) + marks[1:], adjacency, ade)
    monkeypatch.setattr(mckay, "McKayGraph", first_mark_off)
    code, lines = _mckay_verdicts(capsys, "marks")
    assert code == 1
    for name in ("2T", "2O", "2I"):
        assert lines[name] == (f"FAIL  {name}:mckay:marks  "
                               "[node 1: 2 * mark 2 != 2, the sum over its neighbours]")


def test_arc_sizes_off_the_presentation_fail_naming_both(monkeypatch, capsys, g2t):
    # the table is named first, since naming reads the presentation too;
    # T of order 6 leaves 2 internal nodes, where <2,3,7> wants 6
    character_table(g2t)
    monkeypatch.setattr(g2t, "presentation", (2, 3, 7))
    code, lines = _mckay_verdicts(capsys, "arcs")
    assert code == 1
    assert lines["2T"] == "FAIL  2T:mckay:arcs  [arc sizes [1, 2, 2], expected [1, 2, 6]]"
    assert lines["2O"].startswith("PASS") and lines["2I"].startswith("PASS")


def test_a_failed_relink_names_the_wanted_arms(monkeypatch, capsys):
    monkeypatch.setattr(mckay.CompactifiedDiagram, "relink_arm_lengths",
                        lambda self, keep: [])
    code, lines = _mckay_verdicts(capsys, "relink")
    assert code == 1
    for name, arms in ARMS.items():
        assert lines[name] == (f"FAIL  {name}:mckay:relink  "
                               f"[no arc relinks to the McKay arms {arms}]")


def test_a_class_missed_by_the_twists_fails_naming_it(monkeypatch, capsys, g2o):
    # S read as T: the twists of both circles land on the classes of T,
    # and the classes of S receive none
    monkeypatch.setitem(g2o.generators, "S", g2o.generators["T"])
    code, lines = _mckay_verdicts(capsys, "two_to_one")
    assert code == 1
    assert lines["2O"].startswith("FAIL  2O:mckay:two_to_one  [")
    assert "class S receives 0 twists" in lines["2O"]
    assert lines["2T"].startswith("PASS") and lines["2I"].startswith("PASS")
