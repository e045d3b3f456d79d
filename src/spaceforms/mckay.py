"""McKay graphs and the compactified class-version diagram.

The McKay graph has the irreducibles as nodes, adjacency from tensoring
with the defining 2-dimensional representation, and marks equal to the
dimensions.  The adjacency is the one the character table keeps, for a
cyclic group as for 2T, 2O and 2I (`characters`); for the groups here it
is the affine diagram A~_{q-1}, E6~, E7~ or E8~, which is checked through
degree sequences, arm lengths and the mark equation rather than generic
graph isomorphism.

The compactified diagram is the dual, class-side picture: one circle of
cyclic twists per distinguished generator, folded by the reflection
r ~ q-r and merged along the computed class fusion.  Two poles (the
central classes) are joined by three arcs carrying l-1, m-1 and n-1
internal nodes; cutting two of the three arcs loose at the antipodal
pole recovers the affine diagram shape.  The tetrahedral cross-linking
(where the reflection maps the T circle onto the S circle instead of
folding each onto itself) falls out of the computed fusion, not out of
a special case.
"""

from __future__ import annotations

from operator import mul

from .characters import Record, character_table
from .groups import SCHEMA, ContractViolation, FiniteGroup


class McKayGraph(Record, frozen=True):
    group_name: str
    nodes: tuple            # display names
    marks: tuple            # dimensions
    adjacency: tuple        # tuple of tuples, non-negative ints
    ade_name: str

    def neighbour_mark_sums(self) -> list[int]:
        """sum_j A_ij mark_j for every node i; the affine mark equation
        says that it is 2 mark_i."""
        return [sum(map(mul, row, self.marks)) for row in self.adjacency]

    def mark_equation_holds(self) -> bool:
        return self.neighbour_mark_sums() == [2 * m for m in self.marks]

    def arm_lengths(self) -> list[int] | None:
        """Arm lengths from the unique trivalent node (E-type shapes)."""
        return _trivalent_arms(self.adjacency)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "mckay_graph",
            "group": self.group_name,
            "ade": self.ade_name,
            "nodes": [{"name": n, "mark": m}
                      for n, m in zip(self.nodes, self.marks)],
            "adjacency": [list(row) for row in self.adjacency],
        }


def _arm_lengths(neighbours: dict, root) -> list[int]:
    """Sorted lengths of the paths leaving `root` in a graph given as
    node -> neighbours; raises unless every arm is a simple path."""
    arms = []
    for nb in neighbours[root]:
        length, prev, cur = 1, root, nb
        while nxt := [x for x in neighbours[cur] if x != prev]:
            if len(nxt) > 1:
                raise ContractViolation("graph is not a star of paths")
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def _trivalent_arms(adjacency) -> list[int] | None:
    """Arm lengths from the trivalent node, None unless there is exactly one."""
    k = len(adjacency)
    tri = [i for i in range(k) if sum(adjacency[i]) == 3]
    if len(tri) != 1:
        return None
    return _arm_lengths({i: [j for j in range(k) if adjacency[i][j]]
                         for i in range(k)}, tri[0])


def _classify_ade(G: FiniteGroup, adjacency) -> str:
    k = len(adjacency)
    if all(sum(row) == 2 for row in adjacency):
        return f"A~{k - 1}"
    arms = _trivalent_arms(adjacency)
    shapes = {(2, 2, 2): "E6~", (1, 3, 3): "E7~", (1, 2, 5): "E8~"}
    if arms and tuple(arms) in shapes:
        return shapes[tuple(arms)]
    raise ContractViolation(f"McKay graph of {G.name} is not an affine ADE diagram")


def mckay_graph(G: FiniteGroup) -> McKayGraph:
    """The table's McKay adjacency, verified symmetric and classified by
    shape.  The mark equation is the `mckay` verdict's to report
    (`McKayGraph.mark_equation_holds`)."""
    table = character_table(G)
    adjacency = table.adjacency
    k = len(table)
    if adjacency != tuple(zip(*adjacency)):
        raise ContractViolation("McKay adjacency is not symmetric")
    if len(G) > 1 and any(adjacency[i][i] for i in range(k)):
        raise ContractViolation("unexpected self-adjacency in McKay graph")
    marks = [ir.label.dimension for ir in table]
    names = [ir.name for ir in table]
    graph = McKayGraph(G.name, tuple(names), tuple(marks), adjacency,
                       _classify_ade(G, adjacency))
    if G.neg_identity_index is not None:
        spin = [ir.label.spinor for ir in table]
        if any(adjacency[i][j] and spin[i] == spin[j]
               for i in range(k) for j in range(k)):
            raise ContractViolation("McKay graph not bipartite between spinor sectors")
    return graph


class CompactifiedDiagram(Record):
    """Two trivial poles joined by three arcs of fused twist classes.
    Built afresh per call and holding its arcs and reflection as dicts, it
    is a mutable, unhashable record."""
    group_name: str
    poles: tuple                  # ("E", "-E")
    arcs: dict                    # generator -> list of internal class labels
    reflection: dict              # generator -> "self" or the partner generator
    edges: tuple                  # sorted tuple of (label, label) pairs

    @property
    def arc_sizes(self) -> dict:
        return {gen: len(arc) for gen, arc in self.arcs.items()}

    def relink_arm_lengths(self, keep: str) -> list[int]:
        """Cut the two arcs other than `keep` loose at the antipodal
        pole; return the arm lengths of the resulting star at the
        identity pole."""
        drop = [(arc[-1] if arc else self.poles[0], self.poles[1])
                for gen, arc in self.arcs.items() if gen != keep]
        edges = set(self.edges)
        for a, b in drop:
            key = tuple(sorted((a, b)))
            if key not in edges:
                raise ContractViolation(f"expected edge {key} missing")
            edges.discard(key)
        adj: dict[str, list[str]] = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        return _arm_lengths(adj, self.poles[0])

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "compactified_diagram",
            "group": self.group_name,
            "poles": list(self.poles),
            "arcs": {gen: list(arc) for gen, arc in self.arcs.items()},
            "reflection": dict(self.reflection),
            "edges": [list(e) for e in self.edges],
        }


def compactified_diagram(G: FiniteGroup) -> CompactifiedDiagram:
    """Build the class-version diagram from the computed class fusion.

    The arc of a generator of order q is the classes of its twists
    1..q/2 - 1, strictly between the poles; that its size is the
    presentation's l - 1, m - 1 or n - 1 is the `mckay` verdict's to
    report."""
    if not G.presentation:
        raise ValueError("compactified diagram needs the R/S/T presentation")
    label = lambda idx: G.class_labels[G.class_of[idx]]
    edges = set()
    arcs = {}
    reflection = {}
    for gen in ("R", "S", "T"):
        gi = G.generators[gen]
        q = G.orders[gi]
        ring = [label(G.power(gi, j)) for j in range(q)]
        for j in range(q):
            a, b = ring[j], ring[(j + 1) % q]
            if a == b:
                raise ContractViolation("adjacent twists fused to one class")
            edges.add(tuple(sorted((a, b))))
        arcs[gen] = ring[1:q // 2]
        # where does the reflection r -> q-r send this generator's arc?
        partner = None
        for other in ("R", "S", "T"):
            oi = G.generators[other]
            if G.orders[oi] != q:
                continue
            if all(G.class_of[G.power(gi, q - j)] == G.class_of[G.power(oi, j)]
                   for j in range(1, q)):
                partner = "self" if other == gen else other
                break
        if partner is None:
            raise ContractViolation(f"reflection image of the {gen} circle "
                                    "is not a generator circle")
        reflection[gen] = partner
    return CompactifiedDiagram(G.name, ("E", "-E"), arcs, reflection,
                               tuple(sorted(edges)))


def relink_matches_mckay(diagram: CompactifiedDiagram,
                         graph: McKayGraph) -> str | None:
    """The generator whose arc, kept attached at the antipodal pole,
    turns the compactified diagram into the affine shape; None if no
    choice works."""
    want = graph.arm_lengths()
    if want is None:
        return None
    for keep in diagram.arcs:
        try:
            if diagram.relink_arm_lengths(keep) == want:
                return keep
        except ContractViolation:
            continue
    return None


def class_correspondence(G: FiniteGroup) -> dict:
    """The two-to-one map from cyclic twists to conjugacy classes.

    Twists r = 0 and r = q/2 of every generator land on the trivial
    classes [E] and [-E]; each nontrivial class receives exactly two
    (generator, twist) pairs, either r and q-r of the same generator or
    a cross-generator pair where the classes fuse (tetrahedral case)."""
    entries = {}
    hits: dict[str, list] = {}
    for gen in ("R", "S", "T"):
        gi = G.generators[gen]
        q = G.orders[gi]
        for r in range(q):
            lab = G.class_labels[G.class_of[G.power(gi, r)]]
            entries[(gen, r)] = lab
            if r not in (0, q // 2):
                hits.setdefault(lab, []).append((gen, r))
    problems = []
    for gen in ("R", "S", "T"):
        q = G.orders[G.generators[gen]]
        if entries[(gen, 0)] != "E" or entries[(gen, q // 2)] != "-E":
            problems.append(f"{gen}: trivial twists do not land on E/-E")
    nontrivial = [lab for lab in G.class_labels if lab not in ("E", "-E")]
    for lab in nontrivial:
        if len(hits.get(lab, [])) != 2:
            problems.append(f"class {lab} receives {len(hits.get(lab, []))} twists")
    for lab in sorted(hits.keys() - set(nontrivial)):
        problems.append(f"class {lab} receives nontrivial twists {hits[lab]}")
    cross = sorted({tuple(sorted({g for g, _ in pair}))
                    for lab, pair in hits.items() if len({g for g, _ in pair}) > 1})
    return {
        "entries": entries,
        "two_to_one": not problems,
        "problems": problems,
        "pairs": hits,
        "cross_linked_generators": [list(c) for c in cross],
        "covers_all_nontrivial_classes": set(hits) == set(nontrivial),
    }


def export_dot(graph) -> str:
    """Deterministic DOT output for either graph flavour."""
    lines = ["graph {"]
    if isinstance(graph, McKayGraph):
        lines.append(f'  label="{graph.group_name}: {graph.ade_name}";')
        for name, mark in zip(graph.nodes, graph.marks):
            lines.append(f'  "{name}" [label="{name} ({mark})"];')
        k = len(graph.nodes)
        for i in range(k):
            for j in range(i, k):
                for _ in range(graph.adjacency[i][j] if i != j
                               else graph.adjacency[i][j] // 2):
                    lines.append(f'  "{graph.nodes[i]}" -- "{graph.nodes[j]}";')
    elif isinstance(graph, CompactifiedDiagram):
        lines.append(f'  label="{graph.group_name}: compactified class diagram";')
        nodes = ["E", "-E"] + sorted({lab for arc in graph.arcs.values()
                                      for lab in arc})
        for name in nodes:
            lines.append(f'  "{name}";')
        for a, b in graph.edges:
            lines.append(f'  "{a}" -- "{b}";')
    else:
        raise TypeError(f"cannot export {type(graph).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
