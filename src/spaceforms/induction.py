"""Induced characters, Frobenius reciprocity, induction tables, and
explicit induced representation matrices.

Induced decompositions are always computed twice: once through
Frobenius reciprocity (subduction inner products on the subgroup) and
once through the induced-character formula on the big group.  The two
routes must agree exactly; each validates the other and the class
transport maps.

What does not depend on the induced character is paid once: the
formula sums the character over H once, class by class, and the
explicit matrices of every twist from one subgroup share one coset
action, whose product check runs once on it.  A twist omega^r is a
homomorphism on the cyclic H when H is in power order, which one walk
over the powers of its generator checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import (ClassFunction, character_table, cyclic_character,
                         inner_product_int, regular_character, restrict)
from .exactnum import ONE, ZERO
from .groups import ContractViolation, FiniteGroup, SubgroupHandle, left_cosets


def _coerce_subgroup_character(H: SubgroupHandle, chi) -> ClassFunction:
    if isinstance(chi, int):
        return cyclic_character(H, chi)
    if isinstance(chi, ClassFunction):
        if chi.group is not H.group:
            raise ValueError("character does not live on this subgroup")
        return chi
    raise TypeError(f"cannot interpret {chi!r} as a character of {H.name}")


def induce_character(H: SubgroupHandle, chi) -> ClassFunction:
    """(Ind chi)(c) = |G| / (|c| |H|) sum_{h in H cap c} chi(h), one pass
    over H.  This is (1/|H|) sum_{x in G} chi_dot(x^-1 g x) with chi_dot
    extended by zero off H: as x runs over G, x^-1 g x meets each element
    of the class c of g exactly |G|/|c| times.  So Ind chi is Galois-stable
    when chi is: (x^-1 g^s x) = (x^-1 g x)^s lies in H exactly when
    x^-1 g x does."""
    G = H.parent
    chi = _coerce_subgroup_character(H, chi)
    sums = [ZERO] * G.num_classes
    for pos, p in enumerate(H.group.to_parent):
        c = G.class_of[p]
        sums[c] = sums[c] + chi.value_on_element(pos)
    return ClassFunction(G, (acc / Fraction(size * H.order, len(G))
                             for acc, size in zip(sums, G.class_sizes)),
                         chi.stable or None)


def _twist_character(G: FiniteGroup, gen: str, r: int) -> ClassFunction:
    """Ind(omega^r) from <gen> for r reduced mod q, kept on G per key."""
    if (gen, r) not in G._induced_characters:
        G._induced_characters[gen, r] = induce_character(G.cyclic_subgroup(gen), r)
    return G._induced_characters[gen, r]


def frobenius_multiplicity(A, H: SubgroupHandle, chi) -> int:
    """n(A, Ind chi), computed on both sides of the reciprocity identity
    <A, Ind chi>_G = <Sub A, chi>_H; the two must agree exactly."""
    G = H.parent
    table = character_table(G)
    irrep = table[A] if isinstance(A, str) else A
    chi = _coerce_subgroup_character(H, chi)
    big = inner_product_int(irrep.char, induce_character(H, chi))
    small = inner_product_int(restrict(irrep.char, H), chi)
    if big != small:
        raise ContractViolation(
            f"reciprocity mismatch for {irrep.name}: "
            f"Ind side {big} != Sub side {small}")
    return big


@dataclass(frozen=True)
class InducedDecomposition:
    """Decomposition of Ind(omega^r) from a cyclic subgroup."""
    group_name: str
    generator: str
    twist: int
    subgroup_order: int
    constituents: tuple   # ((IrrepLabel, multiplicity), ...) in table order

    @property
    def induced_dimension(self) -> int:
        return sum(label.dimension * m for label, m in self.constituents)

    def as_dict(self) -> dict:
        return {label.name: m for label, m in self.constituents}

    def render(self) -> str:
        parts = []
        for label, m in self.constituents:
            parts.append(label.name if m == 1 else f"{m}x{label.name}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return f"{self.twist}^({self.generator}) = {self.render()}"


def induce_twist(G: FiniteGroup, gen: str, r: int) -> InducedDecomposition:
    """Decompose Ind(omega^r) from the cyclic subgroup <gen> of G, via
    reciprocity cross-checked against the induced-character formula.

    Kept on G per (gen, r mod q): only the first call for a key runs
    the two routes and the dimension bookkeeping."""
    H = G.cyclic_subgroup(gen)
    q = H.order
    r %= q
    if (gen, r) in G._induced_twists:
        return G._induced_twists[gen, r]
    table = character_table(G)
    chi = cyclic_character(H, r)
    induced = _twist_character(G, gen, r)
    via_formula = {ir.name: inner_product_int(ir.char, induced) for ir in table}
    via_reciprocity = {ir.name: inner_product_int(restrict(ir.char, H), chi)
                       for ir in table}
    if via_formula != via_reciprocity:
        del G._induced_characters[gen, r]      # a failed key keeps nothing
        raise ContractViolation(
            f"induced-character formula and reciprocity disagree for "
            f"{r}^({gen}) on {G.name}")
    consts = tuple((ir.label, via_formula[ir.name]) for ir in table
                   if via_formula[ir.name])
    dec = InducedDecomposition(G.name, gen, r, q, consts)
    if dec.induced_dimension * q != len(G):
        raise ContractViolation(
            f"dimension bookkeeping fails for {r}^({gen}): "
            f"{dec.induced_dimension} * {q} != {len(G)}")
    G._induced_twists[gen, r] = dec
    return dec


def induction_table(G: FiniteGroup, gen: str) -> list[InducedDecomposition]:
    """All rows r = 0..q-1 for the cyclic subgroup <gen>.

    Twist indices are kept un-collapsed: rows r and q-r coincide when gen
    is conjugate to its inverse, and in the tetrahedral group the T and S
    rows pair across the two subgroups instead."""
    H = G.cyclic_subgroup(gen)
    return [induce_twist(G, gen, r) for r in range(H.order)]


def independent_rows(rows: list[InducedDecomposition]) -> list[int]:
    """Indices of first occurrences, mirroring tables that cease when
    repetitions begin."""
    seen = {}
    out = []
    for r, row in enumerate(rows):
        if row.constituents not in seen:
            seen[row.constituents] = r
            out.append(r)
    return out


def render_all_columns(G: FiniteGroup) -> str:
    """Aligned text table: one row per twist r, one column per cyclic
    generator T, S, R, entries ceasing once a column starts repeating."""
    gens = ("T", "S", "R")
    columns = {gen: induction_table(G, gen) for gen in gens}
    keep = {gen: set(independent_rows(rows)) for gen, rows in columns.items()}
    height = max(max(keep[gen]) for gen in gens) + 1
    grid = [["r^"] + list(gens)]
    for r in range(height):
        row = [str(r)]
        for gen in gens:
            if r < len(columns[gen]) and r in keep[gen]:
                row.append(columns[gen][r].render())
            else:
                row.append("-")
        grid.append(row)
    widths = [max(len(line[c]) for line in grid) for c in range(len(grid[0]))]
    return "\n".join("   ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in grid)


def column_sum(G: FiniteGroup, gen: str) -> ClassFunction:
    """The sum of Ind omega^r over the complete column r = 0..q-1."""
    total = ClassFunction(G, (ZERO,) * G.num_classes)
    for r in range(G.cyclic_subgroup(gen).order):
        total = total + _twist_character(G, gen, r)
    return total


def column_sum_is_regular(G: FiniteGroup, gen: str) -> bool:
    """Adding the complete column of inductions gives the regular rep."""
    return column_sum(G, gen) == regular_character(G)


def nested_handle(K: SubgroupHandle, H: SubgroupHandle) -> SubgroupHandle:
    """Re-express H <= G as a subgroup of K.group, given H <= K <= G."""
    if K.parent is not H.parent:
        raise ValueError("subgroups live in different parents")
    kset = set(K.member_indices)
    if not set(H.member_indices) <= kset:
        raise ValueError("H is not contained in K")
    sub = K.group
    inner_members = [sub.from_parent[p] for p in H.member_indices]
    inner_gen = (sub.from_parent[H.generator_index]
                 if H.generator_index is not None else None)
    return SubgroupHandle(sub, inner_members, generator_index=inner_gen,
                          name=f"{H.name}<in>{K.name}")


def induce_in_stages(G: FiniteGroup, K: SubgroupHandle, H: SubgroupHandle,
                     chi) -> dict:
    """Check Ind_{H->G} chi = Ind_{K->G}(Ind_{H->K} chi) exactly."""
    if K.parent is not G or H.parent is not G:
        raise ValueError("subgroup chain must live in G")
    chi = _coerce_subgroup_character(H, chi)
    direct = induce_character(H, chi)
    inner = nested_handle(K, H)
    base, rebased = H.group, inner.group
    chi_inner = ClassFunction(
        rebased,
        (chi.value_on_element(base.index[rebased.elements[rep]])
         for rep in rebased.class_reps))
    middle = induce_character(inner, chi_inner)
    staged = induce_character(K, middle)
    return {
        "direct": direct,
        "middle": middle,
        "staged": staged,
        "equal": direct == staged,
    }


class CosetAction:
    """How G permutes the left cosets g_i H of a subgroup H: for every g,
    the targets j(i) and the factors h_i in g g_i = g_j(i) h_i.  Neither
    depends on the representation induced from H, so `coset_action`
    keeps one action per (G, H) for every twist."""

    def __init__(self, G: FiniteGroup, H: SubgroupHandle):
        self.cosets = left_cosets(G, H)
        n = self.cosets.count
        t = G.mult
        data = []
        for g in range(len(G)):
            target, hvals = zip(*(self.cosets.coset_of[t[g][gi]]
                                  for gi in self.cosets.representatives))
            if sorted(target) != list(range(n)):
                raise ContractViolation("coset action is not a permutation")
            data.append((target, hvals))
        self.data = tuple(data)
        self.checked = None     # the data object whose product check passed


def coset_action(G: FiniteGroup, H: SubgroupHandle) -> CosetAction:
    if H.member_indices not in G._coset_actions:
        G._coset_actions[H.member_indices] = CosetAction(G, H)
    return G._coset_actions[H.member_indices]


class MonomialRep:
    """Explicit induced representation in the coset-block basis.

    For a degree-d inducing rep B of H with chosen left-coset
    representatives g_i, the block (j, i) of D(g) is nonzero only when
    g_j^-1 g g_i lands in H, where it equals B(g_j^-1 g g_i).  For
    one-dimensional B every row and column carries exactly one nonzero
    entry, a root of unity.  `data` holds, per g, the coset targets and
    H-factors of the shared `CosetAction`.
    """

    def __init__(self, G: FiniteGroup, H: SubgroupHandle, block_matrices,
                 block_dim: int):
        self.group = G
        self.subgroup = H
        self.block_dim = block_dim
        self.blocks = block_matrices     # parent h index -> d x d CycloNum rows
        self._verify_inducing_homomorphism()
        self.action = coset_action(G, H)
        self.degree = self.action.cosets.count * block_dim
        self.data = self.action.data

    def _verify_inducing_homomorphism(self):
        par = self.subgroup.parent
        for a in self.subgroup.member_indices:
            for b in self.subgroup.member_indices:
                ab = par.mult[a][b]
                if _mat_mul(self.blocks[a], self.blocks[b]) != self.blocks[ab]:
                    raise ValueError("inducing map is not a homomorphism on H")
        if self.blocks[par.identity_index] != _identity_matrix(self.block_dim):
            raise ValueError("inducing map does not send E to the identity")

    @staticmethod
    def from_cyclic_twist(G: FiniteGroup, H: SubgroupHandle,
                          r: int) -> "MonomialRep":
        """Induced from omega^r on the cyclic subgroup H."""
        chi = cyclic_character(H, r)
        blocks = {p: ((chi.value_on_class(pos),),)
                  for pos, p in enumerate(H.group.to_parent)}
        return _CyclicTwistRep(G, H, blocks, 1)

    def compose(self, g1: int, g2: int):
        """The (perm, h) data of D(g1) D(g2) by the block product rule."""
        t = self.group.mult
        p1, h1 = self.data[g1]
        p2, h2 = self.data[g2]
        perm = tuple(p1[p2[i]] for i in range(len(p2)))
        hs = tuple(t[h1[p2[i]]][h2[i]] for i in range(len(p2)))
        return perm, hs

    def is_homomorphic_at(self, g1: int, g2: int) -> bool:
        """D(g1) D(g2) == D(g1 g2), compared through the unique coset
        factorization (hence exact)."""
        return self.compose(g1, g2) == self.data[self.group.mult[g1][g2]]

    def character(self) -> ClassFunction:
        vals = []
        for rep in self.group.class_reps:
            perm, hs = self.data[rep]
            acc = ZERO
            for i, j in enumerate(perm):
                if i == j:
                    block = self.blocks[hs[i]]
                    for a in range(self.block_dim):
                        acc = acc + block[a][a]
            vals.append(acc)
        return ClassFunction(self.group, vals)


class _CyclicTwistRep(MonomialRep):
    """Ind omega^r from a cyclic H, whose block on element j of H.group is
    the value zeta_q^(rj) of omega^r on class j."""

    def _verify_inducing_homomorphism(self):
        """omega^r is a homomorphism exactly when element j of H.group is
        g^j and lies in class j, with g^q = E: then B(g^a) B(g^b) =
        zeta_q^(r(a+b)) = B(g^(a+b mod q)) and B(E) = 1.  One walk over
        the powers of g replaces the |H|^2 products."""
        if not _in_power_order(self.subgroup.group):
            raise ValueError("inducing map is not a homomorphism on H")


def _in_power_order(sub: FiniteGroup) -> bool:
    """Whether element j of the cyclic group `sub` is g^j and lies in
    class j for every j, and g^q = E (Z1 holds only E)."""
    g, cur = sub.generators.get("g", 0), 0
    for j in range(len(sub)):
        if cur != j or sub.class_of[cur] != j:
            return False
        cur = sub.mult[cur][g]
    return cur == 0


def _identity_matrix(d: int):
    return tuple(tuple(ONE if a == b else ZERO for b in range(d))
                 for a in range(d))


def _mat_mul(A, B):
    """Exact product of two matrices given as row sequences."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B))
                 for row in A)


@dataclass(frozen=True)
class MonomialVerdict:
    """What `verify_monomial_rep` found: true on a pass; on a failure,
    `witness` names the first class or product that is wrong."""
    witness: str = ""

    def __bool__(self):
        return not self.witness


def verify_monomial_rep(G: FiniteGroup, gen: str, r: int) -> MonomialVerdict:
    """Homomorphism property of the induced matrices on all |G|^2
    products, and exactness of the trace against the induced character
    on every class.

    D(E) is the identity and D(x) D(s) = D(xs) is checked for every x and
    every generator s on an edge of G's spanning tree; once the tree
    covers G, each element is a word in those generators, so
    D(a) D(b) = D(ab) follows for all pairs.  That check reads only the
    rep's coset data, which every twist from <gen> shares: a pass is kept
    on the shared action for the data object it read, so it runs once
    per (G, gen), and a rep carrying other data is checked on its own."""
    rep = induced_matrices(G, gen, r)
    trace = rep.character()
    want = _twist_character(G, gen, r % rep.subgroup.order)
    if trace != want:
        return MonomialVerdict(next(
            f"[{label}]: trace {a} != Ind w^r {b}"
            for label, a, b in zip(G.class_labels, trace.values, want.values)
            if a != b))
    if rep.data is not rep.action.checked:
        e, n = G.identity_index, rep.action.cosets.count
        if rep.data[e] != (tuple(range(n)), (e,) * n):
            return MonomialVerdict("D(E) is not the identity")
        if len(G.tree) != len(G):
            return MonomialVerdict(f"the generators reach {len(G.tree)} of "
                                   f"{len(G)} elements")
        names = sorted({name for name, _ in filter(None, G.tree.values())})
        bad = next(((x, s) for x in range(len(G)) for s in names
                    if not rep.is_homomorphic_at(x, G.generators[s])), None)
        if bad is not None:
            return MonomialVerdict("D(x) D(s) != D(xs) at x = {}, s = {}".format(*bad))
        rep.action.checked = rep.data
    return MonomialVerdict()


def induced_matrices(G: FiniteGroup, gen_or_handle, B) -> MonomialRep:
    """Explicit induced matrices for an inducing rep of a subgroup.

    `B` may be a cyclic twist index (for a cyclic subgroup named by its
    generator) or a mapping from parent element indices of H to d x d
    CycloNum matrices."""
    H = (G.cyclic_subgroup(gen_or_handle) if isinstance(gen_or_handle, str)
         else gen_or_handle)
    if isinstance(B, int):
        return MonomialRep.from_cyclic_twist(G, H, B)
    blocks = {p: tuple(tuple(row) for row in mat) for p, mat in B.items()}
    d = len(next(iter(blocks.values())))
    return MonomialRep(G, H, blocks, d)
