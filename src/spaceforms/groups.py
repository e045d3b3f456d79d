"""Binary polyhedral groups as exact unit quaternions.

The groups <l,m,n>: R^l = S^m = T^n = RST for (l,m,n) = (2,3,3), (2,3,4),
(2,3,5) are enumerated by closure from explicit quaternion generators
whose coordinates live in Q(zeta_120).  Everything downstream (classes,
characters, inductions, spectra) works from the integer multiplication
table built here, so group construction also validates the presentation
relations exactly before returning.  A group is a value: nothing changes
its generators, presentation or classes after construction
(`adopt_presentation_triple` returns a new group).

Every coordinate of 2T, 2O and 2I under the shipped triples is
(p + q sqrt d)/4 with p and q integers: d = 5 on 2I (the icosians), d = 2
on 2O and q = 0 on 2T (the Hurwitz units); see Conway and Smith, On
Quaternions and Octonions (2003), ch. 5.  So the build walks integer
8-tuples on that lattice, and each product divides an integer form by 4
exactly or raises.  The fact is checked, not assumed: the lattice reader
compares all 32 coefficients of a coordinate with its (p, q) on the
generators of a build.  A cache document stores only R, S and T in that
lattice form, so loading one is a build from them, with every check a
build makes.

The generator constants below are not taken on trust: any triple passing
the relation checks is acceptable, and `generator_triple(..., variant=1)`
provides a second valid triple per group so invariance of downstream
results under the choice can be tested.
"""

from __future__ import annotations

import functools
import operator
import os

from .exactnum import CONDUCTOR, DEGREE, CycloNum, ONE, ZERO, root_of_unity


class GroupConstructionError(Exception):
    """Raised when generator constants fail the presentation relations."""


class ContractViolation(Exception):
    """An internal exact identity that must hold failed; indicates a bug."""


class Quat:
    """Quaternion with CycloNum coordinates in the basis 1, i, j, k."""

    __slots__ = ("w", "x", "y", "z", "_hash")

    def __init__(self, w, x, y, z):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quat is immutable")

    def __mul__(self, o: "Quat") -> "Quat":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = o.w, o.x, o.y, o.z
        return Quat(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __neg__(self):
        return Quat(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "Quat":
        return Quat(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> CycloNum:
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def is_unit(self) -> bool:
        return self.norm() == ONE

    def trace(self) -> CycloNum:
        """Trace of the corresponding SU(2) matrix, i.e. 2w."""
        return self.w * 2

    def __eq__(self, o):
        if not isinstance(o, Quat):
            return NotImplemented
        return (self.w == o.w and self.x == o.x
                and self.y == o.y and self.z == o.z)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.w, self.x, self.y, self.z))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Quat({self.w}, {self.x}, {self.y}, {self.z})"


QUAT_ONE = Quat(ONE, ZERO, ZERO, ZERO)


def _cos_sin(q: int) -> tuple[CycloNum, CycloNum]:
    """Exact cos(2*pi/q), sin(2*pi/q) for q dividing the conductor."""
    z = root_of_unity(q, 1)
    zb = root_of_unity(q, -1)
    c = (z + zb) / 2
    s = (zb - z) * root_of_unity(4, 1) / 2     # (z - 1/z) / 2i
    return c, s


def _least_rotation(t: Quat, n: int) -> bool:
    """tr T = 2cos(pi/n): T is the rotation by the least angle, the
    convention the classical irrep names assume.  The other inner class
    of triples has tr T = 2cos(3pi/n) on 2O and 2I."""
    return (n > 0 and CONDUCTOR % (2 * n) == 0
            and t.w == (root_of_unity(2 * n, 1) + root_of_unity(2 * n, -1)) / 2)


def _half(*coords) -> Quat:
    return Quat(*(c / 2 for c in coords))


# -- the lattice Z[sqrt d]/4 ------------------------------------------
#
# A lattice quaternion is the 8-tuple (p_w, q_w, p_x, q_x, p_y, q_y, p_z,
# q_z) of integers, each coordinate (p + q sqrt d)/4.  With d = 1 the
# reader finds q = 0: sqrt 1 has no irrational coefficient to read q off.

_SQRT = {1: ONE, 2: root_of_unity(8, 1) + root_of_unity(8, -1),
         5: (root_of_unity(5, 1) + root_of_unity(5, -1)) * 2 + 1}
if any(r * r != d or r.den != 1 for d, r in _SQRT.items()):
    raise ArithmeticError("a square root in the lattice table is wrong")
# per d: the coefficients of sqrt d and the first irrational one
_SQRT_COEFFS = {d: (r.num, next((k for k in range(1, DEGREE) if r.num[k]), 0))
                for d, r in _SQRT.items()}


def radicand(n: int) -> int:
    """d of the lattice that holds <2,3,n>: 2 on 2O, 5 on 2I, and 1
    (rational coordinates) on 2T or any other presentation."""
    return {4: 2, 5: 5}.get(n, 1)


@functools.lru_cache(maxsize=None)
def _lattice_pair(num: tuple, den: int, d: int) -> tuple[int, int]:
    """(p, q) with num/den = (p + q sqrt d)/4: q and p are read off one
    irrational coefficient of sqrt d and off the rational one, then all 32
    coefficients are compared in integers."""
    root, k = _SQRT_COEFFS[d]
    q = 4 * num[k] // (den * root[k]) if k else 0
    p = (4 * num[0] - den * q * root[0]) // den
    want = [den * q * r for r in root]
    want[0] += den * p
    if [4 * a for a in num] != want:
        raise ArithmeticError(f"a coordinate is off the lattice Z[sqrt {d}]/4")
    return p, q


def lattice_quat(e: Quat, d: int) -> tuple[int, ...]:
    """The lattice form of e; ArithmeticError when a coordinate is off it."""
    return tuple(v for c in (e.w, e.x, e.y, e.z)
                 for v in _lattice_pair(c.num, c.den, d))


@functools.lru_cache(maxsize=None)
def _lattice_number(p: int, q: int, d: int) -> CycloNum:
    root = _SQRT_COEFFS[d][0]
    return CycloNum((p + q * root[0], *(q * r for r in root[1:])), 4)


def lattice_to_quat(a: tuple[int, ...], d: int) -> Quat:
    """The `Quat` of a lattice quaternion, one `CycloNum` per (p, q) pair."""
    return Quat(*(_lattice_number(a[i], a[i + 1], d) for i in (0, 2, 4, 6)))


def lattice_mul(a: tuple[int, ...], b: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The product of two lattice quaternions.  It is an integer bilinear
    form over 16, so it is on the lattice only when that form divides by
    4 exactly; ArithmeticError when it does not."""
    pw, qw, px, qx, py, qy, pz, qz = a
    Pw, Qw, Px, Qx, Py, Qy, Pz, Qz = b
    w = (pw * Pw - px * Px - py * Py - pz * Pz
         + d * (qw * Qw - qx * Qx - qy * Qy - qz * Qz))
    w_ = pw * Qw + qw * Pw - px * Qx - qx * Px - py * Qy - qy * Py - pz * Qz - qz * Pz
    x = (pw * Px + px * Pw + py * Pz - pz * Py
         + d * (qw * Qx + qx * Qw + qy * Qz - qz * Qy))
    x_ = pw * Qx + qw * Px + px * Qw + qx * Pw + py * Qz + qy * Pz - pz * Qy - qz * Py
    y = (pw * Py - px * Pz + py * Pw + pz * Px
         + d * (qw * Qy - qx * Qz + qy * Qw + qz * Qx))
    y_ = pw * Qy + qw * Py - px * Qz - qx * Pz + py * Qw + qy * Pw + pz * Qx + qz * Px
    z = (pw * Pz + px * Py - py * Px + pz * Pw
         + d * (qw * Qz + qx * Qy - qy * Qx + qz * Qw))
    z_ = pw * Qz + qw * Pz + px * Qy + qx * Py - py * Qx - qy * Px + pz * Qw + qz * Pw
    if (w | w_ | x | x_ | y | y_ | z | z_) & 3:
        raise ArithmeticError(f"a product leaves the lattice Z[sqrt {d}]/4")
    return w >> 2, w_ >> 2, x >> 2, x_ >> 2, y >> 2, y_ >> 2, z >> 2, z_ >> 2


def _is_lattice_unit(a: tuple[int, ...], d: int) -> bool:
    """Norm 1: sum of (p + q sqrt d)^2 over the coordinates is 16."""
    p, q = a[0::2], a[1::2]
    return (sum(x * x for x in p) + d * sum(y * y for y in q) == 16
            and sum(map(operator.mul, p, q)) == 0)


def generator_triple(n: int, variant: int = 0) -> tuple[Quat, Quat, Quat]:
    """A quaternion triple (R, S, T) satisfying R^2 = S^3 = T^n = RST.

    variant 1 gives a second valid triple with different axes, used to
    check that downstream results do not depend on the choice.
    """
    if n == 3:
        if variant == 0:
            s = _half(ONE, ONE, ONE, -ONE)
            t = _half(ONE, ONE, ONE, ONE)
        else:
            s = _half(ONE, ONE, ONE, ONE)
            t = _half(ONE, ONE, -ONE, ONE)
        return s * t, s, t
    if n == 4:
        r2 = _SQRT[2]
        s = _half(ONE, ONE, ONE, ONE)
        if variant == 0:
            t = Quat(r2 / 2, r2 / 2, ZERO, ZERO)
        else:
            t = Quat(r2 / 2, ZERO, r2 / 2, ZERO)
        return s * t, s, t
    if n == 5:
        tau = (_SQRT[5] + 1) / 2    # golden ratio
        tinv = tau - 1
        t = _half(tau, ONE, tinv, ZERO)
        s = _half(ONE, ONE, ONE, ONE) if variant == 0 else _half(ONE, ONE, ONE, -ONE)
        return s * t, s, t
    raise ValueError(f"no binary polyhedral group <2,3,{n}>")


def _walk(start, gens, step):
    """Breadth-first walk from `start`, one generator at a time over each
    frontier, so every node is in exactly one frontier.  Returns the
    nodes in discovery order, each node's parent (generator position,
    source position), None for `start`, and each generator's action as a
    list: action[k][x] is the position of step(gens[k], nodes[x])."""
    nodes, index, parent = [start], {start: 0}, [None]
    action = [[] for _ in gens]
    done = 0
    while done < len(nodes):
        frontier, done = range(done, len(nodes)), len(nodes)
        for k, g in enumerate(gens):
            for x in frontier:
                p = step(g, nodes[x])
                if p not in index:
                    index[p] = len(nodes)
                    nodes.append(p)
                    parent.append((k, x))
                action[k].append(index[p])
        if len(nodes) > 10000:
            raise GroupConstructionError("closure did not terminate")
    return nodes, parent, action


def _closure(gens, one=QUAT_ONE, step=operator.mul):
    """Walk from the identity `one` by left multiplication, `step(g, x)`.
    Returns the elements in discovery order, every element's
    left-multiplication row (composed along the walk's tree, so only the
    |gens|*|G| quaternion products of the walk itself are needed) and each
    generator's index."""
    elements, parent, action = _walk(one, gens, step)
    left = [list(range(len(elements)))]
    for k, src in parent[1:]:
        left.append([action[k][j] for j in left[src]])
    return elements, left, [act[0] for act in action]


class SubgroupHandle:
    """A subgroup given by its member indices inside a parent group."""

    def __init__(self, parent: "FiniteGroup", member_indices, generator_index=None,
                 name: str | None = None):
        members = tuple(sorted(member_indices))
        mset = set(members)
        t = parent.mult
        for a in members:
            if parent.inv[a] not in mset:
                raise ValueError("subgroup not closed under inverse")
            for b in members:
                if t[a][b] not in mset:
                    raise ValueError("subgroup not closed under product")
        if parent.identity_index not in mset:
            raise ValueError("subgroup does not contain the identity")
        self.parent = parent
        self.member_indices = members
        self.generator_index = generator_index
        self.order = len(members)
        self.name = name or f"H{len(members)}"
        self._group = None

    @property
    def group(self) -> "FiniteGroup":
        """The subgroup as a standalone FiniteGroup; its elements keep a
        map back to parent indices via `to_parent`."""
        if self._group is None:
            par = self.parent
            if self.generator_index is not None:
                order_list = [par.identity_index]
                cur = self.generator_index
                while cur != par.identity_index:
                    order_list.append(cur)
                    cur = par.mult[cur][self.generator_index]
                if len(order_list) != self.order:
                    raise ContractViolation("generator does not span the subgroup")
                self._group = FiniteGroup._from_parent(par, order_list, self.name,
                                                       cyclic=True)
            else:
                self._group = FiniteGroup._from_parent(
                    par, list(self.member_indices), self.name)
        return self._group

    def __repr__(self):
        return f"SubgroupHandle({self.name}, order={self.order})"


class CosetDecomposition:
    """Left cosets g_i H with the unique factorization g = g_i * h."""

    def __init__(self, group: "FiniteGroup", subgroup: SubgroupHandle):
        t = group.mult
        members = subgroup.member_indices
        reps = []
        coset_of = [None] * len(group)
        for g in range(len(group)):
            if coset_of[g] is not None:
                continue
            ri = len(reps)
            reps.append(g)
            for h in members:
                e = t[g][h]
                if coset_of[e] is not None:
                    raise ContractViolation("cosets overlap")
                coset_of[e] = (ri, h)
        if len(reps) * subgroup.order != len(group):
            raise ContractViolation("coset count mismatch")
        self.group = group
        self.subgroup = subgroup
        self.representatives = tuple(reps)
        self.coset_of = tuple(coset_of)

    @property
    def count(self) -> int:
        return len(self.representatives)


class FiniteGroup:
    """An enumerated finite subgroup of SU(2).

    Carries the multiplication table, inverses, conjugacy classes with
    canonical labels, and the distinguished generators.  A group is a
    value: `_make` fixes its generators, presentation and classes, and
    derived data (character table, spin characters, subgroups) is cached
    on the instance in caches that start empty and only grow.
    """

    @staticmethod
    def _make(name, elements, mult, generators, presentation=None,
              to_parent=None, from_parent=None) -> "FiniteGroup":
        g = FiniteGroup.__new__(FiniteGroup)
        g.name = name
        g.elements = tuple(elements)
        g.index = {e: i for i, e in enumerate(g.elements)}
        g.mult = tuple(tuple(row) for row in mult)
        g.generators = dict(generators)
        g.presentation = presentation
        g.to_parent = to_parent
        g.from_parent = from_parent
        if g.index[QUAT_ONE] != 0:
            raise ContractViolation("identity must be element 0")
        g.identity_index = 0
        g.neg_identity_index = g.index.get(-QUAT_ONE)
        g.inv = tuple(row.index(0) for row in g.mult)
        g.orders = g._element_orders()
        (g.classes, g.class_of, g.class_labels, g.class_reps, g.class_aliases,
         g.class_by_label) = g._conjugacy()
        g.class_sizes = tuple(map(len, g.classes))
        g._char_table = None
        g._spin_chars = {}          # 2j -> spin character (characters)
        g._power_classes = None     # per Galois generator s, class of rep^s (characters)
        g._oracle_su2 = None        # SU(2) linear-form powers mod p per element (spectra)
        g._oracle_class_sums = {}   # n -> class sums of D^(n/2) mod p (spectra)
        g._cyclic_subgroups = {}
        g._multiplicity_columns = ()    # per table row, (m_0, m_1, ...) (spectra)
        g._induced_twists = {}      # (gen, r mod q) -> decomposition
        g._induced_characters = {}  # (gen, r mod q) -> Ind omega^r
        g._coset_actions = {}       # subgroup members -> CosetAction (induction)
        g._tree = None
        return g

    @staticmethod
    def from_generators(name, gens: dict[str, Quat]):
        for label, gen in gens.items():
            if not gen.is_unit():
                raise GroupConstructionError(
                    f"generator {label} is not a unit quaternion")
        elements, left, at = _closure(list(gens.values()))
        return FiniteGroup._make(name, elements, left, dict(zip(gens, at)))

    @staticmethod
    def _from_parent(parent: "FiniteGroup", parent_indices: list[int], name,
                     cyclic: bool = False):
        if parent.identity_index != parent_indices[0]:
            raise ContractViolation("subgroup ordering must start at identity")
        pos = {p: i for i, p in enumerate(parent_indices)}
        mult = [
            [pos[parent.mult[a][b]] for b in parent_indices]
            for a in parent_indices
        ]
        gens = {"g": 1} if cyclic and len(parent_indices) > 1 else {}
        return FiniteGroup._make(name,
                                 [parent.elements[p] for p in parent_indices],
                                 mult, gens,
                                 to_parent=tuple(parent_indices),
                                 from_parent=pos)

    # -- basic structure ----------------------------------------------

    def __len__(self):
        return len(self.elements)

    def power(self, idx: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[idx], -k)
        out = self.identity_index
        for _ in range(k):
            out = self.mult[out][idx]
        return out

    def _element_orders(self):
        orders = []
        for i in range(len(self.elements)):
            n, cur = 1, i
            while cur != self.identity_index:
                cur = self.mult[cur][i]
                n += 1
            orders.append(n)
        return tuple(orders)

    def _conjugacy(self):
        """Classes in canonical order, class_of, labels, reps, aliases, by_label."""
        n = len(self.elements)
        t, inv = self.mult, self.inv
        class_of_raw = [-1] * n
        raw_classes = []
        for x in range(n):
            if class_of_raw[x] >= 0:
                continue
            cid = len(raw_classes)
            orbit = sorted({t[t[g][x]][inv[g]] for g in range(n)})
            for e in orbit:
                class_of_raw[e] = cid
            raw_classes.append(tuple(orbit))

        # canonical ordering: [E], [-E], then generator-power labels
        order: list[int] = []
        labels: dict[int, str] = {}
        reps: dict[int, int] = {}
        aliases: dict[str, str] = {}

        def claim(cid, label, rep):
            if cid in labels:
                if labels[cid] != label:
                    aliases[label] = labels[cid]
            else:
                labels[cid] = label
                reps[cid] = rep
                order.append(cid)

        gen_names = [g for g in ("R", "S", "T") if g in self.generators]
        if not gen_names and "g" in self.generators:
            # cyclic group: classes in power order so class index = exponent
            gi = self.generators["g"]
            cur = self.identity_index
            for j in range(self.orders[gi]):
                if cur == self.identity_index:
                    label = "E"
                elif cur == self.neg_identity_index:
                    label = "-E"
                else:
                    label = "g" if j == 1 else f"g^{j}"
                claim(class_of_raw[cur], label, cur)
                cur = self.mult[cur][gi]
            gen_names = []
        else:
            claim(class_of_raw[self.identity_index], "E", self.identity_index)
            if self.neg_identity_index is not None:
                claim(class_of_raw[self.neg_identity_index], "-E",
                      self.neg_identity_index)
        # primary labels [gen^j] run to j = l-1 / m-1 / n-1 when the
        # presentation is known; higher powers only record aliases
        jmax = {}
        if self.presentation and len(gen_names) == 3:
            pl, pm, pn = self.presentation
            jmax = {"R": pl - 1, "S": pm - 1, "T": pn - 1}
        for aliases_only in (False, True):
            for gname in gen_names:
                gi = self.generators[gname]
                q = self.orders[gi]
                cur = gi
                for j in range(1, q):
                    central = cur in (self.identity_index, self.neg_identity_index)
                    primary_range = j <= jmax.get(gname, q - 1)
                    if not central and (aliases_only or primary_range):
                        label = gname if j == 1 else f"{gname}^{j}"
                        claim(class_of_raw[cur], label, cur)
                    cur = self.mult[cur][gi]
        for cid in range(len(raw_classes)):
            if cid not in labels:
                e = raw_classes[cid][0]
                claim(cid, f"c{self.orders[e]}_{e}", e)

        remap = {cid: pos for pos, cid in enumerate(order)}
        by_label = {labels[cid]: pos for pos, cid in enumerate(order)}
        for alias, primary in aliases.items():
            by_label.setdefault(alias, by_label[primary])
        return (tuple(raw_classes[cid] for cid in order),
                tuple(remap[class_of_raw[x]] for x in range(n)),
                tuple(labels[cid] for cid in order),
                tuple(reps[cid] for cid in order), aliases, by_label)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def tree(self) -> dict:
        """Spanning tree of the walk from E over the rows of the
        generators R, S, T of a presented group, or g of a cyclic one:
        element -> (generator name, source) with element = generator *
        source, None for E, in discovery order.  It covers the group
        exactly when those generators generate it."""
        if self._tree is None:
            names = [k for k in ("R", "S", "T", "g") if k in self.generators]
            nodes, parent, _ = self._walk_rows(self.generators[k] for k in names)
            self._tree = {x: p and (names[p[0]], nodes[p[1]])
                          for x, p in zip(nodes, parent)}
        return self._tree

    def _walk_rows(self, gens):
        """The walk from E by left multiplication with the elements `gens`."""
        return _walk(0, [self.mult[g] for g in gens], operator.getitem)

    # -- subgroups ----------------------------------------------------

    def cyclic_subgroup(self, gen: str) -> SubgroupHandle:
        if gen in self._cyclic_subgroups:
            return self._cyclic_subgroups[gen]
        if gen not in self.generators:
            raise ValueError(f"group {self.name} has no generator named {gen!r}")
        gi = self.generators[gen]
        members = []
        cur = self.identity_index
        while True:
            members.append(cur)
            cur = self.mult[cur][gi]
            if cur == self.identity_index:
                break
        handle = SubgroupHandle(self, members, generator_index=gi,
                                name=f"{self.name}.<{gen}>")
        self._cyclic_subgroups[gen] = handle
        return handle

    def subgroup(self, member_indices, name=None) -> SubgroupHandle:
        return SubgroupHandle(self, member_indices, name=name)

    def commutator_subgroup(self) -> SubgroupHandle:
        t, inv = self.mult, self.inv
        n = len(self.elements)
        comms = {t[t[t[a][b]][inv[a]]][inv[b]] for a in range(n) for b in range(n)}
        return SubgroupHandle(self, self._walk_rows(comms)[0],
                              name=f"{self.name}.derived")

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={len(self)})"


_BUILD_CACHE: dict[tuple, FiniteGroup] = {}

# The one name table: n of <2,3,n> -> (canonical name, classical alias)
GROUP_NAMES = {3: ("2T", "T'"), 4: ("2O", "O'"), 5: ("2I", "Y'")}


def polyhedral_n(name: str) -> int | None:
    """n of <2,3,n> for a canonical name or alias, None for any other."""
    return next((n for n, names in GROUP_NAMES.items() if name in names), None)


def build_binary_polyhedral(n: int = 3, variant: int = 0) -> FiniteGroup:
    """<2,3,n> from the shipped generator triple, built once per process."""
    if n not in GROUP_NAMES:
        raise ValueError(f"unsupported presentation <2,3,{n}>")
    key = (n, variant)
    if key not in _BUILD_CACHE:
        d = radicand(n)
        name = GROUP_NAMES[n][0] + ("" if variant == 0 else f"#{variant}")
        _BUILD_CACHE[key] = _build(name, n, *(lattice_quat(g, d)
                                              for g in generator_triple(n, variant)))
    return _BUILD_CACHE[key]


def _build(name: str, n: int, R: tuple, S: tuple, T: tuple) -> FiniteGroup:
    """Enumerate <2,3,n> from the lattice quaternions R, S, T and verify
    the presentation relations exactly, all in the lattice Z[sqrt d]/4.
    GroupConstructionError when a check fails, ArithmeticError when a
    product leaves the lattice."""
    d = radicand(n)
    one, mul = lattice_quat(QUAT_ONE, d), functools.partial(lattice_mul, d=d)
    rst = mul(mul(R, S), T)
    for label, q, k in (("R^2", R, 2), ("S^3", S, 3), ("T^n", T, n)):
        if functools.reduce(mul, [q] * k, one) != rst:
            raise GroupConstructionError(
                f"relation {label} = RST fails for <2,3,{n}>")
    # RST = -E is the central element, so (RST)^2 = E
    if rst != lattice_quat(-QUAT_ONE, d):
        raise GroupConstructionError("RST = -E fails")
    if not _least_rotation(lattice_to_quat(T, d), n):
        raise GroupConstructionError(f"T is not the rotation by pi/{n}")

    # RST is named but not walked: the walk order fixes the element order
    nodes, left, (r, s, t) = _closure([R, S, T], one, mul)
    G = FiniteGroup._make(name, [lattice_to_quat(a, d) for a in nodes], left,
                          {"R": r, "S": s, "T": t, "RST": left[left[r][s]][t]},
                          presentation=(2, 3, n))
    # |<2,3,n>| = 4 / (1/2 + 1/3 + 1/n - 1)
    expected_order = 24 * n // (6 - n)
    if len(G) != expected_order:
        raise GroupConstructionError(
            f"closure of <2,3,{n}> has order {len(G)}, "
            f"expected {expected_order}")
    for gname, gorder in (("R", 4), ("S", 6), ("T", 2 * n)):
        if G.orders[G.generators[gname]] != gorder:
            raise GroupConstructionError(f"generator {gname} has wrong order")
    for i, a in enumerate(nodes):
        if not _is_lattice_unit(a, d):
            raise GroupConstructionError("non-unit element in closure")
        if CONDUCTOR % G.orders[i] != 0:
            raise GroupConstructionError(
                "element order does not divide the conductor")
    return G


def binary_polyhedral(name: str) -> FiniteGroup:
    """Build by conventional name 2T / 2O / 2I (aliases T'/O'/Y')."""
    n = polyhedral_n(name)
    if n is None:
        raise ValueError(f"unknown group name {name!r}")
    return build_binary_polyhedral(n)


def cyclic_group(q: int) -> FiniteGroup:
    """Z_q embedded in SU(2) as rotations about the i axis; q | 120."""
    if q <= 0 or CONDUCTOR % q != 0:
        raise ValueError(f"cyclic order {q} must divide {CONDUCTOR}")
    key = ("Zq", q)
    if key in _BUILD_CACHE:
        return _BUILD_CACHE[key]
    if q == 1:
        G = FiniteGroup.from_generators("Z1", {})
    else:
        c, s = _cos_sin(q)
        g = Quat(c, s, ZERO, ZERO)
        G = FiniteGroup.from_generators(f"Z{q}", {"g": g})
        if len(G) != q or G.orders[G.generators["g"]] != q:
            raise GroupConstructionError(f"cyclic generator has wrong order for Z{q}")
    _BUILD_CACHE[key] = G
    return G


def power_order_break(G: FiniteGroup) -> int | None:
    """The first j < |G| at which element j of G is not g^j or class j does
    not hold it, g the distinguished generator (E when G has none); None
    when there is no such j.  Then g^0..g^(|G|-1) are all of G, so g has
    order |G|, and j -> zeta_q^(rj) on class j, or on element j, is the
    character omega^r of the cyclic group G.  Z1 holds only E."""
    g, cur = G.generators.get("g", G.identity_index), G.identity_index
    for j in range(len(G)):
        if cur != j or G.class_of[cur] != j:
            return j
        cur = G.mult[cur][g]
    return None


def left_cosets(G: FiniteGroup, H: SubgroupHandle) -> CosetDecomposition:
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    return CosetDecomposition(G, H)


def find_index2_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """The kernel of the unique surjection onto the 2-element group,
    when it exists (among the three groups, only 2O has one)."""
    derived = G.commutator_subgroup()
    if 2 * derived.order != len(G):
        raise LookupError(f"{G.name} has no index-2 subgroup "
                          f"(abelianization has order {len(G) // derived.order})")
    return derived


def find_presentation_triple(G: FiniteGroup, l: int, m: int, n: int):
    """Search G for element indices (R, S, T) with R^l = S^m = T^n = RST
    and <S,T> = G.  Used to give canonical generators to subgroups that
    arrive without them."""
    if G.neg_identity_index is None:
        raise LookupError("group has no central -E")
    neg = G.neg_identity_index
    cand_s = [i for i in range(len(G)) if G.orders[i] == 2 * m
              and G.power(i, m) == neg]
    cand_t = [i for i in range(len(G)) if G.orders[i] == 2 * n
              and G.power(i, n) == neg]
    for s in cand_s:
        for t in cand_t:
            r = G.mult[s][t]
            if G.power(r, l) != neg:
                continue
            if len(G._walk_rows((s, t))[0]) == len(G):
                return r, s, t
    raise LookupError(f"no presentation triple <{l},{m},{n}> found in {G.name}")


def adopt_presentation_triple(G: FiniteGroup, l: int, m: int, n: int) -> FiniteGroup:
    """G with searched generators R, S, T: a new group on the same
    elements and table, with classes labelled by the new generators.
    G itself is unchanged."""
    r, s, t = find_presentation_triple(G, l, m, n)
    gens = {**G.generators, "R": r, "S": s, "T": t, "RST": G.mult[G.mult[r][s]][t]}
    return FiniteGroup._make(G.name, G.elements, G.mult, gens, presentation=(l, m, n),
                             to_parent=G.to_parent, from_parent=G.from_parent)


def verify_generator_conjugations(G: FiniteGroup) -> list[tuple[str, bool, str]]:
    """Conjugation identities tying the S and T cyclic subgroups together.

    For <2,3,3>: with U = T^-1 R T one has U^-1 T U = S^-1 and the class
    fusions [S] = [T^-1], [S^2] = [T^-2].  For <2,3,4>: U = S R S^-1
    inverts T, U^-1 T^-1 U = T.  For <2,3,5> the same check reports the
    classical write-up's claim as printed, and it fails: the witness
    inverts T for none of the presentation triples, although other
    elements conjugate T^-1 to T.  For both, no S-power class meets a
    T-power class away from the center.
    """
    checks = []
    t, inv = G.mult, G.inv
    R, S, T = (G.generators[k] for k in ("R", "S", "T"))
    n = G.presentation[2]
    if n == 3:
        U = t[t[inv[T]][R]][T]
        lhs = t[t[inv[U]][T]][U]
        checks.append(("U^-1 T U = S^-1 with U = T^-1 R T",
                       lhs == inv[S], f"got element {lhs}"))
        checks.append(("[S] = [T^-1]",
                       G.class_of[S] == G.class_of[inv[T]], ""))
        checks.append(("[S^2] = [T^-2]",
                       G.class_of[t[S][S]] == G.class_of[inv[t[T][T]]], ""))
    else:
        U = t[t[S][R]][inv[S]]
        lhs = t[t[inv[U]][inv[T]]][U]
        checks.append(("U^-1 T^-1 U = T with U = S R S^-1",
                       lhs == T, f"got element {lhs}"))
        s_classes = {G.class_of[G.power(S, j)] for j in range(1, G.orders[S])}
        t_classes = {G.class_of[G.power(T, j)] for j in range(1, G.orders[T])}
        central = {G.class_of[G.identity_index], G.class_of[G.neg_identity_index]}
        overlap = (s_classes & t_classes) - central
        checks.append(("no S/T class fusion", not overlap,
                       f"fused classes: {sorted(overlap)}"))
    return checks


# -- serialization ----------------------------------------------------

SCHEMA = "spaceforms/1"


def _ints(v, length: int) -> bool:
    return isinstance(v, list) and len(v) == length and set(map(type, v)) <= {int}


def _require(ok: bool, field: str, want: str) -> None:
    if not ok:
        raise ValueError(f"field {field!r} is not {want}")


def group_to_json(G: FiniteGroup) -> dict:
    """The cache document of a group built by `build_binary_polyhedral`:
    its name, presentation and R, S, T as lattice quaternions, all that
    the build takes."""
    d = radicand(G.presentation[2])
    return {
        "schema": SCHEMA,
        "kind": "group",
        "name": G.name,
        "presentation": list(G.presentation),
        "generators": {k: list(lattice_quat(G.elements[G.generators[k]], d))
                       for k in ("R", "S", "T")},
    }


def group_from_json(doc: dict) -> FiniteGroup:
    """Build the group of a cache document from its R, S and T, with every
    check of a build; a new group each call, outside `_BUILD_CACHE`."""
    if (not isinstance(doc, dict) or doc.get("schema") != SCHEMA
            or doc.get("kind") != "group"):
        raise ValueError("not a group document")
    for field in ("name", "presentation", "generators"):
        _require(field in doc, field, "present")
    name, pres, gens = doc["name"], doc["presentation"], doc["generators"]
    _require(isinstance(name, str), "name", "a string")
    _require(_ints(pres, 3) and pres[:2] == [2, 3] and pres[2] in GROUP_NAMES,
             "presentation", "[2, 3, n] with n = 3, 4 or 5")
    _require(isinstance(gens, dict) and gens.keys() == {"R", "S", "T"}
             and all(_ints(v, 8) for v in gens.values()),
             "generators", "a map from R, S and T to lattice quaternions, "
             "8 ints (p_w, q_w, ..., p_z, q_z) each")
    try:
        return _build(name, pres[2], *(tuple(gens[k]) for k in ("R", "S", "T")))
    except (GroupConstructionError, ArithmeticError) as exc:
        raise ValueError(f"field 'generators' is not a triple that builds "
                         f"<2,3,{pres[2]}>: {exc}") from None


def save_group(G: FiniteGroup, path: str) -> None:
    """Write the cache file atomically: a failed dump leaves any earlier
    file at `path` untouched."""
    import json    # on use: a run without a cache does not load it
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(group_to_json(G), fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_group(path: str) -> FiniteGroup:
    import json
    with open(path) as fh:
        return group_from_json(json.load(fh))
