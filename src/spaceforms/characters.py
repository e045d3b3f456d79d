"""Class functions and exact character tables.

Character tables of the binary polyhedral groups are derived by the
modular Dixon-Schneider method, with no floating point, seed or
tolerance: the class-sum structure constant matrices are split into
common eigenspaces over GF(p), p = exactnum.PRIME = 241 (the
smallest prime with 120 | p - 1), class by class; each one-dimensional
eigenspace is a central character, which gives chi(1) and the residues
of chi; and the eigenvalue multiplicities of rho(g), integers below p
recovered by a discrete Fourier transform over the power map, give each
value exactly as a sum of roots of unity.  Nothing is trusted until the row
orthogonality relations are verified in exact arithmetic; the column
relations follow from them, since the table is square.  The rows
omega^r of a cyclic group whose classes hold the powers g^j in order are
orthonormal by a geometric sum and take no inner product; a cyclic group
whose classes do not is refused, since those rows would not be characters.
`rref`, the row reduction over GF(p) or Q, also serves the exact solver
in `theorems`.

The names come from the McKay graph (McKay 1980), the adjacency A_ij =
<chi_j, chi_1/2 chi_i> of tensoring with the defining representation:
each node is named by its distance from the trivial character and its
dimension, so 2s is Res chi_1/2 by definition, and the walk must reach
every node (chi_1/2 is faithful).  The classical induction tables are
not read: the `table` verdicts check the names against them.  Every
table, cyclic ones too, keeps its rows' residues mod p and A, read off
them with no inner product, and on first use per class the eigenvalue
counts that Frobenius reciprocity in `induction` reads.

Inner products of characters are rational, and are computed without a
field product.  A class function f is Galois-stable when f(g^s) =
sigma_s(f(g)) on every class for every s prime to 120 (sigma_s: zeta ->
zeta^s); every character is (Isaacs 1976).  For stable a and b, sigma_s
fixes <a, b>, since g -> g^s permutes G, so <a, b> = x is rational and
equals Tr(x)/32, a sum of integer trace forms Tr(conj(a(g)) b(g))
(`exactnum.trace_form`).  Each ClassFunction records whether it is
stable.  A theorem sets the flag on the trivial character, omega^r on a
cyclic group, restrictions, induced characters, conjugates, and sums,
differences, products and rational multiples of flagged functions.  The
exact check `galois_stable` runs once per object on every Dixon row and
on chi_1/2, and on any other function at its first inner product.  A
function that fails it, or a pair with such a function, takes the
CycloNum sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import (CONDUCTOR, DEGREE, PRIME, CycloNum, ONE, ZERO,
                       _primitive_root_of_unity, format_value, reduce_mod_p,
                       root_of_unity, trace_form)
from .groups import (GROUP_NAMES, SCHEMA, ContractViolation, FiniteGroup,
                     SubgroupHandle, _least_rotation, power_order_break)


class TableDerivationError(Exception):
    """The character table could not be derived and verified exactly."""


# zeta -> zeta^s for these s generate Gal(Q(zeta_120)/Q): they generate
# the 32 units mod 120
GALOIS_GENERATORS = (7, 11, 13, 17)


class ClassFunction:
    """A CycloNum-valued function on the conjugacy classes of a group.

    `stable` says whether f is Galois-stable, f(g^s) = sigma_s(f(g)) on
    every class for every s prime to 120, where sigma_s is zeta -> zeta^s:
    True where a theorem or the exact check `galois_stable` proved it,
    False where that check failed, None while unknown."""

    __slots__ = ("group", "values", "stable")

    def __init__(self, group: FiniteGroup, values, stable: bool | None = None):
        values = tuple(values)
        if len(values) != group.num_classes:
            raise ValueError("value vector does not match the class count")
        self.group = group
        self.values = values
        self.stable = stable

    def value_on_class(self, ci: int) -> CycloNum:
        return self.values[ci]

    def value_on_element(self, idx: int) -> CycloNum:
        return self.values[self.group.class_of[idx]]

    def conjugate(self) -> "ClassFunction":
        # sigma_s commutes with complex conjugation, both ways round
        return ClassFunction(self.group, (v.conjugate() for v in self.values),
                             self.stable)

    def _binop(self, other, op):
        """Stable when both operands are proved stable; a scalar operand
        is stable when it is an int or a Fraction."""
        if isinstance(other, ClassFunction):
            if other.group is not self.group:
                raise ValueError("class functions live on different groups")
            return ClassFunction(self.group,
                                 (op(a, b) for a, b in zip(self.values, other.values)),
                                 (self.stable and other.stable) or None)
        rational = isinstance(other, (int, Fraction))
        return ClassFunction(self.group, (op(a, other) for a in self.values),
                             (self.stable and rational) or None)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and other.group is self.group
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.group), self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __repr__(self):
        vals = ", ".join(format_value(v) for v in self.values)
        return f"ClassFunction({self.group.name}: {vals})"


def _power_classes(G: FiniteGroup) -> tuple:
    """Per s in GALOIS_GENERATORS, the class of rep^s for every class,
    kept on G.  Every element order divides 120, so g -> g^s permutes G."""
    if G._power_classes is None:
        G._power_classes = tuple(
            tuple(G.class_of[G.power(rep, s % G.orders[rep])] for rep in G.class_reps)
            for s in GALOIS_GENERATORS)
    return G._power_classes


def galois_stable(f: ClassFunction) -> bool:
    """Whether f(g^s) = sigma_s(f(g)) for every class and every s prime to
    120, checked exactly once per object and kept in `f.stable`.  The
    generators suffice: the s that pass are closed under products, since
    f(g^(st)) = sigma_s(f(g^t)) = sigma_s(sigma_t(f(g)))."""
    if f.stable is None:
        values = f.values
        f.stable = all(values[c] == v.galois(s)
                       for s, classes in zip(GALOIS_GENERATORS, _power_classes(f.group))
                       for v, c in zip(values, classes))
    return f.stable


def inner_product(a: ClassFunction, b: ClassFunction) -> CycloNum:
    """(1/|G|) sum conj(a(g)) b(g), evaluated class-wise and exactly.

    When a and b are both Galois-stable, sigma_s fixes the sum (g -> g^s
    permutes G), so it is a rational x = Tr(x) / 32, and Tr is linear:
    one integer trace form per class, one Fraction in all.  Any other
    pair takes the CycloNum sum."""
    if a.group is not b.group:
        raise ValueError("class functions live on different groups")
    G = a.group
    if galois_stable(a) and galois_stable(b):
        num, den = 0, 1
        for size, va, vb in zip(G.class_sizes, a.values, b.values):
            d = va.den * vb.den
            if den % d:
                num, den = num * d, den * d
            num += size * (den // d) * trace_form(va, vb)
        return CycloNum.from_rational(Fraction(num, den * DEGREE * len(G)))
    acc = ZERO
    for size, va, vb in zip(G.class_sizes, a.values, b.values):
        acc = acc + va.conjugate() * vb * size
    return acc / len(G)


def nonnegative_int(v: CycloNum, what: str) -> int:
    """v as an int, which the program's own exact identities guarantee
    to be a non-negative integer; ContractViolation naming `what` if not."""
    try:
        n = v.as_integer()
    except ValueError:
        raise ContractViolation(f"non-integral {what}: {v}") from None
    if n < 0:
        raise ContractViolation(f"negative {what}: {n}")
    return n


def inner_product_int(a: ClassFunction, b: ClassFunction) -> int:
    """Inner product that must be a non-negative integer (multiplicity)."""
    return nonnegative_int(inner_product(a, b), "multiplicity")


def trivial_character(G: FiniteGroup) -> ClassFunction:
    return ClassFunction(G, (ONE,) * G.num_classes, stable=True)


def regular_character(G: FiniteGroup) -> ClassFunction:
    vals = [ZERO] * G.num_classes
    vals[G.class_of[G.identity_index]] = CycloNum.from_rational(len(G))
    return ClassFunction(G, vals)


def spin_character(G: FiniteGroup, two_j: int) -> ClassFunction:
    """Character of the (2j+1)-dimensional su(2) irrep restricted to G.

    Computed by the Chebyshev-style recurrence chi_k = chi_1 chi_{k-1}
    - chi_{k-2} from chi_1(g) = trace of g as a 2x2 matrix = 2w.
    """
    if two_j < 0:
        raise ValueError("two_j must be >= 0")
    cache = G._spin_chars
    if two_j in cache:
        return cache[two_j]
    if 0 not in cache:
        cache[0] = trivial_character(G)
    if two_j >= 1 and 1 not in cache:
        cache[1] = ClassFunction(G, (G.elements[r].trace() for r in G.class_reps))
        galois_stable(cache[1])
    top = max(cache)
    chi1 = cache.get(1)
    for k in range(top + 1, two_j + 1):
        cache[k] = chi1 * cache[k - 1] - cache[k - 2]
    return cache[two_j]


def cyclic_character(H, r: int) -> ClassFunction:
    """The class function zeta_q^(rj) on class j of a cyclic group (or
    cyclic subgroup handle): omega^r, and so Galois-stable, when class j
    holds g^j for every j (`groups.power_order_break`)."""
    G = H.group if isinstance(H, SubgroupHandle) else H
    q = len(G)
    if G.num_classes != q:
        raise ValueError(f"{G.name} is not cyclic")
    return ClassFunction(G, (root_of_unity(q, r * j) for j in range(q)),
                         power_order_break(G) is None or None)


def restrict(chi: ClassFunction, H: SubgroupHandle) -> ClassFunction:
    """Subduction: transport values through the inclusion H <= G."""
    if H.parent is not chi.group:
        raise ValueError("subgroup does not belong to the function's group")
    sub = H.group
    return ClassFunction(sub, (chi.value_on_element(sub.to_parent[rep])
                               for rep in sub.class_reps), chi.stable or None)


# -- records, irrep labels and the table container ----------------------


class Record:
    """A plain record, the base of this package's result types.

    A subclass's fields are the names it annotates, in order, and a class
    attribute of the same name is that field's default.  A record is built
    from its fields by position or keyword, holds them as its only
    attributes, equals a record of its own class whose fields are equal,
    and shows as `Name(field=value, ...)`.  A subclass declared with
    `frozen=True` refuses assignment and hashes by its fields; any other
    is unhashable, since its fields can change."""

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, "
                            f"not {args!r} and {kwargs!r}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                         f"{type(self).__name__}")


class IrrepLabel(Record, frozen=True):
    """Ordered by (dimension, spinor, primes), the order of the table rows."""
    dimension: int
    spinor: bool
    primes: int

    def __lt__(self, other):
        if type(other) is not IrrepLabel:
            return NotImplemented
        return ((self.dimension, self.spinor, self.primes)
                < (other.dimension, other.spinor, other.primes))

    @property
    def name(self) -> str:
        return f"{self.dimension}{'s' if self.spinor else ''}{chr(39) * self.primes}"

    def __str__(self):
        return self.name


def normalize_irrep_name(name: str) -> str:
    """Case-insensitive, unicode primes mapped to ASCII apostrophes."""
    return (name.strip().lower()
            .replace("′", "'").replace("’", "'").replace("`", "'"))


class Irrep(Record, frozen=True):
    label: IrrepLabel
    char: ClassFunction

    @property
    def name(self) -> str:
        return self.label.name


class CharacterTable:
    """The complete list of irreducible characters with canonical labels;
    once the rows are proven, their residues mod PRIME (`reduce_mod_p`) and
    their McKay adjacency, both in table order."""

    def __init__(self, group: FiniteGroup, irreps):
        self.group = group
        self.irreps = tuple(irreps)
        self.row_by_name = {normalize_irrep_name(ir.name): r
                            for r, ir in enumerate(self.irreps)}
        self._verify_exact()
        self.residues = tuple(tuple(map(reduce_mod_p, ir.char.values))
                              for ir in self.irreps)
        self.adjacency = _mckay_adjacency(group, self.residues)
        self._eigenvalue_counts = {}

    def __iter__(self):
        return iter(self.irreps)

    def __len__(self):
        return len(self.irreps)

    def __getitem__(self, name: str) -> Irrep:
        return self.irreps[self.row(name)]

    def row(self, name: str) -> int:
        """The row of the irrep called `name`, in any case and with any
        prime sign (`normalize_irrep_name`)."""
        key = normalize_irrep_name(name)
        if key not in self.row_by_name:
            valid = ", ".join(ir.name for ir in self.irreps)
            raise KeyError(f"unknown irrep {name!r}; valid names: {valid}")
        return self.row_by_name[key]

    def eigenvalue_counts(self, ci: int) -> tuple:
        """Per irrep in table order, alpha_0..alpha_{o-1} on class ci, o the
        order of its elements g: rho(g) has the eigenvalue zeta_o^e alpha_e
        times, so chi(g^l) = sum_e alpha_e zeta_o^(el) (Dixon, Math. Comp.
        24, 1970).  alpha_e is the multiplicity of that eigenvalue's
        character in Res_<g> chi.  Computed on first use for each class from
        the proven residues, by the discrete Fourier transform that
        `_dixon_characters` runs: alpha_e is an integer in 0..chi(1) < PRIME,
        so its residue is alpha_e exactly, the same proof as `adjacency`."""
        if ci not in self._eigenvalue_counts:
            cls, zeta = _power_walk(self.group, self.group.class_reps[ci],
                                    _primitive_root_of_unity(PRIME), PRIME)
            self._eigenvalue_counts[ci] = tuple(
                tuple(_fourier_counts(row, cls, zeta, PRIME)) for row in self.residues)
        return self._eigenvalue_counts[ci]

    def _verify_exact(self):
        """The table is square, its dimensions, spinor flags and sum of
        squared dimensions are right, and its rows are orthonormal.

        Column orthogonality is not checked again: it follows (Serre,
        Linear Representations of Finite Groups, 2.5).  With X the square
        table and D = diag(|c|/|G|), the rows give X D X* = I, so X is
        invertible and X* X = D^-1.

        On a group of q classes of one element each, rows r = 0..q-1 that
        are j -> zeta_q^(rj) on class j take no inner product:
        <row r, row s> = q^-1 sum_j zeta_q^((s-r)j) = delta_rs, a geometric
        sum, whichever element lies in class j.  Each row is compared with
        that form, q values a row.  Whether such rows are characters is the
        power order that `character_table` checks.  Any other table is
        checked row by row."""
        G = self.group
        k = G.num_classes
        if len(self.irreps) != k:
            raise TableDerivationError("irrep count != class count")
        dimsq = 0
        for ir in self.irreps:
            dim = ir.char.value_on_class(G.class_of[G.identity_index]).as_integer()
            if dim != ir.label.dimension:
                raise TableDerivationError("label dimension mismatch")
            dimsq += dim * dim
            if G.neg_identity_index is not None:
                neg = ir.char.value_on_element(G.neg_identity_index)
                want = -dim if ir.label.spinor else dim
                if neg != CycloNum.from_rational(want):
                    raise TableDerivationError("spinor flag mismatch")
        if dimsq != len(G):
            raise TableDerivationError("sum of squared dimensions != |G|")
        q = len(G)
        if k == q and all(ir.char.values == tuple(root_of_unity(q, r * j) for j in range(q))
                          for r, ir in enumerate(self.irreps)):
            return
        for a in range(k):
            for b in range(a, k):
                got = inner_product(self.irreps[a].char, self.irreps[b].char)
                want = ONE if a == b else ZERO
                if got != want:
                    raise TableDerivationError(
                        f"row orthogonality fails at ({a},{b}): {got}")

    def to_json(self) -> dict:
        G = self.group
        return {
            "schema": SCHEMA,
            "kind": "character_table",
            "group": G.name,
            "classes": [{"label": lab, "size": size, "element_order": G.orders[rep]}
                        for lab, size, rep in zip(G.class_labels, G.class_sizes,
                                                  G.class_reps)],
            "irreps": [{
                "name": ir.name,
                "dimension": ir.label.dimension,
                "spinor": ir.label.spinor,
                "values": [{"num": list(v.num), "den": v.den,
                            "approx": [v.to_complex().real, v.to_complex().imag]}
                           for v in ir.char.values],
            } for ir in self.irreps],
        }

    def to_text(self) -> str:
        G = self.group
        head = [""] + [f"[{lab}]" for lab in G.class_labels]
        rows = [head, ["size"] + [str(s) for s in G.class_sizes]]
        for ir in self.irreps:
            rows.append([ir.name] + [format_value(v) for v in ir.char.values])
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                         for row in rows)


# -- Dixon/Schneider derivation over GF(p) -----------------------------


def _structure_matrices(G: FiniteGroup) -> list[list[list[int]]]:
    """a[i][j][l] with C_i C_j = sum_l a_{ijl} C_l (class sums)."""
    k = G.num_classes
    t, class_of, sizes = G.mult, G.class_of, G.class_sizes
    a = []
    for Ci in G.classes:
        a_i = []
        for Cj in G.classes:
            counts = [0] * k
            for x in Ci:
                row = t[x]
                for y in Cj:
                    counts[class_of[row[y]]] += 1
            if any(c % size for c, size in zip(counts, sizes)):
                raise ContractViolation("class algebra constants not integral")
            a_i.append([c // size for c, size in zip(counts, sizes)])
        a.append(a_i)
    return a


def rref(rows: list[list], p: int | None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over GF(p), or over Q (as Fractions) when
    p is None: (nonzero rows, pivot columns)."""
    if p is None:
        rows = [[Fraction(v) for v in r] for r in rows]
        reduce, reciprocal = (lambda v: v), (lambda v: 1 / v)
    else:
        rows = [[v % p for v in r] for r in rows]
        reduce, reciprocal = (lambda v: v % p), (lambda v: pow(v, -1, p))
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = reciprocal(rows[r][c])
        rows[r] = [reduce(v * inv) for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [reduce(v - f * w) for v, w in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _nullspace(M: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {y : M y = 0} over GF(p)."""
    rows, pivots = rref(M, p)
    n = len(M[0])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        y = [0] * n
        y[f] = 1
        for row, c in zip(rows, pivots):
            y[c] = -row[f] % p
        basis.append(y)
    return basis


def _eigenvalues(R: list[list[int]], p: int) -> list[int]:
    """Roots in GF(p) of det(x I - R), whose coefficients come from the
    Faddeev-LeVerrier recurrence (every k <= dim R is invertible mod p)."""
    m = len(R)
    coeffs = [0] * m + [1]                  # coeffs[i] multiplies x^i
    N = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        N = [[(sum(R[i][t] * N[t][j] for t in range(m))
               + (coeffs[m - k + 1] if i == j else 0)) % p for j in range(m)]
             for i in range(m)]
        trace = sum(R[i][t] * N[t][i] for i in range(m) for t in range(m))
        coeffs[m - k] = -trace * pow(k, -1, p) % p

    def value(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc
    return [x for x in range(p) if value(x) == 0]


def _split(A: list[list[int]], space, p: int) -> list:
    """The eigenspaces mod p of A on an A-invariant subspace, given as
    rows in reduced echelon form with their pivot columns; raises unless
    A is diagonalizable there."""
    rows, pivots = space
    m, k = len(rows), len(rows[0])
    if m == 1:
        return [space]
    # A b_t in coordinates of the basis: its entries at the pivot columns
    R = [[sum(x * y for x, y in zip(A[c], b)) % p for b in rows] for c in pivots]
    if all(v == (R[0][0] if s == t else 0)
           for s, line in enumerate(R) for t, v in enumerate(line)):
        return [space]                      # scalar: nothing to split
    parts = []
    for lam in _eigenvalues(R, p):
        shifted = [[v - lam if s == t else v for t, v in enumerate(line)]
                   for s, line in enumerate(R)]
        parts.append(rref([[sum(y_t * b[l] for y_t, b in zip(y, rows))
                            for l in range(k)] for y in _nullspace(shifted, p)], p))
    if sum(len(part[0]) for part in parts) != m:
        raise TableDerivationError("a class matrix is not diagonalizable mod p")
    return parts


def _power_walk(G: FiniteGroup, rep: int, z: int, p: int) -> tuple:
    """For g = rep of order o: the classes of g^0..g^(o-1), and zeta_o^e
    mod p for e < o, where z is the image of zeta_120 mod p."""
    order, cls, cur = G.orders[rep], [], G.identity_index
    for _ in range(order):
        cls.append(G.class_of[cur])
        cur = G.mult[cur][rep]
    return cls, [pow(z, CONDUCTOR // order * e, p) for e in range(order)]


def _fourier_counts(residues, cls, zeta, p: int) -> list[int]:
    """alpha_e = o^-1 sum_l chi(g^l) zeta_o^(-el) mod p for e < o, from the
    residues of chi per class and a `_power_walk` of g."""
    order = len(cls)
    inv_order = pow(order, -1, p)
    return [inv_order * sum(residues[c] * zeta[-e * l % order]
                            for l, c in enumerate(cls)) % p for e in range(order)]


def _dixon_characters(G: FiniteGroup, p: int = PRIME) -> tuple[list, list]:
    """Exact irreducible characters by Dixon's modular method with
    Schneider's splitting, and their residues mod p per class, in the same
    order.  Verification happens later in CharacterTable.

    The class matrices M_i[j][l] = a_{ijl} commute, and their common
    eigenvectors are the central characters omega_j = |C_j| chi(g_j) /
    chi(1).  Over GF(p), with p prime, p = 1 mod CONDUCTOR and p > |G|,
    the group algebra splits, so the eigenspaces cut the class space
    into lines.  chi(1)^2 <= |G| < p and every eigenvalue multiplicity
    of rho(g) lies in 0..chi(1), so both are recovered exactly from
    their residues, and chi(g) is their sum over roots of unity."""
    if ((p - 1) % CONDUCTOR or p <= len(G)
            or any(p % f == 0 for f in range(2, math.isqrt(p) + 1))):
        raise TableDerivationError(
            f"{p} is not a prime = 1 mod {CONDUCTOR} above |{G.name}| = {len(G)}")
    k = G.num_classes
    spaces = [rref([[int(i == j) for j in range(k)] for i in range(k)], p)]
    for A in _structure_matrices(G):       # class matrices in class order
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        spaces = [part for space in spaces for part in _split(A, space, p)]
    if any(len(rows) != 1 for rows, _ in spaces):
        raise TableDerivationError(
            f"the class matrices of {G.name} leave an eigenspace wider than 1 mod {p}")

    e_class = G.class_of[G.identity_index]
    inverse_class = [G.class_of[G.inv[rep]] for rep in G.class_reps]
    inv_size = [pow(size, -1, p) for size in G.class_sizes]
    z = _primitive_root_of_unity(p)
    powers = [_power_walk(G, rep, z, p) for rep in G.class_reps]

    chars, rows = [], []
    for (u,), _ in spaces:
        if not u[e_class]:
            raise TableDerivationError("a central character vanishes at E")
        scale = pow(u[e_class], -1, p)
        omega = [v * scale % p for v in u]
        norm = sum(omega[j] * omega[inverse_class[j]] * inv_size[j]
                   for j in range(k)) % p
        dimsq = len(G) * pow(norm, -1, p) % p if norm else 0
        dim = math.isqrt(dimsq)
        if dim < 1 or dim * dim != dimsq:
            raise TableDerivationError(f"chi(1)^2 = {dimsq} mod {p} is not a square")
        residues = [dim * w * s % p for w, s in zip(omega, inv_size)]
        values = []
        for cls, zeta in powers:
            value = ZERO
            for e, m in enumerate(_fourier_counts(residues, cls, zeta, p)):
                if m > dim:
                    raise TableDerivationError(
                        f"eigenvalue multiplicity {m} mod {p} exceeds chi(1) = {dim}")
                if m:
                    value = value + root_of_unity(len(cls), e) * m
            values.append(value)
        chi = ClassFunction(G, values)
        galois_stable(chi)
        chars.append(chi)
        rows.append(residues)
    return chars, rows


# -- canonical labeling -------------------------------------------------


# (BFS distance from the trivial character on the McKay graph, dimension)
# -> name.  On E6~ (2T) the arms 3-2s'-1' and 3-2s''-1'' tie: 1'' is the
# 1-dimensional character with chi(T) = zeta_3, and 2s'' is its neighbour.
NODE_NAMES = {
    "2T": {(0, 1): "1", (1, 2): "2s", (2, 3): "3", (3, 2): "2s'", (4, 1): "1'"},
    "2O": {(0, 1): "1", (1, 2): "2s", (2, 3): "3", (3, 4): "4s", (4, 3): "3'",
           (4, 2): "2", (5, 2): "2s'", (6, 1): "1'"},
    "2I": {(0, 1): "1", (1, 2): "2s", (2, 3): "3'", (3, 4): "4s", (4, 5): "5",
           (5, 6): "6s", (6, 4): "4", (6, 3): "3", (7, 2): "2s'"},
}


def _mckay_adjacency(G: FiniteGroup, rows) -> tuple:
    """A[i][j] = <chi_j, chi_1/2 chi_i> over characters given by their
    residues per class, `rows`, read mod p = PRIME.

    `reduce_mod_p` is a ring homomorphism on sums of roots of unity that
    sends conj chi(g) to chi(g^-1), and |G| < p is a unit mod p, so A_ij =
    |G|^-1 sum_c |c| chi_1/2(c) chi_i(c) chi_j(c^-1) mod p on the residues,
    with chi_1/2(c) = tr c = 2w.  For irreducible characters chi_1/2 chi_i
    has degree 2 chi_i(1), so 0 <= A_ij <= 2 chi_i(1) <= 12 < p and the
    residue is A_ij exactly.  The exact row check of `CharacterTable`
    proves the rows irreducible or refuses the table, and A leaves this
    module only as the adjacency of a proven table."""
    half = [2 * reduce_mod_p(G.elements[rep].w) for rep in G.class_reps]
    weights = [size * h for size, h in zip(G.class_sizes, half)]
    inverse_class = [G.class_of[G.inv[rep]] for rep in G.class_reps]
    scale = pow(len(G), -1, PRIME)
    return tuple(tuple(sum(w * a * b[c] for w, a, c in zip(weights, ri, inverse_class))
                       * scale % PRIME for b in rows) for ri in rows)


def _mckay_labels(G: FiniteGroup, chars: list[ClassFunction], residues: list):
    """Name each character by its place on the McKay graph.

    A[i][j] = <chi_j, chi_1/2 chi_i>, read off the characters' `residues`
    mod PRIME per class (`_mckay_adjacency`); the walk from the trivial character
    must reach every node (chi_1/2 is faithful exactly when the graph is
    connected), and NODE_NAMES names each node by its distance and
    dimension.  Returns the irreps in label order."""
    if not G.presentation:
        raise TableDerivationError(
            f"{G.name} has no presentation triple; adopt R/S/T generators first")
    n = G.presentation[2]
    T = G.generators["T"]
    if not _least_rotation(G.elements[T], n):
        raise TableDerivationError(
            f"{G.name}: T is not the rotation by the least angle, tr T = 2cos(pi/{n}), "
            "so the triple does not fit the classical names")
    k = len(chars)
    A = _mckay_adjacency(G, residues)
    dist = [None] * k
    queue = [next(i for i, c in enumerate(chars) if all(v == ONE for v in c.values))]
    dist[queue[0]] = 0
    for i in queue:                 # the queue grows while it is read
        for j, m in enumerate(A[i]):
            if m and dist[j] is None:
                dist[j] = dist[i] + 1
                queue.append(j)
    if None in dist:
        raise TableDerivationError(
            f"{G.name}: the McKay graph is not connected, so chi_1/2 is not faithful")
    group = GROUP_NAMES[n][0]
    dims = [c.value_on_class(G.class_of[G.identity_index]).as_integer() for c in chars]
    names = [NODE_NAMES[group].get(key) for key in zip(dist, dims)]
    if group == "2T":
        for i, c in enumerate(chars):
            if dims[i] == 1 and c.value_on_element(T) == root_of_unity(3, 1):
                names[i] = "1''"
                names[next(j for j, m in enumerate(A[i]) if m)] = "2s''"
    if None in names or len(set(names)) != k:
        raise TableDerivationError(
            f"{G.name}: the McKay graph does not fit the node names: {names}")
    labels = [IrrepLabel(int(name.rstrip("s'")), "s" in name, name.count("'"))
              for name in names]
    return sorted(map(Irrep, labels, chars), key=lambda ir: ir.label)


def character_table(G: FiniteGroup) -> CharacterTable:
    """Derive (and cache) the full exact character table of G, with its
    McKay adjacency in table order."""
    if G._char_table is not None:
        return G._char_table
    if G.num_classes == len(G):
        # abelian: all irreps are powers of a generating character
        if len(G) == 1:
            irreps = [Irrep(IrrepLabel(1, False, 0), trivial_character(G))]
        else:
            if "g" not in G.generators:
                raise TableDerivationError(
                    f"abelian group {G.name} has no distinguished generator")
            # the rows j -> zeta_q^(rj) on class j are the characters omega^r
            # exactly when G is in power order
            j = power_order_break(G)
            if j is not None:
                raise TableDerivationError(
                    f"{G.name}: class {j} does not hold g^{j}, so the rows "
                    "j -> zeta^(rj) are not characters")
            # omega^r(-E) = (-1)^r, -E = g^(q/2); the row check reads each flag
            spin = G.neg_identity_index is not None
            irreps = [Irrep(CyclicLabel(r, spin and r % 2 == 1), cyclic_character(G, r))
                      for r in range(len(G))]
        table = CharacterTable(G, irreps)
    else:
        table = CharacterTable(G, _mckay_labels(G, *_dixon_characters(G)))
    G._char_table = table
    return table


class CyclicLabel(Record, frozen=True):
    """Label of the 1-dim character omega^r of a cyclic group."""
    twist: int
    spinor: bool

    dimension = 1
    primes = 0

    @property
    def name(self) -> str:
        return f"w^{self.twist}"

    def __str__(self):
        return self.name
