"""Twisted scalar Laplacian degeneracies on spherical space forms.

The level-n eigenspace of the unit three-sphere has dimension (n+1)^2
and eigenvalue n(n+2).  For a one-sided homogeneous quotient by
Gamma < SU(2), its restriction to Gamma is (n+1) copies of the spin-n/2
character, so the twisted degeneracy is

    d_n(rho) = (n+1) m_n,   m_n = <chi_rho, Res chi_{n/2}>_Gamma,

with m_n an exact non-negative integer.  Every additive spectral
quantity (heat trace, truncated zeta, log torsion) is a weighted sum
over the degeneracy series, which is therefore the universal carrier
checked by the verification harness.

A series needs only one exact period block.  Away from +-E the spin
character chi_{n/2}(g) = sin((n+1)theta)/sin(theta) is periodic in n
with period ord(g), which divides the exponent L = lcm of the element
orders, while chi_{n/2}(E) = n+1 and chi_{n/2}(-E) = (-1)^n (n+1).
Hence m_{n+L} = m_n + Delta_{n mod 2} with the integer step

    Delta_p = (L/|Gamma|) (conj chi_rho(E) + (-1)^p conj chi_rho(-E)),

the -E term absent when -E is not in Gamma (this is the Molien-series
view of space-form spectra; for the trivial twist m_n are the
coefficients of Klein's invariant Poincare series).

The block m_0..m_{L-1} is linear in the twist, so it is an integer
combination of the columns of the irreducibles (the table's irreps, or
the characters omega^r of a cyclic group).  The columns come from the
Clebsch-Gordan rule chi_{1/2} chi_{n/2} = chi_{(n+1)/2} + chi_{(n-1)/2}:
the vector v_n of all irreducibles' multiplicities in Res chi_{n/2}
obeys v_{n+1} = A v_n - v_{n-1} from v_0 = e_1, v_{-1} = 0, with A the
McKay adjacency (McKay 1980; Kostant 1984), which the character table
keeps, read mod p off its values with no inner product.  Every column
entry is integer arithmetic, kept on the group and grown together as
deep as asked; so are the steps, read from the twist's integer values
at E and -E.  `degeneracy` keeps the direct per-level
inner product, which the tests compare with the series.

An independent oracle counts m_n for levels up to ORACLE_MAX_LEVEL
exactly over GF(p), p = exactnum.PRIME: the spin-n/2 matrices of every
element are built from its quaternion, summed over each class, and the
twist's isotypic projector, formed from these class sums, has rank
dim rho * m_n, read off its trace once its idempotency is checked.
Each element's SU(2) entries are reduced mod p and their powers packed
into integers once per group, so that a column of a spin matrix is one
integer product, and the class sums are kept per level, both on the
group.  The oracle takes no spin character, inner product, CycloNum
product or row reduction, so it shares no path with the formula it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, takewhile
from operator import add, mul

from .characters import (ClassFunction, character_table, cyclic_character,
                         inner_product, nonnegative_int, spin_character)
from .exactnum import ONE, PRIME, CycloNum, reduce_mod_p, root_of_unity
from .groups import SCHEMA, ContractViolation, FiniteGroup, SubgroupHandle


class TwistError(ValueError):
    """The requested twist is not a genuine representation."""


@dataclass(frozen=True)
class TwistSpec:
    """A flat-bundle twisting: either a cyclic index r (lens case) or an
    integer combination of irreducibles of a polyhedral group."""
    target: object                 # FiniteGroup or SubgroupHandle
    cyclic_twist: int | None = None
    combo: tuple | None = None     # ((irrep name, coefficient), ...)

    @property
    def group(self) -> FiniteGroup:
        if isinstance(self.target, SubgroupHandle):
            return self.target.group
        return self.target

    @staticmethod
    def coerce(target, twist) -> "TwistSpec":
        if isinstance(twist, TwistSpec):
            return twist
        if isinstance(twist, int):
            return TwistSpec.cyclic(target, twist)
        if isinstance(twist, str):
            return TwistSpec.irrep(target, twist)
        if isinstance(twist, dict):
            return TwistSpec(target, combo=tuple(sorted(twist.items())))
        raise TypeError(f"cannot interpret {twist!r} as a twist")

    @staticmethod
    def cyclic(target, r: int) -> "TwistSpec":
        group = target.group if isinstance(target, SubgroupHandle) else target
        q = len(group)
        if group.num_classes != q:
            raise TwistError(f"{group.name} is not cyclic; twist by irrep name")
        return TwistSpec(target, cyclic_twist=r % q)

    @staticmethod
    def irrep(target, name: str) -> "TwistSpec":
        return TwistSpec(target, combo=((name, 1),))

    def character(self) -> ClassFunction:
        """The twist's character; a coefficient of 1 reads the table row
        itself, unscaled."""
        G = self.group
        if self.cyclic_twist is not None:
            return cyclic_character(G, self.cyclic_twist)
        table = character_table(G)
        acc = None
        for name, coeff in self.combo:
            row = table[name].char
            term = row if coeff == 1 else row * coeff
            acc = term if acc is None else acc + term
        if acc is None:
            raise TwistError("empty twist")
        return acc

    def is_genuine(self) -> bool:
        if self.cyclic_twist is not None:
            return True
        return all(c >= 0 for _, c in self.combo) and any(c > 0 for _, c in self.combo)

    def central_values(self) -> tuple:
        """(chi(E), chi(-E)) from integers, chi(-E) = 0 when -E is not in
        the group: the table rows' values, or 1 and (-1)^r for omega^r,
        since -E = g^(q/2) in the class order `cyclic_character` reads."""
        G = self.group
        centre = [i for i in (G.identity_index, G.neg_identity_index) if i is not None]
        if self.cyclic_twist is not None:
            values = [1, (-1) ** self.cyclic_twist][:len(centre)]
        else:
            table = character_table(G)
            values = [sum(c * table[name].char.value_on_element(i).as_integer()
                          for name, c in self.combo if c) for i in centre]
        return tuple(values + [0])[:2]

    def dimension(self) -> int:
        return self.central_values()[0]

    def describe(self) -> str:
        if self.cyclic_twist is not None:
            return f"w^{self.cyclic_twist} on {self.group.name}"
        body = " + ".join(name if c == 1 else f"{c}x{name}"
                          for name, c in self.combo if c)
        return f"{body} on {self.group.name}"


def _genuine_twist(target, twist) -> TwistSpec:
    tw = TwistSpec.coerce(target, twist)
    if not tw.is_genuine():
        raise TwistError(f"{tw.describe()} is not a genuine representation")
    return tw


def _column(G: FiniteGroup, irreducible, depth: int) -> tuple:
    """m_0..m_{depth-1} (or more) of one irreducible of G: an irrep name,
    or the index r of omega^r on a cyclic group.

    The columns of all irreducibles are kept on G and grow together by
    v_{n+1} = A v_n - v_{n-1} (see the module docstring), each entry
    checked to be non-negative.  A grown column replaces the old one
    whole, so a concurrent caller sees a shorter or a longer column,
    never a partial one."""
    cols = G._multiplicity_columns
    if len(cols.get(irreducible, ())) >= depth:
        return cols[irreducible]
    table = character_table(G)
    cyclic = G.num_classes == len(G)
    if isinstance(irreducible, str):
        irrep = table[irreducible]
        irreducible = table.irreps.index(irrep) if cyclic else irrep.name
    if len(cols.get(irreducible, ())) < depth:
        keys = range(len(table)) if cyclic else [ir.name for ir in table]
        grown = [list(cols.get(key, ())) for key in keys]
        A = table.adjacency
        for n in range(len(grown[0]), depth):
            if n == 0:
                v = [int(all(x == ONE for x in ir.char.values)) for ir in table]
            else:
                last = [col[n - 1] for col in grown]
                v = [sum(m * row[j] for m, row in zip(last, A))
                     - (grown[j][n - 2] if n > 1 else 0) for j in range(len(A))]
            if min(v) < 0:
                raise ContractViolation(f"negative multiplicity at level {n}: {v}")
            for col, m in zip(grown, v):
                col.append(m)
        cols.update(zip(keys, map(tuple, grown)))
    return cols[irreducible]


def degeneracy(target, twist, n: int) -> int:
    """Exact twisted degeneracy at level n (eigenvalue n(n+2)): n + 1
    times the direct inner product <chi, Res chi_{n/2}>."""
    if n < 0:
        raise ValueError("level must be >= 0")
    chi = _genuine_twist(target, twist).character()
    return (n + 1) * nonnegative_int(inner_product(chi, spin_character(chi.group, n)),
                                     f"intertwining number at level {n}")


@dataclass(frozen=True)
class DegeneracySeries:
    """Degeneracies d_0..d_{n_max} for one twist."""
    twist: TwistSpec
    entries: tuple

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, n: int) -> int:
        return self.entries[n]

    def __eq__(self, other):
        if isinstance(other, DegeneracySeries):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "degeneracy_series",
            "twist": self.twist.describe(),
            "entries": [{"level": n, "eigenvalue": n * (n + 2), "degeneracy": d}
                        for n, d in enumerate(self.entries)],
        }

    def to_csv(self) -> str:
        lines = ["level,eigenvalue,degeneracy"]
        lines += [f"{n},{n * (n + 2)},{d}" for n, d in enumerate(self.entries)]
        return "\n".join(lines) + "\n"


def degeneracy_series(target, twist, n_max: int) -> DegeneracySeries:
    """Degeneracies d_0..d_{n_max}, one period block plus a step.

    With L the exponent of the group, m_n for n < L is the twist's
    integer combination of the irreducibles' multiplicity columns and
    m_n = m_{n mod L} + (n // L) Delta_{n mod 2} beyond it (see the
    module docstring).  Every column entry is a checked non-negative
    integer, every block entry and both steps Delta_0, Delta_1 must be
    non-negative integers, so every entry is a checked non-negative
    integer and equals `degeneracy(target, twist, n)`.  The steps read the
    twist's integer values at E and -E (`TwistSpec.central_values`;
    Delta_p counts no -E term when -E is not in the group, as in an odd
    cyclic group)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    tw = _genuine_twist(target, twist)
    G = tw.group
    period = math.lcm(*G.orders)
    terms = ([(tw.cyclic_twist, 1)] if tw.cyclic_twist is not None
             else [(name, c) for name, c in tw.combo if c])
    at_e, at_neg_e = tw.central_values()
    step = []
    for p, sign in ((0, 1), (1, -1)):
        d = Fraction(period, len(G)) * (at_e + sign * at_neg_e)
        if d < 0 or d % 1:
            raise ContractViolation(
                f"period step Delta_{p} is not a non-negative integer: {d}")
        step.append(int(d))
    depth = min(n_max + 1, period)
    columns = [(_column(G, irreducible, depth), c) for irreducible, c in terms]
    block = [sum(c * col[n] for col, c in columns) for n in range(depth)]
    if any(m < 0 or m % 1 for m in block):
        raise ContractViolation(
            f"period block is not non-negative integers: {block}")
    block = [int(m) for m in block]
    entries = []
    for n in range(n_max + 1):
        laps, rest = divmod(n, period)
        entries.append((n + 1) * (block[rest] + laps * step[n % 2]))
    return DegeneracySeries(tw, tuple(entries))


# -- spectral weights ---------------------------------------------------


@dataclass(frozen=True)
class SpectralWeight:
    kind: str            # raw | heat | zeta | counting
    param: float | None = None

    @staticmethod
    def raw() -> "SpectralWeight":
        return SpectralWeight("raw")

    @staticmethod
    def heat(t: float) -> "SpectralWeight":
        if t <= 0:
            raise ValueError("heat weight requires t > 0")
        return SpectralWeight("heat", t)

    @staticmethod
    def zeta(s: float) -> "SpectralWeight":
        return SpectralWeight("zeta", s)

    @staticmethod
    def counting(lam: float) -> "SpectralWeight":
        return SpectralWeight("counting", lam)


@dataclass(frozen=True)
class SpectralSum:
    value: float
    truncation_bound: float | None
    terms: int


ZETA_CONVERGENCE_THRESHOLD = 1.5


def spectral_sum(series: DegeneracySeries, weight: SpectralWeight) -> SpectralSum:
    """Sum d_n f(lambda_n) over the truncated series, lambda_n = n(n+2).

    The heat weight reports a geometric tail bound; the zeta weight
    refuses exponents at or below the convergence threshold, skips the
    zero mode and reports an integral tail bound."""
    n_max = series.n_max
    if weight.kind == "raw":
        return SpectralSum(float(sum(series.entries)), None, n_max + 1)
    if weight.kind == "counting":
        # n(n+2) <= lam iff (n+1)^2 <= floor(lam) + 1: levels below k
        lam = weight.param
        if lam == math.inf:
            k = len(series.entries)
        elif lam >= -1:
            k = math.isqrt(math.floor(lam) + 1)
        else:                           # below -1, -inf or NaN: no level
            k = 0
        return SpectralSum(float(sum(series.entries[:k])), None, n_max + 1)
    if weight.kind == "heat":
        # the weight falls with n, so past its first exact 0.0 every term
        # would add +0.0 and leave the float sum as it is
        t = weight.param
        weights = takewhile(bool, (math.exp(-t * n * (n + 2)) for n in count()))
        val = sum(d * w for d, w in zip(series.entries, weights))
        # tail bound: d_n <= (n+1)^2 dim(rho); terms shrink faster than a
        # geometric series with ratio exp(-2t(n_max+2))*(1 + 1/(n_max+1))^2
        dim = series.twist.dimension()
        first_omitted = (dim * (n_max + 2) ** 2
                         * math.exp(-t * (n_max + 1) * (n_max + 3)))
        ratio = math.exp(-t * (2 * n_max + 5)) * ((n_max + 3) / (n_max + 2)) ** 2
        bound = (first_omitted / (1 - ratio)) if ratio < 1 else math.inf
        return SpectralSum(val, bound, n_max + 1)
    if weight.kind == "zeta":
        s = weight.param
        if s <= ZETA_CONVERGENCE_THRESHOLD:
            raise ValueError(
                f"truncated zeta sum diverges for s <= {ZETA_CONVERGENCE_THRESHOLD}")
        val = sum(d * (n * (n + 2)) ** (-s)
                  for n, d in enumerate(series.entries) if n > 0)
        # tail bound: d_n <= (n+1)^2 dim(rho) and n(n+2) >= 3(n+1)^2/4 for
        # n >= 1, so the omitted terms sum to at most dim (4/3)^s times
        # sum_{m >= n_max+2} m^(2-2s) <= (n_max+1)^(3-2s) / (2s-3)
        dim = series.twist.dimension()
        try:
            bound = (dim * (n_max + 1) ** 3 * (4 / (3 * (n_max + 1) ** 2)) ** s
                     / (2 * s - 3))
        except OverflowError:           # (4/3)^s at n_max = 0
            bound = math.inf
        return SpectralSum(val, bound, n_max)
    raise ValueError(f"unknown weight kind {weight.kind!r}")


# -- lens space analytic torsion -----------------------------------------


@dataclass(frozen=True)
class LensTorsion:
    """Analytic torsion of the twisted homogeneous lens space; the
    additive spectral quantity is its logarithm."""
    q: int
    r: int
    exact: CycloNum      # 4 sin^2(pi r / q) = 2 - z^r - z^-r, z = zeta_q
    value: float
    log_value: float


def lens_torsion(q: int, r: int) -> LensTorsion:
    """Torsion 4 sin^2(pi r / q) for the order-q lens space with twist
    omega^r, 1 <= r <= q-1."""
    if q < 2:
        raise ValueError("lens order must be >= 2")
    if r % q == 0:
        raise ValueError("untwisted case unsupported (torsion convention differs)")
    exact = CycloNum.from_rational(2) - root_of_unity(q, r) - root_of_unity(q, -r)
    value = exact.to_complex().real
    if exact != exact.conjugate() or value <= 0:
        raise ContractViolation("torsion value must be real positive")
    return LensTorsion(q, r % q, exact, value, math.log(value))


# -- exact projector oracle over GF(p) -----------------------------------


ORACLE_MAX_LEVEL = 8


def _linear_powers(a: int, b: int) -> list:
    """Coefficient lists of (a + b t)^k mod PRIME for k <= ORACLE_MAX_LEVEL."""
    out = [[1]]
    for _ in range(ORACLE_MAX_LEVEL):
        last = out[-1]
        out.append([(a * x + b * y) % PRIME for x, y in zip(last + [0], [0] + last)])
    return out


def _slot_bits(order: int) -> int:
    """Bits per packed coefficient (`_pack`) for a group of this order.

    An entry of a class sum at a level n <= ORACLE_MAX_LEVEL adds at most
    n + 1 products of residues below PRIME for each of at most `order`
    elements, so it is at most (ORACLE_MAX_LEVEL + 1) order (PRIME - 1)^2,
    and a slot of this many bits holds it without a carry."""
    return ((ORACLE_MAX_LEVEL + 1) * order * (PRIME - 1) ** 2).bit_length()


def _pack(coeffs, bits: int) -> int:
    """sum_j coeffs[j] 2^(bits j): a polynomial as one integer, so that
    one integer product is the product of two polynomials while no
    coefficient outgrows its slot (Kronecker substitution)."""
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _su2_powers(G: FiniteGroup) -> tuple:
    """Per element, the powers of the linear forms a11 + a21 t and
    a12 + a22 t mod PRIME (`_linear_powers`), from the entries of its
    SU(2) matrix [[w + ix, y + iz], [-y + iz, w - ix]], each packed with
    `_slot_bits(|G|)` bits per coefficient; once per group."""
    if G._oracle_su2 is None:
        i = reduce_mod_p(root_of_unity(4))
        bits = _slot_bits(len(G))
        powers = []
        for e in G.elements:
            w, x, y, z = map(reduce_mod_p, (e.w, e.x, e.y, e.z))
            powers.append(tuple([_pack(p, bits) for p in _linear_powers(a, b)]
                                for a, b in ((w + i * x, i * z - y),
                                             (y + i * z, w - i * x))))
        G._oracle_su2 = tuple(powers)
    return G._oracle_su2


def _class_sums(G: FiniteGroup, n: int) -> tuple:
    """Per class c, C_c = sum of D^(n/2)(g) over g in c mod PRIME, a flat
    row-major tuple; kept on G per level, since no twist enters.

    D(g) acts on the monomials u1^(n-r) u2^r, unnormalised, so that every
    entry is a polynomial in the SU(2) entries with integer binomials:
    column c expands (a11 u1 + a21 u2)^(n-c) (a12 u1 + a22 u2)^c, and row
    r holds its coefficient of u1^(n-r) u2^r.  On the packed powers the
    column is one integer product; the packed columns are summed over the
    class and unpacked once, which `_slot_bits` makes exact."""
    sums = G._oracle_class_sums
    if n not in sums:
        dim, bits = n + 1, _slot_bits(len(G))
        mask = (1 << bits) - 1
        acc = [[0] * dim for _ in range(G.num_classes)]
        for c, (first, second) in zip(G.class_of, _su2_powers(G)):
            acc[c] = list(map(add, acc[c], map(mul, first[n::-1], second)))
        sums[n] = tuple(tuple((col >> (bits * r) & mask) % PRIME
                              for r in range(dim) for col in cols) for cols in acc)
    return sums[n]


def oracle_projector_degeneracy(target, twist, n: int) -> int:
    """Degeneracy at level n by counting, for an irreducible twist chi.

    sum_g chi(g^-1) D^(n/2)(g) is |G|/dim chi times the projector onto
    the chi-isotypic part of the spin-n/2 representation (Serre, Linear
    Representations of Finite Groups, 2.6), of rank dim chi * m_n.  Over
    GF(p), p = PRIME, it is P = sum_c chi(c^-1) C_c.  Since p = 1 mod 120
    and p > |G|, P is |G|/dim chi times the reduction of that projector,
    an idempotent of rank dim chi * m_n < p.  P P = (|G|/dim chi) P is
    checked exactly.  Then E = (dim chi/|G|) P is idempotent over GF(p),
    so its minimal polynomial divides x^2 - x, E is diagonalisable with
    eigenvalues 0 and 1, and rank E = tr E in GF(p); as the rank is at
    most n + 1 < p, it is the residue tr(P) (|G|/dim chi)^-1 mod p.  No
    spin character, inner product, CycloNum arithmetic or row reduction
    is used."""
    if not 0 <= n <= ORACLE_MAX_LEVEL:
        raise ValueError(f"oracle restricted to levels 0..{ORACLE_MAX_LEVEL}")
    tw = TwistSpec.coerce(target, twist)
    if tw.cyclic_twist is None and (len(tw.combo) != 1 or tw.combo[0][1] != 1):
        raise TwistError("oracle accepts irreducible twists only")
    G, chi = tw.group, tw.character()
    dim = chi.value_on_element(G.identity_index).as_integer()
    weights = [reduce_mod_p(chi.value_on_element(G.inv[rep])) for rep in G.class_reps]
    flat = [sum(map(mul, weights, entry)) % PRIME for entry in zip(*_class_sums(G, n))]
    P = [flat[r:r + n + 1] for r in range(0, len(flat), n + 1)]
    scale, cols = len(G) // dim, list(zip(*P))
    if any((sum(map(mul, row, col)) - scale * v) % PRIME
           for row in P for col, v in zip(cols, row)):
        raise ContractViolation(
            f"oracle at level {n}: the class sum of {tw.describe()} is not "
            f"{scale} times an idempotent mod {PRIME}")
    rank = sum(flat[::n + 2]) * pow(scale, -1, PRIME) % PRIME
    if rank % dim:
        raise ContractViolation(
            f"oracle at level {n}: rank {rank} is not a multiple of dim {dim}")
    return (n + 1) * rank // dim
