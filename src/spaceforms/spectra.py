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

A twist is an integer combination of the rows of its group's character
table (`TwistSpec`); a lens twist omega^r is row r of a cyclic group's
table.  The block m_0..m_{L-1} is linear in the twist, so it is the same
combination of the rows' columns.  The columns come from the
Clebsch-Gordan rule chi_{1/2} chi_{n/2} = chi_{(n+1)/2} + chi_{(n-1)/2}:
the vector v_n of all irreducibles' multiplicities in Res chi_{n/2}
obeys v_{n+1} = A v_n - v_{n-1} from v_0 = e_1, v_{-1} = 0, with A the
McKay adjacency (McKay 1980; Kostant 1984), which the character table
keeps, read mod p off its values with no inner product.  Every column
entry is integer arithmetic, kept on the group and grown together as
deep as asked; so are the steps, read from the rows' dimensions and
spinor flags.  `degeneracy` keeps the direct per-level
inner product, which the tests compare with the series.

An independent oracle counts m_n for levels up to ORACLE_MAX_LEVEL
exactly over GF(p), p = exactnum.PRIME: the spin-n/2 matrices of every
element are built from its quaternion, summed over each class, and the
twist's isotypic projector, formed from these class sums, has rank
dim rho * m_n, read off its trace once its idempotency is checked.
Each element's SU(2) entries are reduced mod p and their powers packed
into integers once per group and distinct linear form, so that a column
of a spin matrix is one integer product.  The class sums stay packed
and unreduced, kept per level on the group; the twist's weights are the
residues of its proven table row, so the projector is one weighted
integer sum and its idempotency check takes n + 1 integer products.
The oracle takes no spin character, inner product, CycloNum product or
row reduction, so it shares no path with the formula it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, takewhile
from operator import add, mul

from .characters import (ClassFunction, Record, character_table, inner_product,
                         nonnegative_int, spin_character)
from .exactnum import ONE, PRIME, CycloNum, reduce_mod_p, root_of_unity
from .groups import SCHEMA, ContractViolation, FiniteGroup, SubgroupHandle


class TwistError(ValueError):
    """The requested twist is not a genuine representation."""


class TwistSpec(Record, frozen=True):
    """A flat-bundle twist: an integer combination of the irreducible
    characters of one group, as (row of `character_table(group)`,
    coefficient) pairs sorted by row, with no zero coefficient.  A lens
    twist omega^r is row r of its cyclic group's table."""
    group: FiniteGroup
    terms: tuple                   # ((row, coefficient), ...)

    @staticmethod
    def coerce(target, twist) -> "TwistSpec":
        """The twist a caller names on a group or subgroup handle: an int r
        for omega^r on a cyclic group, an irrep name, or a map from names
        to coefficients, which add up where two names read one row."""
        if isinstance(twist, TwistSpec):
            return twist
        G = target.group if isinstance(target, SubgroupHandle) else target
        if isinstance(twist, int):
            if G.num_classes != len(G):
                raise TwistError(f"{G.name} is not cyclic; twist by irrep name")
            return TwistSpec(G, ((twist % len(G), 1),))
        if isinstance(twist, str):
            twist = {twist: 1}
        elif not isinstance(twist, dict):
            raise TypeError(f"cannot interpret {twist!r} as a twist")
        table, terms = character_table(G), {}
        for name, c in twist.items():
            row = table.row(name)
            terms[row] = terms.get(row, 0) + c
        return TwistSpec(G, tuple(sorted((r, c) for r, c in terms.items() if c)))

    def character(self) -> ClassFunction:
        """The twist's character; a coefficient of 1 reads the table row
        itself, unscaled."""
        if not self.terms:
            raise TwistError("empty twist")
        irreps = character_table(self.group).irreps
        chars = [irreps[r].char if c == 1 else irreps[r].char * c for r, c in self.terms]
        return sum(chars[1:], chars[0])

    def is_genuine(self) -> bool:
        return all(c >= 0 for _, c in self.terms) and any(c > 0 for _, c in self.terms)

    def central_values(self) -> tuple:
        """(chi(E), chi(-E)), chi(-E) = 0 when -E is not in the group, from
        the rows' labels: a row's value is its dimension at E, and at -E
        minus that on a spinor row.  `CharacterTable._verify_exact` proves
        both of every row of every table, cyclic ones too."""
        irreps = character_table(self.group).irreps
        signed = [(c * irreps[r].label.dimension, irreps[r].label.spinor)
                  for r, c in self.terms]
        at_e = sum(v for v, _ in signed)
        if self.group.neg_identity_index is None:
            return at_e, 0
        return at_e, sum(-v if spinor else v for v, spinor in signed)

    def dimension(self) -> int:
        return self.central_values()[0]

    def describe(self) -> str:
        irreps = character_table(self.group).irreps
        body = " + ".join(irreps[r].name if c == 1 else f"{c}x{irreps[r].name}"
                          for r, c in self.terms)
        return f"{body} on {self.group.name}"


def _genuine_twist(target, twist) -> TwistSpec:
    tw = TwistSpec.coerce(target, twist)
    if not tw.is_genuine():
        raise TwistError(f"{tw.describe()} is not a genuine representation")
    return tw


def _columns(G: FiniteGroup, depth: int) -> tuple:
    """m_0..m_{depth-1} (or more) of every irreducible of G, one column
    per row of its character table.

    The columns are kept on G and grow together by v_{n+1} = A v_n -
    v_{n-1} (see the module docstring), each entry checked to be
    non-negative.  Grown columns replace the old ones whole, so a
    concurrent caller sees shorter or longer columns, never a partial
    one."""
    cols = G._multiplicity_columns
    if cols and len(cols[0]) >= depth:
        return cols
    table = character_table(G)
    grown = [list(col) for col in cols] or [[] for _ in table]
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
    G._multiplicity_columns = tuple(map(tuple, grown))
    return G._multiplicity_columns


def degeneracy(target, twist, n: int) -> int:
    """Exact twisted degeneracy at level n (eigenvalue n(n+2)): n + 1
    times the direct inner product <chi, Res chi_{n/2}>."""
    if n < 0:
        raise ValueError("level must be >= 0")
    chi = _genuine_twist(target, twist).character()
    return (n + 1) * nonnegative_int(inner_product(chi, spin_character(chi.group, n)),
                                     f"intertwining number at level {n}")


class DegeneracySeries(Record, frozen=True):
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
    at_e, at_neg_e = tw.central_values()
    step = []
    for p, sign in ((0, 1), (1, -1)):
        d = Fraction(period, len(G)) * (at_e + sign * at_neg_e)
        if d < 0 or d % 1:
            raise ContractViolation(
                f"period step Delta_{p} is not a non-negative integer: {d}")
        step.append(int(d))
    depth = min(n_max + 1, period)
    columns = _columns(G, depth)
    block = [sum(c * columns[row][n] for row, c in tw.terms) for n in range(depth)]
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


class SpectralWeight(Record, frozen=True):
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


class SpectralSum(Record, frozen=True):
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


class LensTorsion(Record, frozen=True):
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
    """Bits per packed coefficient (`_pack`) for a group of this order,
    enough for every slot the oracle packs at a level n <= N =
    ORACLE_MAX_LEVEL; with p = PRIME every residue is at most p - 1.

    - A column of D^(n/2)(g) is the product of two packed powers of
      degrees n - c and c, with reduced coefficients: its coefficient of
      t^r adds at most min(r, n - r, c, n - c) + 1 <= n/2 + 1 products,
      each at most (p - 1)^2.
    - An entry of P = sum_c chi(c^-1) C_c adds one such coefficient per
      element, weighted by a residue: at most |G| (n/2 + 1) (p - 1)^3.
    - An entry of P P - s P (`_is_scaled_idempotent`) adds n + 1 entries
      of P times a residue and one times p - s <= p - 1: at most
      (n + 2) (p - 1) times the bound on P.

    All three are non-negative and grow with n, so no slot of this width
    carries into the next one at any level up to N.  The powers are
    reduced mod p, so the width grows with log N: unreduced powers of
    degree N would need about N log2 p bits."""
    top = ORACLE_MAX_LEVEL
    return ((top + 2) * order * (top // 2 + 1) * (PRIME - 1) ** 4).bit_length()


def _pack(coeffs, bits: int) -> int:
    """sum_j coeffs[j] 2^(bits j): a polynomial as one integer, so that
    one integer product is the product of two polynomials while no
    coefficient outgrows its slot (Kronecker substitution)."""
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _unpack(packed: int, bits: int, count: int) -> list:
    """The first `count` coefficients of a `_pack`ed integer."""
    mask = (1 << bits) - 1
    return [packed >> bits * j & mask for j in range(count)]


def _su2_powers(G: FiniteGroup) -> tuple:
    """Per element, the powers of the linear forms a11 + a21 t and
    a12 + a22 t mod PRIME (`_linear_powers`), from the entries of its
    SU(2) matrix [[w + ix, y + iz], [-y + iz, w - ix]], each packed with
    `_slot_bits(|G|)` bits per coefficient; once per group, and once per
    distinct form, since the 2|G| forms of G take |G| values."""
    if G._oracle_su2 is None:
        i = reduce_mod_p(root_of_unity(4))
        bits = _slot_bits(len(G))
        residue = {v: reduce_mod_p(v)
                   for v in {v for e in G.elements for v in (e.w, e.x, e.y, e.z)}}
        forms, powers = {}, []
        for e in G.elements:
            w, x, y, z = (residue[v] for v in (e.w, e.x, e.y, e.z))
            pair = (((w + i * x) % PRIME, (i * z - y) % PRIME),
                    ((y + i * z) % PRIME, (w - i * x) % PRIME))
            for form in pair:
                if form not in forms:
                    forms[form] = [_pack(p, bits) for p in _linear_powers(*form)]
            powers.append(tuple(map(forms.get, pair)))
        G._oracle_su2 = tuple(powers)
    return G._oracle_su2


def _class_sums(G: FiniteGroup, n: int) -> tuple:
    """Per class c, C_c = sum of D^(n/2)(g) over g in c, unreduced and
    packed into one integer column by column: the entry in row r and
    column c sits in slot c (n + 1) + r.  Kept on G per level, since no
    twist enters.

    D(g) acts on the monomials u1^(n-r) u2^r, unnormalised, so that every
    entry is a polynomial in the SU(2) entries with integer binomials:
    column c expands (a11 u1 + a21 u2)^(n-c) (a12 u1 + a22 u2)^c, and row
    r holds its coefficient of u1^(n-r) u2^r.  On the packed powers the
    column is one integer product; `_slot_bits` bounds every slot."""
    sums = G._oracle_class_sums
    if n not in sums:
        bits = _slot_bits(len(G))
        acc = [[0] * (n + 1) for _ in range(G.num_classes)]
        for c, (first, second) in zip(G.class_of, _su2_powers(G)):
            acc[c] = list(map(add, acc[c], map(mul, first[n::-1], second)))
        sums[n] = tuple(_pack(cols, bits * (n + 1)) for cols in acc)
    return sums[n]


def _is_scaled_idempotent(P: int, entries: list, bits: int, scale: int) -> bool:
    """Whether P P = scale P mod PRIME, for a square matrix P packed as in
    `_class_sums` with unreduced entries, and its `entries` mod PRIME in
    the same order.

    Column k of P, times row k of P spread one column apart, is the
    outer product of the two in the same packing; summed over k, with
    (PRIME - scale) P added, slot c (n + 1) + r is an integer congruent to
    (P P - scale P)[r][c].  That is n + 1 integer products, and
    `_slot_bits` bounds every slot."""
    m = math.isqrt(len(entries))
    column_mask = (1 << bits * m) - 1
    total = (PRIME - scale) * P
    for k in range(m):
        total += (P >> bits * m * k & column_mask) * _pack(entries[k::m], bits * m)
    return not any(v % PRIME for v in _unpack(total, bits, m * m))


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
    most n + 1 < p, it is the residue tr(P) (|G|/dim chi)^-1 mod p.

    chi(c^-1) mod p is read off the residues of the proven table row
    (`CharacterTable.residues`).  No spin character, inner product,
    CycloNum arithmetic or row reduction is used."""
    if not 0 <= n <= ORACLE_MAX_LEVEL:
        raise ValueError(f"oracle restricted to levels 0..{ORACLE_MAX_LEVEL}")
    tw = TwistSpec.coerce(target, twist)
    if len(tw.terms) != 1 or tw.terms[0][1] != 1:
        raise TwistError("oracle accepts irreducible twists only")
    G = tw.group
    row = character_table(G).residues[tw.terms[0][0]]
    dim = row[G.class_of[G.identity_index]]
    bits = _slot_bits(len(G))
    P = sum(row[G.class_of[G.inv[rep]]] * C
            for rep, C in zip(G.class_reps, _class_sums(G, n)))
    entries = [v % PRIME for v in _unpack(P, bits, (n + 1) ** 2)]
    scale = len(G) // dim
    if not _is_scaled_idempotent(P, entries, bits, scale):
        raise ContractViolation(
            f"oracle at level {n}: the class sum of {tw.describe()} is not "
            f"{scale} times an idempotent mod {PRIME}")
    rank = sum(entries[::n + 2]) * pow(scale, -1, PRIME) % PRIME
    if rank % dim:
        raise ContractViolation(
            f"oracle at level {n}: rank {rank} is not a multiple of dim {dim}")
    return (n + 1) * rank // dim
