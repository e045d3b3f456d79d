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
McKay adjacency (McKay 1980; Kostant 1984).  A costs one set of exact
inner products per group (none on a cyclic group), and every column
entry after it is integer arithmetic, kept on the group and grown
together as deep as asked.  `degeneracy` keeps the direct per-level
inner product as the oracle.

An independent numeric oracle is provided for small levels: explicit
spin-j matrices are built from the quaternions, the group average of
rho-bar tensor D^(j) is formed, and its trace (the invariant count) is
compared against the exact formula.  The SU(2) matrices of a group's
elements are stacked once per group and the spin-j matrices once per
level, both kept on the group.  The oracle is the only user of numpy in
the library, so its functions import numpy when called and importing
this module (or the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .characters import (ClassFunction, character_table, cyclic_character,
                         inner_product, nonnegative_int, spin_character)
from .exactnum import ONE, ZERO, CycloNum, root_of_unity
from .groups import SCHEMA, ContractViolation, FiniteGroup, SubgroupHandle
from .mckay import mckay_adjacency

if TYPE_CHECKING:
    import numpy as np


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

    def dimension(self) -> int:
        chi = self.character()
        return chi.value_on_element(self.group.identity_index).as_integer()

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
        A = mckay_adjacency(G)
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
    integer and equals `degeneracy(target, twist, n)`."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    tw = _genuine_twist(target, twist)
    G = tw.group
    chi = tw.character()
    period = math.lcm(*G.orders)
    at_e = chi.value_on_element(G.identity_index).conjugate()
    at_neg_e = (chi.value_on_element(G.neg_identity_index).conjugate()
                if G.neg_identity_index is not None else ZERO)
    step = [nonnegative_int((at_e + sign * at_neg_e) * Fraction(period, len(G)),
                            f"period step Delta_{p}")
            for p, sign in ((0, 1), (1, -1))]
    if tw.cyclic_twist is not None:
        terms = [(tw.cyclic_twist, 1)]
    else:
        table = character_table(G)
        terms = [(table[name].name, c) for name, c in tw.combo if c]
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
        lam = weight.param
        tot = sum(d for n, d in enumerate(series.entries) if n * (n + 2) <= lam)
        return SpectralSum(float(tot), None, n_max + 1)
    if weight.kind == "heat":
        t = weight.param
        val = sum(d * math.exp(-t * n * (n + 2))
                  for n, d in enumerate(series.entries))
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


# -- numeric projector oracle --------------------------------------------


def su2_matrix(e) -> np.ndarray:
    """Double-precision SU(2) matrix of a quaternion element."""
    import numpy as np
    w, x, y, z = (c.to_complex().real for c in (e.w, e.x, e.y, e.z))
    return np.array([[w + 1j * x, y + 1j * z],
                     [-y + 1j * z, w - 1j * x]], dtype=complex)


def spin_matrix(u: np.ndarray, two_j: int) -> np.ndarray:
    """Spin-j matrices in the orthonormal monomial basis (standard angular
    momentum construction, unitary for u in SU(2)), for a stack of SU(2)
    matrices of shape (..., 2, 2)."""
    import numpy as np
    dim = two_j + 1
    out = np.zeros(u.shape[:-2] + (dim, dim), dtype=complex)
    powers = [[u[..., a, b] ** k for k in range(dim)] for a in (0, 1) for b in (0, 1)]
    p11, p12, p21, p22 = powers
    fact = [math.factorial(k) for k in range(dim)]
    for col in range(dim):
        p, s = two_j - col, col
        # expand (a11 u1 + a21 u2)^p (a12 u1 + a22 u2)^s; the power of u1
        # in a term fixes its row
        for k1 in range(p + 1):
            first = math.comb(p, k1) * p11[k1] * p21[p - k1]
            for k2 in range(s + 1):
                out[..., two_j - k1 - k2, col] += (first * math.comb(s, k2)
                                                   * p12[k2] * p22[s - k2])
        for row in range(dim):
            out[..., row, col] *= math.sqrt(fact[two_j - row] * fact[row]
                                            / (fact[p] * fact[s]))
    return out


def _frozen(mats) -> np.ndarray:
    import numpy as np
    stacked = np.stack(mats)
    stacked.flags.writeable = False
    return stacked


def _spin_matrices(G: FiniteGroup, two_j: int) -> np.ndarray:
    """D^(j)(g) for every element of G, stacked along the first axis and
    built once per (group, level) from the SU(2) stack, built once per
    group."""
    cache = G._oracle_spin
    if two_j not in cache:
        if G._oracle_su2 is None:
            G._oracle_su2 = _frozen([su2_matrix(e) for e in G.elements])
        cache[two_j] = _frozen(spin_matrix(G._oracle_su2, two_j))
    return cache[two_j]


def _irrep_matrices(G: FiniteGroup, name: str) -> np.ndarray:
    """Numeric matrices of an irreducible, stacked along the first axis,
    extracted from the smallest spin representation containing it
    exactly once; built once per (group, irrep)."""
    import numpy as np
    table = character_table(G)
    irrep = table[name]
    if irrep.name in G._oracle_irreps:
        return G._oracle_irreps[irrep.name]
    dim = irrep.label.dimension
    chosen = None
    for two_j in range(0, 4 * len(G)):
        if _column(G, irrep.name, two_j + 1)[two_j] == 1:
            chosen = two_j
            break
    if chosen is None:
        raise ContractViolation(f"no multiplicity-one spin level for {name}")
    big = _spin_matrices(G, chosen)
    chivals = [irrep.char.value_on_element(i).to_complex()
               for i in range(len(G))]
    proj = sum(np.conj(chivals[i]) * big[i] for i in range(len(G)))
    proj *= dim / len(G)
    eigval, eigvec = np.linalg.eigh((proj + proj.conj().T) / 2)
    cols = [k for k, v in enumerate(eigval) if v > 0.5]
    if len(cols) != dim:
        raise ContractViolation(f"isotypic projector rank {len(cols)} != {dim}")
    basis = eigvec[:, cols]
    mats = [basis.conj().T @ big[i] @ basis for i in range(len(G))]
    for i in range(len(G)):
        if abs(np.trace(mats[i]) - chivals[i]) > 1e-8:
            raise ContractViolation("extracted irrep has wrong character")
    G._oracle_irreps[irrep.name] = _frozen(mats)
    return G._oracle_irreps[irrep.name]


ORACLE_MAX_LEVEL = 8


def oracle_projector_degeneracy(target, twist, n: int) -> int:
    """Brute-force degeneracy: average rho-bar tensor D^(n/2) over the
    group and read the (near-integer) trace of the projector.

    Independent of the character-formula path: the spin matrices are
    built numerically from the quaternions and the average is a plain
    matrix sum."""
    import numpy as np
    if n > ORACLE_MAX_LEVEL:
        raise ValueError(f"oracle restricted to levels <= {ORACLE_MAX_LEVEL}")
    tw = TwistSpec.coerce(target, twist)
    G = tw.group
    if tw.cyclic_twist is not None:
        q = len(G)
        # element order = power order for cyclic
        rho = np.exp(2j * np.pi * tw.cyclic_twist * np.arange(q) / q)
        rho = rho.reshape(q, 1, 1)
    else:
        if len(tw.combo) != 1 or tw.combo[0][1] != 1:
            raise TwistError("oracle accepts irreducible twists only")
        rho = _irrep_matrices(G, tw.combo[0][0])
    spin = _spin_matrices(G, n)
    dim = rho.shape[1] * spin.shape[1]
    # sum over g of kron(conj rho(g), D(g)), as one contraction
    acc = np.einsum("gab,gcd->acbd", np.conj(rho), spin).reshape(dim, dim)
    proj = acc / len(G)
    tr = np.trace(proj)
    if abs(tr.imag) > 1e-6 or abs(tr.real - round(tr.real)) > 1e-6:
        raise ContractViolation(f"projector trace {tr} is not near-integral")
    return (n + 1) * round(tr.real)
