"""Bench-side references that do not share the library's exact code path.

* `irrep_multiplicities`: m_n = (1/|G|) sum_c |c| conj(chi(c)) U_n(theta_c)
  in floating point, with U_n(theta) = sin((n+1)theta)/sin(theta) and its
  limits n+1 at theta = 0 and (-1)^n (n+1) at theta = pi.
* `lens_degeneracies`: the exact count (n+1) #{k in {-n, -n+2, ..., n} :
  k = r mod q} for the twist omega^r on a cyclic subgroup of order q.
* `klein_multiplicities`: coefficients of Klein's invariant Poincare series,
  the trivial-twist multiplicities of 2T, 2O and 2I.
"""

from __future__ import annotations

import math

# (a, b, c) of Klein's series (1 + t^a) / ((1 - t^b)(1 - t^c))
KLEIN = {"2T": (12, 6, 8), "2O": (18, 8, 12), "2I": (30, 12, 20)}

NEAR_INTEGER = 1e-6
SUM_RTOL = 1e-9


def irrep_multiplicities(ref: dict, irrep: str, n_max: int) -> list[int] | None:
    """Rounded float multiplicities 0..n_max; None if any value is not
    within NEAR_INTEGER of a non-negative integer."""
    order = ref["order"]
    classes = []
    for size, cos, (re, im) in zip(ref["sizes"], ref["cos"],
                                   ref["irreps"][irrep]["values"]):
        w = size / order
        if cos >= 1.0:
            classes.append((w * re, w * im, 0.0, 1))
        elif cos <= -1.0:
            classes.append((w * re, w * im, 0.0, -1))
        else:
            theta = math.acos(cos)
            classes.append((w * re, w * im, theta, 0))
    out = []
    for n in range(n_max + 1):
        acc_re = acc_im = 0.0
        for wre, wim, theta, pole in classes:
            if pole == 1:
                u = n + 1.0
            elif pole == -1:
                u = (n + 1.0) if n % 2 == 0 else -(n + 1.0)
            else:
                u = math.sin((n + 1) * theta) / math.sin(theta)
            acc_re += wre * u          # conj(chi) * u, real part
            acc_im -= wim * u
        m = round(acc_re)
        if abs(acc_re - m) > NEAR_INTEGER or abs(acc_im) > NEAR_INTEGER or m < 0:
            return None
        out.append(m)
    return out


def lens_degeneracies(q: int, r: int, n_max: int) -> list[int]:
    step = q // math.gcd(2, q)
    out = []
    for n in range(n_max + 1):
        # k = -n + 2i for i in 0..n; count i with 2i = n + r (mod q)
        first = next((i for i in range(step) if (2 * i - n - r) % q == 0), None)
        count = 0 if first is None or first > n else (n - first) // step + 1
        out.append((n + 1) * count)
    return out


def klein_multiplicities(group: str, n_max: int) -> list[int]:
    a, b, c = KLEIN[group]
    coeffs = [0] * (n_max + 1)
    for i in range(0, n_max + 1, b):          # 1 / ((1 - t^b)(1 - t^c))
        for j in range(i, n_max + 1, c):
            coeffs[j] += 1
    return [coeffs[n] + (coeffs[n - a] if n >= a else 0) for n in range(n_max + 1)]


def spectral_sums(entries: list[int], heat_t: float, zeta_s: float,
                  count_lambda: float) -> list[float]:
    heat = sum(d * math.exp(-heat_t * n * (n + 2)) for n, d in enumerate(entries))
    zeta = sum(d * (n * (n + 2)) ** (-zeta_s) for n, d in enumerate(entries) if n)
    count = float(sum(d for n, d in enumerate(entries) if n * (n + 2) <= count_lambda))
    return [heat, zeta, count]


def sums_match(got: list[float], want: list[float]) -> bool:
    return (len(got) == 3 and got[2] == want[2]
            and all(math.isclose(g, w, rel_tol=SUM_RTOL) for g, w in zip(got[:2], want[:2])))


def check_deep(op: dict, result: dict, ref: dict) -> str | None:
    """None if the query's series and sums are right, else a reason."""
    n_max = op["n_max"]
    entries = result["entries"]
    if len(entries) != n_max + 1:
        return f"{len(entries)} entries for n_max {n_max}"
    gref = ref[op["group"]]
    if op["kind"] == "lens":
        want = lens_degeneracies(gref["lens_orders"][op["gen"]], op["twist"], n_max)
    else:
        mult = irrep_multiplicities(gref, op["twist"], n_max)
        if mult is None:
            return "float reference is not near-integral"
        want = [(n + 1) * m for n, m in enumerate(mult)]
        if op["twist"] == "1":
            klein = klein_multiplicities(op["group"], n_max)
            if mult != klein:
                return "float reference disagrees with Klein's series"
    if entries != want:
        bad = next(n for n, (a, b) in enumerate(zip(entries, want)) if a != b)
        return f"level {bad}: got {entries[bad]}, reference {want[bad]}"
    if not sums_match(result["sums"], spectral_sums(want, op["heat_t"], op["zeta_s"],
                                                    op["count_lambda"])):
        return f"spectral sums {result['sums']} disagree with the reference"
    return None
