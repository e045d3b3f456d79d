import cmath
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from spaceforms.exactnum import (CONDUCTOR, ONE, ZERO, _cyclotomic_poly, embed_float,
                                 format_value, from_rational, galois, root_of_unity)


def test_conductor_basics():
    assert CONDUCTOR == 120
    assert root_of_unity(1, 0) == ONE
    assert root_of_unity(120, 120) == ONE
    assert math.prod([root_of_unity(120, 1)] * 120, start=ONE) == ONE


def test_root_of_unity_orders():
    z = root_of_unity(8, 1)
    for k in range(1, 9):
        assert (math.prod([z] * k, start=ONE) == ONE) == (k % 8 == 0)
    assert root_of_unity(12, 5) == root_of_unity(120, 50)


def test_conductor_error():
    with pytest.raises(ValueError):
        root_of_unity(7, 1)
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_golden_ratio_embedding():
    # e^{2pi i/5} + e^{-2pi i/5} = (sqrt(5) - 1)/2
    x = root_of_unity(5, 1) + root_of_unity(5, 4)
    want = cmath.exp(2j * cmath.pi / 5) + cmath.exp(-2j * cmath.pi / 5)
    assert abs(embed_float(x) - want) < 1e-12
    assert abs(embed_float(x).real - 0.6180339887498949) < 1e-12


def test_golden_ratio_product_is_minus_one():
    a = root_of_unity(5, 1) + root_of_unity(5, 4)
    b = root_of_unity(5, 2) + root_of_unity(5, 3)
    assert a * b == from_rational(-1)
    # numeric confirmation of the same product
    za, zb = embed_float(a), embed_float(b)
    assert abs(za * zb - (-1)) < 1e-12


def test_inverse_and_conjugate():
    z8 = root_of_unity(8, 1)
    assert z8.conjugate() * z8 == ONE


def test_field_axioms_on_samples():
    rng = random.Random(7)
    vals = [root_of_unity(120, rng.randrange(120)) + from_rational(rng.randint(-3, 3))
            for _ in range(6)]
    for a in vals:
        for b in vals:
            assert a + b == b + a
            assert a * b == b * a
    a, b, c = vals[:3]
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO


def test_division_is_by_rationals_only():
    z8 = root_of_unity(8, 1)
    assert (z8 * 3) / 3 == z8 and z8 / Fraction(1, 2) == z8 * 2
    with pytest.raises(TypeError):
        ONE / z8
    with pytest.raises(TypeError):
        1 / z8
    with pytest.raises(TypeError):
        z8 ** -1


def test_equality_is_subtraction_zero():
    a = root_of_unity(6, 1) + root_of_unity(6, 5)    # = 1
    assert a == ONE
    assert (a - ONE).is_zero()
    b = root_of_unity(6, 1)
    assert a != b


def test_galois_identity_and_conjugation():
    x = root_of_unity(3, 1)
    assert galois(x, 1) == x
    assert galois(x, -1) == root_of_unity(3, 2)
    # the exponent map zeta_5 -> zeta_5^2, realized by a lift coprime
    # to the conductor (17 = 2 mod 5)
    y = root_of_unity(5, 1) + root_of_unity(5, 4)
    assert galois(y, 17) == root_of_unity(5, 2) + root_of_unity(5, 3)


def test_galois_is_ring_automorphism():
    rng = random.Random(11)
    units = [k for k in range(120) if gcd(k, 120) == 1]
    for _ in range(10):
        a = root_of_unity(120, rng.randrange(120)) + from_rational(rng.randint(-2, 2))
        b = root_of_unity(120, rng.randrange(120))
        k = rng.choice(units)
        kp = rng.choice(units)
        assert galois(a + b, k) == galois(a, k) + galois(b, k)
        assert galois(a * b, k) == galois(a, k) * galois(b, k)
        assert galois(galois(a, k), kp) == galois(a, (k * kp) % 120)


def test_galois_rejects_non_units():
    with pytest.raises(ValueError):
        galois(ONE, 2)
    with pytest.raises(ValueError):
        galois(ONE, 15)


def test_trace_to_rationals():
    rng = random.Random(3)
    units = [k for k in range(120) if gcd(k, 120) == 1]
    for _ in range(5):
        x = (root_of_unity(120, rng.randrange(120)) * rng.randint(1, 4)
             + root_of_unity(120, rng.randrange(120)))
        tr = ZERO
        for k in units:
            tr = tr + galois(x, k)
        assert tr.is_rational()


def test_embedding_examples():
    assert embed_float(ONE) == 1.0 + 0j
    assert abs(embed_float(root_of_unity(4, 1)) - 1j) < 1e-12
    x = root_of_unity(10, 1) + root_of_unity(10, 9)
    assert abs(embed_float(x).real - 2 * cmath.cos(cmath.pi / 5).real) < 1e-12


def test_rational_interop():
    half = from_rational(Fraction(1, 2))
    assert (half + half) == ONE
    assert half * 2 == ONE
    assert (ONE / 2) == half
    assert half.as_rational() == Fraction(1, 2)
    with pytest.raises(ValueError):
        root_of_unity(8, 1).as_rational()
    reduced = from_rational(Fraction(6, 4))
    assert (reduced.num[0], reduced.den) == (3, 2) and not any(reduced.num[1:])


def test_format_value_tests_realness_exactly():
    # i / 10^13 is not real, though its imaginary part is below 1e-12
    assert format_value(root_of_unity(4) / 10 ** 13) == "0.0000+0.0000i"
    real = root_of_unity(120, 7) + root_of_unity(120, -7)
    assert format_value(real) == f"{2 * math.cos(2 * math.pi * 7 / 120):.4f}"


def test_hash_and_immutability():
    a = root_of_unity(12, 5)
    b = root_of_unity(120, 50)
    assert hash(a) == hash(b) and a == b
    with pytest.raises(AttributeError):
        a.den = 2


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # a check that shares no step with the Moebius formula: prod_{d | n}
    # Phi_d(x) = x^n - 1 takes no Moebius sign, and for n = 1, 2, ... in turn
    # it fixes Phi_n from the lower ones; deg Phi_d = phi(d) is counted apart
    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for n in (n for n in range(1, CONDUCTOR + 1) if CONDUCTOR % n == 0):
        product = [1]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            phi = _cyclotomic_poly(d)
            assert len(phi) - 1 == sum(gcd(k, d) == 1 for k in range(1, d + 1)), d
            product = times(product, phi)
        assert product == [-1] + [0] * (n - 1) + [1], n
