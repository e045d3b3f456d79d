"""Property tests for the exact arithmetic: the CycloNum field laws, the
Galois action, the trace form, the reduction to GF(241), the
class-function inner product, the Galois-stability flags that choose its
route, and the integer quaternion product on the lattice Z[sqrt d]/4 that
builds the groups.

Examples are derived from the test source (derandomize) and no example
database is written, so every run checks the same cases."""

from fractions import Fraction
from math import gcd

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spaceforms.characters import (ClassFunction, character_table, galois_stable,
                                   inner_product, restrict, spin_character,
                                   trivial_character)
from spaceforms.exactnum import (CONDUCTOR, DEGREE, ONE, PRIME, ZERO, CycloNum,
                                 _primitive_root_of_unity, reduce_mod_p,
                                 root_of_unity, trace_form)
from spaceforms.groups import lattice_mul, lattice_quat, lattice_to_quat
from spaceforms.induction import induce_character

# no shrink phase: shrinking the dense 32-coefficient examples takes minutes,
# while the unshrunk counterexample is reported in seconds
exact = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                 phases=[Phase.explicit, Phase.generate])

cyclo = st.builds(lambda num, den: CycloNum(tuple(num), den),
                  st.lists(st.integers(-6, 6), min_size=DEGREE, max_size=DEGREE),
                  st.integers(1, 12))
nonzero_rational = st.builds(Fraction, st.integers(-20, 20).filter(bool),
                             st.integers(1, 20))
UNITS = [k for k in range(1, CONDUCTOR) if gcd(k, CONDUCTOR) == 1]
unit = st.sampled_from(UNITS)


@exact
@given(cyclo, cyclo, cyclo)
def test_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and a + (-a) == ZERO


@exact
@given(cyclo, cyclo)
def test_products_match_the_complex_embedding(a, b):
    # an independent route: multiply the images in C
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-6


@exact
@given(cyclo, cyclo)
def test_reduction_mod_p_is_a_ring_homomorphism(a, b):
    # zeta -> z respects sums and products, and conjugation zeta -> zeta^-1
    # becomes z -> z^-1, evaluated here on the coefficients
    p = PRIME
    assert reduce_mod_p(a + b) == (reduce_mod_p(a) + reduce_mod_p(b)) % p
    assert reduce_mod_p(a * b) == reduce_mod_p(a) * reduce_mod_p(b) % p
    z_inv = pow(_primitive_root_of_unity(p), -1, p)
    at_z_inv = sum(c * pow(z_inv, i, p) for i, c in enumerate(a.num)) * pow(a.den, -1, p)
    assert reduce_mod_p(a.conjugate()) == at_z_inv % p
    assert reduce_mod_p(ONE) == 1 and reduce_mod_p(CycloNum.zeta(1)) == pow(z_inv, -1, p)


@exact
@given(cyclo, nonzero_rational, nonzero_rational)
def test_division_by_rationals(a, q, r):
    assert (a / q) * q == a
    assert a / q == a * (1 / q)
    assert (a / q) / r == a / (q * r)


@exact
@given(cyclo, cyclo, unit, unit)
def test_galois_action_is_a_homomorphism_and_composes(a, b, k, l):
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert ONE.galois(k) == ONE
    assert a.galois(l).galois(k) == a.galois(k * l % CONDUCTOR)
    assert a.galois(1) == a


@exact
@given(cyclo)
def test_conjugate_is_sigma_minus_one_and_an_involution(a):
    assert a.conjugate() == a.galois(CONDUCTOR - 1)
    assert a.conjugate().conjugate() == a
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


@exact
@given(cyclo, cyclo)
def test_trace_form_is_the_field_trace(a, b):
    # Tr(x) is the sum of the 32 Galois conjugates of x
    x = a.conjugate() * b
    trace = sum((x.galois(k) for k in UNITS), ZERO)
    assert trace == CycloNum.from_rational(Fraction(trace_form(a, b), a.den * b.den))


lattice = st.lists(st.integers(-9, 9), min_size=8, max_size=8).map(tuple)


@exact
@given(st.sampled_from([2, 5]), lattice, lattice)
def test_lattice_product_is_the_quaternion_product(d, a, b):
    # b is scaled into (Z[sqrt d])^4, so both products stay on the lattice
    b = tuple(4 * v for v in b)
    for x, y in ((a, b), (b, a)):
        product = lattice_mul(x, y, d)
        assert lattice_to_quat(product, d) == lattice_to_quat(x, d) * lattice_to_quat(y, d)
        assert lattice_quat(lattice_to_quat(product, d), d) == product


def _groups():
    from spaceforms.groups import binary_polyhedral
    return [binary_polyhedral(name) for name in ("2T", "2O", "2I")]


# a class-function value: a few roots of unity with small coefficients,
# over a small denominator, as character values are
value = st.builds(lambda terms, den: sum((root_of_unity(CONDUCTOR, e) * c
                                          for e, c in terms), ZERO) / den,
                  st.lists(st.tuples(st.integers(0, CONDUCTOR - 1), st.integers(-4, 4)),
                           max_size=3),
                  st.integers(1, 6))


def class_functions(G, count):
    return st.lists(st.lists(value, min_size=G.num_classes, max_size=G.num_classes)
                    .map(lambda values: ClassFunction(G, values)),
                    min_size=count, max_size=count)


@exact
@given(st.sampled_from(_groups()).flatmap(lambda G: class_functions(G, 3)), value)
def test_inner_product_is_sesquilinear_and_hermitian(fs, lam):
    a, b, c = fs
    assert inner_product(a * lam + b, c) == \
        lam.conjugate() * inner_product(a, c) + inner_product(b, c)
    assert inner_product(a, b * lam + c) == \
        lam * inner_product(a, b) + inner_product(a, c)
    assert inner_product(a, b) == inner_product(b, a).conjugate()


def virtual_pair(G):
    k = G.num_classes
    coeffs = st.lists(st.integers(-5, 5), min_size=k, max_size=k)
    return st.tuples(st.just(G), coeffs, coeffs)


@exact
@given(st.sampled_from(_groups()).flatmap(virtual_pair))
def test_inner_product_of_virtual_characters_is_the_integer_dot(pair):
    G, a, b = pair
    table = list(character_table(G))
    chi_a = ClassFunction(G, [ZERO] * G.num_classes)
    chi_b = chi_a
    for ir, x, y in zip(table, a, b):
        chi_a = chi_a + ir.char * x
        chi_b = chi_b + ir.char * y
    got = inner_product(chi_a, chi_b)
    assert got == CycloNum.from_rational(sum(x * y for x, y in zip(a, b)))
    assert got.as_integer() == sum(x * y for x, y in zip(a, b))


# Stability flags: operands on a group, among them a function that is not
# stable and an unflagged copy of a stable one, combined by every
# operation that sets a flag without the check
SCALARS = (3, Fraction(-2, 5), CycloNum.from_rational(7), root_of_unity(5),
           root_of_unity(8, 3))
OPERATIONS = ("add", "sub", "mul", "scale", "rscale", "conjugate", "restrict-induce")
steps = st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 99),
                           st.integers(0, 99), st.sampled_from(SCALARS),
                           st.sampled_from("RST")),
                 min_size=1, max_size=8)


def _flag_operands(G):
    """Flagged operands, two that are not stable and one unflagged copy."""
    table = character_table(G)
    k = G.num_classes
    off_at_e = ClassFunction(G, (root_of_unity(5),) + (ONE,) * (k - 1))
    off_at_t = ClassFunction(G, table["2s"].char.values[:-1] + (root_of_unity(8),))
    return [table["2s"].char, table.irreps[-1].char, spin_character(G, 3),
            trivial_character(G), induce_character(G.cyclic_subgroup("T"), 1),
            off_at_e, off_at_t, ClassFunction(G, table.irreps[-1].char.values)]


@exact
@given(st.sampled_from(_groups()), steps)
def test_every_stability_flag_agrees_with_the_exact_check(G, steps):
    pool = _flag_operands(G)
    made = []
    for op, i, j, scalar, gen in steps:
        f, g = pool[i % len(pool)], pool[j % len(pool)]
        if op == "restrict-induce":
            H = G.cyclic_subgroup(gen)
            made.append(restrict(f, H))
            out = induce_character(H, made[-1])
        else:
            out = {"add": lambda: f + g, "sub": lambda: f - g, "mul": lambda: f * g,
                   "scale": lambda: f * scalar, "rscale": lambda: scalar * f,
                   "conjugate": f.conjugate}[op]()
        made.append(out)
        pool.append(out)
    for f in made:
        if f.stable is not None:
            assert galois_stable(ClassFunction(f.group, f.values)) is f.stable
