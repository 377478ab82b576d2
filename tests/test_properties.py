"""Property tests: the field axioms of the scalar ops over Q and F_p(t),
p in {2, 3, 5}, and the gcd of the F_p kernel, on payloads that Hypothesis
draws.  Hypothesis is a test-only dependency; without it the module is
skipped."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import locring as L  # noqa: E402

# a few hundred examples in all keep the module near a second
SETTINGS = settings(max_examples=150, deadline=None, database=None)
PRIMES = (2, 3, 5)
Q = L.Rationals()
FUNCTION_FIELDS = {p: L.RationalFunctionField(p) for p in PRIMES}


def _fp_coeffs(p, max_size):
    return st.lists(st.integers(0, p - 1), max_size=max_size)


@st.composite
def rational_triples(draw):
    ints = st.integers(-10 ** 6, 10 ** 6)
    return Q, [Q._reduce(draw(ints), draw(ints.filter(bool)))
               for _ in range(3)]


@st.composite
def function_field_triples(draw):
    field = FUNCTION_FIELDS[draw(st.sampled_from(PRIMES))]
    trim = field._fp._ptrim

    def payload():
        num = trim(draw(_fp_coeffs(field.p, 4)))
        den = trim(draw(_fp_coeffs(field.p, 4).filter(any)))
        return field._reduce(num, den)
    return field, [payload() for _ in range(3)]


@SETTINGS
@given(st.one_of(rational_triples(), function_field_triples()))
def test_field_axioms(case):
    field, (a, b, c) = case
    add, mul = field._add, field._mul
    zero, one = field._from_int(0), field._from_int(1)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert add(a, field._neg(a)) == zero
    if not field._is_zero(a):
        assert mul(a, field._inv(a)) == one


@st.composite
def gcd_cases(draw):
    field = L.PrimeField(draw(st.sampled_from(PRIMES)))
    a, b, c = (field._ptrim(draw(_fp_coeffs(field.p, 6))) for _ in range(3))
    # a shared factor c makes the gcd nontrivial
    return field, field._pmul(a, c), field._pmul(b, c), c


@SETTINGS
@given(gcd_cases())
def test_gcd_is_monic_and_divides_both(case):
    field, a, b, c = case
    g = field._pgcd(a, b)
    if not a and not b:
        assert g == ()
        return
    assert g[-1] == 1
    assert field._pdivmod(a, g)[1] == () and field._pdivmod(b, g)[1] == ()
    if c:
        assert field._pdivmod(g, c)[1] == ()
