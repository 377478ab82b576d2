"""Differential oracle: gcd, divmod and the irreducibility test over F_p
against sympy's ``Poly(..., modulus=p)`` on seeded random polynomials of
degree <= 12, and products, sums and divmod over Q and F3(t) against
sympy's ``QQ`` and ``GF(3)(t)``.  sympy is a test-only dependency; without
it the module is skipped."""

import random

import pytest

sympy = pytest.importorskip("sympy")

import locring as L  # noqa: E402
from locring.poly import Poly, gcd, is_irreducible  # noqa: E402

X = sympy.Symbol("x")
PRIMES = (2, 3, 7)
CASES = 40


def _random(field, rng, degree):
    """A polynomial of exact degree ``degree``."""
    p = field.p
    return Poly(field, [rng.randrange(p) for _ in range(degree)]
                + [rng.randrange(1, p)])


def _to_sympy(a):
    return sympy.Poly(list(reversed(a.payload)) or [0], X, modulus=a.field.p)


def _from_sympy(field, s):
    # sympy prints GF(p) coefficients in the symmetric range -p/2..p/2
    return Poly(field, [int(c) % field.p for c in reversed(s.all_coeffs())])


def _triples(rng):
    for p in PRIMES:
        field = L.PrimeField(p)
        for _ in range(CASES):
            yield field, rng.randint(1, 12), rng.randint(1, 12)


def test_gcd_matches_sympy():
    rng = random.Random(11)
    for field, da, db in _triples(rng):
        # a common factor of degree <= 4 makes most gcds nontrivial
        c = _random(field, rng, rng.randint(0, 4))
        a = c * _random(field, rng, max(da - c.degree, 0))
        b = c * _random(field, rng, max(db - c.degree, 0))
        expected = _from_sympy(field, sympy.gcd(_to_sympy(a), _to_sympy(b)))
        assert gcd(a, b) == expected, (a, b)


def test_divmod_matches_sympy():
    rng = random.Random(12)
    for field, da, db in _triples(rng):
        a, b = _random(field, rng, da), _random(field, rng, db)
        quo, rem = _to_sympy(a).div(_to_sympy(b))
        assert divmod(a, b) == (_from_sympy(field, quo),
                                _from_sympy(field, rem)), (a, b)


def test_is_irreducible_matches_sympy():
    rng = random.Random(13)
    for field, da, db in _triples(rng):
        a = _random(field, rng, da)
        # products of two factors are reducible; keep their degree <= 12
        b = _random(field, rng, min(da, 6)) * _random(field, rng, min(db, 6))
        for poly in (a, b):
            assert is_irreducible(poly) == _to_sympy(poly).is_irreducible, poly



# ---------------------------------------------------------------------------
# the fraction fields: Poly products, divmod and sums over Q and F3(t)
# against sympy's QQ and GF(3)(t)

T = sympy.Symbol("t")
FRACTION_CASES = 30


def _fraction_domain(field):
    if isinstance(field, L.Rationals):
        return sympy.QQ
    return sympy.FF(field.p).frac_field(T)


def _fraction_to_sympy(field, domain, c):
    if isinstance(field, L.Rationals):
        return domain(*c)
    num, den = (sum(int(k) * T ** i for i, k in enumerate(part))
                for part in c)
    return domain.from_sympy(num / den)


def _fraction_poly_to_sympy(a):
    domain = _fraction_domain(a.field)
    coeffs = [_fraction_to_sympy(a.field, domain, c) for c in a.payload]
    return sympy.Poly(list(reversed(coeffs)) or [0], X, domain=domain)


def _random_fraction_poly(field, rng, degree):
    """Coefficients drawn so that zeros, integers and shared denominators
    occur as well as general fractions; nonzero leading coefficient."""
    def coeff():
        r = rng.random()
        if r < 0.2:
            return field._from_int(0)
        if r < 0.4:
            return field._from_int(rng.randint(1, 5))
        return field.random_payload(rng)
    coeffs = [coeff() for _ in range(degree + 1)]
    while field._is_zero(coeffs[-1]):
        coeffs[-1] = coeff()
    return Poly._of(field, field._ptrim(coeffs))


@pytest.mark.parametrize("field", [L.Rationals(),
                                   L.RationalFunctionField(3, "t")],
                         ids=repr)
def test_fraction_field_arithmetic_matches_sympy(field):
    rng = random.Random(14)
    s = _fraction_poly_to_sympy

    def same(ours, theirs):
        # sympy keeps GF(p)(t) fractions up to a unit, so == can miss
        return (s(ours) - theirs).is_zero
    for _ in range(FRACTION_CASES):
        a = _random_fraction_poly(field, rng, rng.randint(0, 5))
        b = _random_fraction_poly(field, rng, rng.randint(0, 4))
        assert same(a * b, s(a) * s(b)), (a, b)
        assert same(a + b, s(a) + s(b)), (a, b)
        assert same(a - b, s(a) - s(b)), (a, b)
        assert (a - a).is_zero()
        quo, rem = divmod(a, b)
        squo, srem = s(a).div(s(b))
        assert same(quo, squo) and same(rem, srem), (a, b)
