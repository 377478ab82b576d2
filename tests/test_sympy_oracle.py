"""Differential oracle: gcd, divmod and the irreducibility test over F_p
against sympy's ``Poly(..., modulus=p)`` on seeded random polynomials of
degree <= 12.  sympy is a test-only dependency; without it the module is
skipped."""

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

