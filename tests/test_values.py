"""The operators every value class derives from its own +, unary -, * and
is_zero, and the immutability of every value class.

Expected values are literals or payload-kernel results, never built with
the operator under test."""

import re
from fractions import Fraction

import pytest

import locring as L
from locring.errors import DescriptorMismatch, RingMismatch
from locring.fields import FieldElement
from locring.poly import Poly
from locring.quotient import QuotientElement

F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")
F4 = L.parse_field("F2[x]/(x^2+x+1)")

# field, a, b, scalar c, the literals of a - b, a - c, c - a and -a, the
# modulus P of K[X]/(P^2), and a field other than K
CASES = {
    "F3": (F3, "2", "1", 1, "1", "1", "2", "1", "x^2+1", L.PrimeField(5)),
    "Q": (Q, "3/2", "1/3", Fraction(1, 2), "7/6", "1", "-1", "-3/2",
          "x^2-2", F3),
    "F2(t)": (F2T, "t/(t+1)", "1/t", 1, "(t^2+t+1)/(t^2+t)", "1/(t+1)",
              "1/(t+1)", "t/(t+1)", "x^2+x+t", L.PrimeField(2)),
    "F4": (F4, "a", "a+1", 1, "1", "a+1", "a+1", "a", "x^2+x+a",
           L.PrimeField(2)),
}


def _sub(field, x, y):
    return field._padd(x, field._pneg(y))


@pytest.mark.parametrize("name", list(CASES))
def test_derived_operators_and_immutability(name):
    (F, a_text, b_text, c, a_b, a_c, c_a, neg_a, p_text, G) = CASES[name]
    el = lambda text: L.parse_element(F, text)
    a, b = el(a_text), el(b_text)

    # FieldElement
    assert a - b == el(a_b)
    assert a - c == el(a_c)
    assert c - a == el(c_a)
    assert -a == el(neg_a)
    assert c + a == FieldElement(F, F._add(F.coerce(c).payload, a.payload))
    assert c * a == FieldElement(F, F._mul(F.coerce(c).payload, a.payload))
    assert bool(a) and not bool(F.zero())
    other = G.one()
    with pytest.raises(DescriptorMismatch,
                       match=re.escape(f"mixed fields: {F} and {G}")):
        a - other
    with pytest.raises(DescriptorMismatch,
                       match=re.escape(f"mixed fields: {G} and {F}")):
        other - a
    with pytest.raises(TypeError):
        "a" - a

    # Poly
    p, r = Poly(F, [a, b, 1]), Poly(F, [b, a])
    one = F._ptrim((F._from_int(1),))
    assert p - r == Poly._of(F, _sub(F, p.payload, r.payload))
    assert p - 1 == Poly._of(F, _sub(F, p.payload, one))
    assert 1 - p == Poly._of(F, _sub(F, one, p.payload))
    assert -p == Poly._of(F, F._pneg(p.payload))
    assert 2 + p == Poly._of(F, F._padd(F._ptrim((F._from_int(2),)),
                                        p.payload))
    assert 2 * p == Poly._of(F, F._pmul(F._ptrim((F._from_int(2),)),
                                        p.payload))
    assert bool(p) and not bool(Poly.zero(F))
    assert Poly(F, (1,)) == 1 and Poly(F, (1,)) != 0 and Poly.zero(F) == 0
    with pytest.raises(DescriptorMismatch, match=re.escape(
            f"mixed coefficient fields: {F} and {G}")):
        p - Poly(G, (1, 1))
    with pytest.raises(TypeError):
        "a" - p

    # QuotientElement
    ring = L.QuotientRing(L.parse_poly(F, p_text), 2, assume_irreducible=True)
    m = ring.modulus.payload
    reduced = lambda x: QuotientElement(ring, Poly._of(F, F._prem(x, m)))
    u, v = ring.element(Poly(F, [a, b, 0, 1])), ring.element(r)
    assert u - v == reduced(_sub(F, u.rep.payload, v.rep.payload))
    assert u - 1 == reduced(_sub(F, u.rep.payload, one))
    assert 1 - u == reduced(_sub(F, one, u.rep.payload))
    assert -u == reduced(F._pneg(u.rep.payload))
    assert u - r == reduced(_sub(F, u.rep.payload, r.payload))
    assert r - u == reduced(_sub(F, r.payload, u.rep.payload))
    assert isinstance(r - u, QuotientElement)
    assert bool(u) and bool(ring.element(ring.p)) and not bool(ring.zero())
    other_ring = ring.at_power(1)
    with pytest.raises(RingMismatch, match=re.escape(
            f"elements of {ring} and {other_ring} combined")):
        u - other_ring.one()
    with pytest.raises(RingMismatch, match=re.escape(
            f"elements of {other_ring} and {ring} combined")):
        other_ring.one() - u
    with pytest.raises(TypeError):
        "a" - u

    # every value class is immutable and has no __dict__
    values = [a, p, u, ring, L.StabilizingMorphism.identity(ring),
              L.frobenius()]
    for value in values:
        kind = type(value).__name__
        for attr in ("payload", "fresh"):
            with pytest.raises(AttributeError,
                               match=f"^{kind} is immutable$"):
                setattr(value, attr, None)
        assert not hasattr(value, "__dict__")
