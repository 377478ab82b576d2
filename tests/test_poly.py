import random
from fractions import Fraction

import pytest

import locring as L
from locring.errors import (
    DivisionByZero,
    InexactDivision,
    InvalidArgument,
    ParseError,
    UnsupportedField,
)
from locring.fields import Field, FieldElement
from locring.poly import MAX_TABLE_WORK, Poly, enumerate_polys

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")


def P(field, text):
    return L.parse_poly(field, text)


def rand_poly(field, rng, max_deg=5):
    d = rng.randint(-1, max_deg)
    if d < 0:
        return Poly.zero(field)
    return Poly(field, [field.random_element(rng) for _ in range(d)]
                + [field.random_element(rng)])


# -- arithmetic -------------------------------------------------------------

def test_freshman_dream_char2():
    assert P(F2, "x+1") * P(F2, "x+1") == P(F2, "x^2+1")


def test_additive_identity():
    assert P(Q, "x^2-2") + Poly.zero(Q) == P(Q, "x^2-2")


def test_product_mod3():
    assert P(F3, "x+2") * P(F3, "x+1") == P(F3, "x^2+2")


def test_divmod_examples():
    q, r = divmod(P(F3, "x^2+1"), P(F3, "x+1"))
    assert q == P(F3, "x+2") and r == P(F3, "2")
    p = P(F2, "x^3+x+1")
    assert divmod(p * p, p) == (p, Poly.zero(F2))
    assert divmod(Poly.one(Q), Poly.x(Q)) == (Poly.zero(Q), Poly.one(Q))


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(Poly.x(Q), Poly.zero(Q))


@pytest.mark.parametrize("field", [F2, F3, Q, F2T], ids=repr)
def test_divmod_round_trip(field):
    rng = random.Random(1)
    for _ in range(500):
        a = rand_poly(field, rng)
        b = rand_poly(field, rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


# -- payload kernel ---------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 7])
def test_prime_kernel_agrees_with_generic_kernel(p):
    # PrimeField replaces the Field kernel's multiply and divide loops with
    # int loops; the generic loops Field._pdivide and _pmulmod are the
    # reference
    F = L.PrimeField(p)
    rng = random.Random(p)
    fixed = [((), ()), ((), (1,)), ((1,), ()), ((0, 1, 1, 1, 1), (1, 1)),
             ((1, 1), (0, 0, 0, 1)), ((1,), (1, 0, 1))]
    pairs = fixed + [
        tuple(F._ptrim([rng.randrange(p) for _ in range(rng.randint(0, 7))])
              for _ in range(2))
        for _ in range(300)]
    for a, b in pairs:
        a, b = F._ptrim(a), F._ptrim(b)
        assert F._pmul(a, b) == Field._pmul(F, a, b)
        if b:
            assert F._pdivmod(a, b) == Field._pdivide(F, a, b, True)
            assert F._pmulmod(a, a, b) == Field._pmulmod(F, a, a, b)
        else:
            with pytest.raises(DivisionByZero):
                F._pdivmod(a, b)
            with pytest.raises(DivisionByZero):
                Field._pdivide(F, a, b, True)


F3T = L.RationalFunctionField(3, "t")
# (dividend, divisor) texts per field: a constant, a monic integral divisor,
# a divisor with a fractional coefficient whose cleared leading coefficient
# is a unit, one whose cleared leading coefficient is not (x^2+x/2 clears to
# 2x^2+x), a unit leading coefficient other than 1, and zero coefficients
# inside the operands
FRACTION_KERNEL_CASES = {
    Q: [("x^3/5-2", "7/3"), ("7/3", "x^2-2"), ("x^5+x/3+1", "x^2-2"),
        ("x^4/7-x+1/2", "x^2/2+1"), ("x^3-x/5", "-x^3/6+x/2+1/3"),
        ("x^4+x/3", "x^2+x/2"), ("x^2+1", "2*x/3+1"), ("x^5-1", "-x^2+1"),
        ("x^6+1/2", "x^4+3")],
    F2T: [("x^3/t+1", "(t+1)/t"), ("x^5+x/t+t", "x^2+x+t"),
          ("x^4/(t+1)+x", "x^2/(t^2+t)+x/t+1"), ("x^4+x/t", "x^2+x/t"),
          ("x^3+t", "t*x+1"), ("x^6+1/t", "x^4+t^3")],
    F3T: [("x^4/t+2", "2*x^2+x+t"), ("x^5+t*x", "x^2/t+2"),
          ("x^3+1", "(2*t+1)/(t^2+1)*x^2+x+2"), ("x^6+2/t", "x^4+t")],
}


def _integral(field, rng):
    if field == Q:
        return Q._from_int(rng.randint(-5, 5))
    return field._canon(([rng.randrange(field.p) for _ in range(3)], (1,)))


@pytest.mark.parametrize("F", [Q, F2T, F3T], ids=repr)
def test_fraction_kernels_agree_with_generic_kernel(F):
    # the common-denominator loops of Q and F_p(t) against the Field kernel,
    # whose generic loop Field._pdivide is the reference for division
    zero, one = F._from_int(0), F._from_int(1)
    rng = random.Random(repr(F))
    fixed = [(P(F, a).payload, P(F, b).payload)
             for a, b in FRACTION_KERNEL_CASES[F]]
    fixed += [((), ()), ((), (one,)), ((one,), ()), ((), (one, one))]
    a, b = fixed[1]
    fixed += [(a + (zero, zero), b)]  # an untrimmed dividend

    def rand(n):
        return F._ptrim([F.random_payload(rng) if rng.random() < 0.8 else zero
                         for _ in range(n)])

    pairs = list(fixed)
    for i in range(300):
        a, n = rand(rng.randint(0, 7)), rng.randint(0, 4)
        b = rand(n)
        if i % 3:
            # a monic integral divisor, or one over a common denominator c
            b = tuple(_integral(F, rng) for _ in range(n)) + (one,)
            c = _integral(F, rng)
            if i % 3 == 2 and not F._is_zero(c):
                b = F._pmul(b, (F._inv(c),))
        pairs.append((a, b))
    for a, b in pairs:
        assert F._pmul(a, b) == Field._pmul(F, a, b)
        assert F._pmul(b, a) == Field._pmul(F, b, a)
        if b:
            assert F._pdivmod(a, b) == Field._pdivide(F, a, b, True)
        else:
            with pytest.raises(DivisionByZero):
                F._pdivmod(a, b)
            with pytest.raises(DivisionByZero):
                Field._pdivide(F, a, b, True)


F4 = L.ExtensionField(F2, (1, 1, 1))
TOWER = L.ExtensionField(F4, (F4.gen(), 1, 1))


@pytest.mark.parametrize("F", [F2, F3, L.PrimeField(7), Q, F2T, F3T, F4,
                               TOWER], ids=repr)
def test_prem_is_the_remainder_of_pdivmod(F):
    # every field divides without building the quotient when only the
    # remainder is asked for
    zero, one = F._from_int(0), F._from_int(1)
    rng = random.Random(repr(F))

    def rand(n, lead=False):
        # n coefficients, the last one nonzero when ``lead``
        out = [F.random_payload(rng) for _ in range(n)]
        while lead and n and F._is_zero(out[-1]):
            out[-1] = F.random_payload(rng)
        return F._ptrim(out)

    cases = [((), (one,)), ((one,), (one, one)), ((one, zero, zero),
             (one, one, one, one)), ((one, one, one), (one, one))]
    for _ in range(200):
        nb = rng.randint(1, 5)
        # dividends shorter than, as long as and longer than the divisor
        cases.append((rand(rng.randint(0, 9)), rand(nb, lead=True)))
        cases.append((rand(nb - 1), rand(nb, lead=True)))
    # every divisor over F2 is monic
    assert F == F2 or any(b[-1] != one for _, b in cases)
    for a, b in cases:
        assert F._prem(a, b) == F._pdivmod(a, b)[1]
    for a in ((), (one,), (one, one)):
        with pytest.raises(DivisionByZero):
            F._prem(a, ())
        with pytest.raises(DivisionByZero):
            F._pmulmod(a, a, ())


def test_poly_stores_payloads_and_boxes_coefficients():
    F4 = L.ExtensionField(F2, (1, 1, 1))
    a = P(F4, "a*x+1")
    assert a.payload == ((1,), (0, 1))
    assert all(isinstance(c, FieldElement) and c.field == F4
               for c in a.coeffs)
    assert a.coeffs == (F4.one(), F4.gen())
    assert a.leading() == F4.gen() and a.coeff(5) == F4.zero()
    # an extension element's payload is a trimmed tuple of base-field payloads
    assert F4.gen().payload == (0, 1)
    assert (F4.gen() ** 2).payload == (1, 1)


# -- gcd --------------------------------------------------------------------

def test_ext_gcd_bezout_example():
    g, u, v = L.ext_gcd(P(Q, "2*x"), P(Q, "x^2-2"))
    assert g == Poly.one(Q)
    assert u == P(Q, "x/4")
    assert v == P(Q, "-1/2")


def test_ext_gcd_common_factor():
    p = P(F2, "x^3+x+1")
    g, u, v = L.ext_gcd(p, p * p)
    assert g == p.monic()
    assert u * p + v * p * p == g


def test_ext_gcd_unit_argument():
    g, u, v = L.ext_gcd(P(F2, "x^2+x+1"), Poly.one(F2))
    assert g == Poly.one(F2)
    assert u == Poly.zero(F2) and v == Poly.one(F2)


@pytest.mark.parametrize("field", [F2, F3, Q], ids=repr)
def test_ext_gcd_properties(field):
    rng = random.Random(2)
    for _ in range(500):
        a = rand_poly(field, rng, 4)
        b = rand_poly(field, rng, 4)
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = L.ext_gcd(a, b)
        assert u * a + v * b == g
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


# -- derivative -------------------------------------------------------------

def test_derivative_examples():
    assert P(F2T, "x^2+t").derivative().is_zero()
    assert P(Q, "x^2-2").derivative() == P(Q, "2*x")
    assert P(F2, "x^3+x+1").derivative() == P(F2, "x^2+1")


@pytest.mark.parametrize("field", [F2, F3, Q], ids=repr)
def test_derivative_linearity_and_product_rule(field):
    rng = random.Random(3)
    for _ in range(200):
        a = rand_poly(field, rng, 4)
        b = rand_poly(field, rng, 4)
        assert (a + b).derivative() == a.derivative() + b.derivative()
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


# -- composition ------------------------------------------------------------

def test_compose_mod_examples():
    p = P(F2, "x^3+x+1")
    assert p.compose_mod(P(F2, "x^2"), p * p).is_zero()
    m = P(F3, "x^3+2*x+1")
    assert P(F3, "x^2+x").compose_mod(Poly.x(F3), m) == P(F3, "x^2+x")
    assert P(F3, "x^2+1").compose_mod(P(F3, "x+2"), P(F3, "x^2+x+2")).is_zero()


@pytest.mark.parametrize("field", [F2, F3, Q], ids=repr)
def test_compose_mod_against_naive_composition(field):
    rng = random.Random(4)
    for _ in range(200):
        a = rand_poly(field, rng, 3)
        q = rand_poly(field, rng, 3)
        m = rand_poly(field, rng, 3)
        if m.is_zero():
            continue
        assert a.compose_mod(q, m) == a.compose(q) % m


def test_exact_div():
    p = P(F3, "x^2+1")
    assert L.exact_div(p * p, p) == p
    with pytest.raises(InexactDivision):
        L.exact_div(P(F3, "x^2+1"), P(F3, "x+1"))


# -- irreducibility ---------------------------------------------------------

def test_is_irreducible_examples():
    assert L.is_irreducible(P(F2, "x^2+x+1"))
    assert not L.is_irreducible(P(F2, "x^2+1"))  # (x+1)^2
    assert L.is_irreducible(P(F3, "x^2+1"))


def test_is_irreducible_requires_finite_field():
    with pytest.raises(UnsupportedField):
        L.is_irreducible(P(Q, "x^2-2"))


def test_enumerate_irreducibles_examples():
    assert L.enumerate_irreducibles(F2, 2) == [P(F2, "x^2+x+1")]
    assert set(L.enumerate_irreducibles(F2, 3)) == {P(F2, "x^3+x+1"),
                                                    P(F2, "x^3+x^2+1")}
    assert L.enumerate_irreducibles(F3, 1) == [P(F3, "x"), P(F3, "x+1"),
                                               P(F3, "x+2")]


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _necklace_count(q, d):
    # number of monic irreducibles of degree d over F_q
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


F5 = L.PrimeField(5)
F7 = L.PrimeField(7)
F9 = L.ExtensionField(F3, (1, 0, 1))


@pytest.mark.parametrize("field,q", [(F2, 2), (F3, 3), (F5, 5), (F7, 7),
                                     (F4, 4), (F9, 9)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_irreducible_counts(field, q, d):
    assert len(L.enumerate_irreducibles(field, d)) == _necklace_count(q, d)


@pytest.mark.parametrize("field,max_degree", [
    (F2, 8), (F3, 5), (F5, 3), (F7, 3), (F4, 3), (F9, 3), (TOWER, 2)],
    ids=repr)
def test_sieve_matches_the_irreducibility_test_in_order(field, max_degree):
    for d in range(1, max_degree + 1):
        assert L.enumerate_irreducibles(field, d) == [
            p for p in enumerate_polys(field, d) if L.is_irreducible(p)]


def test_enumeration_is_charged_before_allocating():
    assert 2 ** 25 > MAX_TABLE_WORK
    for d in (25, 10 ** 9):
        with pytest.raises(InvalidArgument, match="work bound"):
            L.enumerate_irreducibles(F2, d)


def test_irreducibility_cache_is_bounded():
    assert isinstance(L.is_irreducible.cache_info().maxsize, int)


def test_a_modulus_is_decided_once_per_process():
    p = P(F3, "x^3+2*x+1")
    L.is_irreducible.cache_clear()
    L.find_residue_isomorphisms.cache_clear()
    for n in range(1, 5):
        L.QuotientRing(p, n)
    L.find_residue_isomorphisms(p, p)
    info = L.is_irreducible.cache_info()
    assert info.misses == 1 and info.hits >= 5


def test_enumerate_polys_brute_force_agrees():
    # every monic quadratic over F2 that is irreducible has no root
    for p in enumerate_polys(F2, 2):
        has_root = any(p.evaluate(a).is_zero() for a in F2.elements())
        assert L.is_irreducible(p) == (not has_root)


# -- parsing and formatting -------------------------------------------------

def test_parse_format_round_trip():
    rng = random.Random(5)
    for field in [F2, F3, Q, F2T]:
        for _ in range(100):
            a = rand_poly(field, rng)
            assert L.parse_poly(field, L.format_poly(a)) == a


def test_parse_rejects_invalid_coefficient():
    with pytest.raises(ParseError, match="2"):
        L.parse_poly(F2T, "(1/2)*x^2 + t")


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ParseError, match="y"):
        L.parse_poly(F3, "x^2 + y")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        L.parse_poly(F3, "x^2 + 1 )")


def test_parse_power_pins():
    assert P(F3, "x^0") == Poly.one(F3)
    assert P(Q, "x^1024") == Poly(Q, (0,) * 1024 + (1,))
    with pytest.raises(ParseError, match="1025 raises the degree"):
        P(Q, "x^1025")
    assert P(F3, "(x+1)^3") == Poly(F3, (1, 0, 0, 1))
    assert P(Q, "(x+1)^3") == Poly(Q, (1, 3, 3, 1))


def test_parse_division_pins():
    with pytest.raises(ParseError,
                       match=r"non-constant polynomial '\(x\+1\)'"):
        P(Q, "x/(x+1)")
    with pytest.raises(ParseError, match="cannot divide by '0': it is zero"):
        P(F3, "1/0")


def test_parse_element():
    assert L.parse_element(F2T, "1/t") == 1 / F2T.gen()
    assert L.parse_element(Q, "-3/4") == Fraction(-3, 4)


def test_format_examples():
    assert L.format_poly(P(F2, "x^3+x+1")) == "x^3+x+1"
    assert L.format_poly(P(Q, "x^2-2")) == "x^2-2"
    assert L.format_poly(Poly.zero(Q)) == "0"
    assert L.format_poly(P(Q, "x/4")) == "(1/4)*x"


def boxed_format_poly(a, var="x"):
    """The formatter on boxed coefficients, through ``coeff(i)`` and
    ``str``: the reference for ``format_poly``, which reads payloads."""
    if a.is_zero():
        return "0"
    parts = []
    for i in range(a.degree, -1, -1):
        c = a.coeff(i)
        if c.is_zero():
            continue
        cs = str(c)
        if i == 0:
            parts.append(f"({cs})" if L.poly._needs_parens(cs) else cs)
            continue
        xs = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            term = xs
        elif cs == "-1":
            term = f"-{xs}"
        else:
            if L.poly._needs_parens(cs):
                cs = f"({cs})"
            term = f"{cs}*{xs}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


@pytest.mark.parametrize("field", [F2, L.PrimeField(7), Q, F2T, F3T, F4, F9,
                                   TOWER], ids=repr)
def test_format_poly_matches_the_boxed_formatter(field):
    rng = random.Random(5)
    polys = [rand_poly(field, rng, 6) for _ in range(300)]
    polys += [Poly.one(field), -Poly.x(field), Poly(field, (0, 0, -1))]
    for a in polys:
        for var in ("x", "y"):
            assert L.format_poly(a, var) == boxed_format_poly(a, var)
