import random

import pytest

import locring as L
from locring import fields, hensel
from locring.errors import (InexactDivision, NotIrreducible, NotMonic,
                            NotSeparable, RingMismatch)
from locring.hensel import (
    ResidueDigits,
    digits_mul,
    from_digits,
    structure_isomorphism_check,
    to_digits,
)
from locring.poly import Poly, exact_div

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")
F3T = L.RationalFunctionField(3, "t")
F4 = L.ExtensionField(F2, (1, 1, 1))
F16 = L.parse_field("F2[x]/(x^2+x+1)[x]/(x^2+x+a)")
# coefficient payloads: int pairs, pairs of tuples and nested tuples; the
# last two moduli clear to leading numerators 2 and t, which are not units,
# so every digit chain over them takes the generic division
PAYLOAD_KINDS = [(Q, "x^2-2"), (F2T, "x^2+x+t"), (F4, "x^2+x+a"),
                 (Q, "x^2-1/2"), (F3T, "x^2+x/t+1")]


def P(field, text):
    return L.parse_poly(field, text)


# -- Taylor shift certificate ----------------------------------------------

def test_shift_certificate_square():
    # (x+c)^2 = x^2 + 2cx + c^2, so the quadratic cofactor is 1
    for c in [1, 2, 5]:
        r = L.taylor_shift_certificate(P(Q, "x^2"), Poly(Q, (c,)))
        assert r == Poly.one(Q)


def test_shift_certificate_quadratic_general():
    rng = random.Random(0)
    p = P(Q, "x^2-2")
    for _ in range(20):
        d = rng.randint(0, 3)
        q = Poly(Q, [Q.random_element(rng) for _ in range(d + 1)])
        if q.is_zero():
            continue
        assert L.taylor_shift_certificate(p, q) == Poly.one(Q)


def test_shift_certificate_cubic_over_f2():
    # q = x over F2: p(x+q) = p(0) = 1 and p + p'*q = 1, so the cofactor
    # vanishes identically
    p = P(F2, "x^3+x+1")
    r = L.taylor_shift_certificate(p, Poly.x(F2))
    assert r.is_zero()
    assert p.compose(Poly.x(F2) + Poly.x(F2)) == Poly.one(F2)


@pytest.mark.parametrize("field", [F2, F3, Q], ids=repr)
def test_shift_certificate_identity_holds(field):
    rng = random.Random(1)
    x = Poly.x(field)
    for _ in range(100):
        p = Poly(field, [field.random_element(rng) for _ in range(5)])
        q = Poly(field, [field.random_element(rng) for _ in range(3)])
        r = L.taylor_shift_certificate(p, q)
        assert p.compose(x + q) == p + p.derivative() * q + r * q * q


def test_shift_certificate_zero_q():
    assert L.taylor_shift_certificate(P(Q, "x^2"), Poly.zero(Q)).is_zero()


# -- root series ------------------------------------------------------------

def test_root_series_sqrt2():
    rs = L.hensel_root_series(P(Q, "x^2-2"), 2)
    assert rs.q_list == (P(Q, "-x/4"),)
    assert rs.u == Poly.x(Q) - P(Q, "x/4") * P(Q, "x^2-2")
    assert rs.certificate_residual().is_zero()


def test_root_series_f2():
    p = P(F2, "x^2+x+1")
    rs = L.hensel_root_series(p, 2)
    assert rs.q_list == (Poly.one(F2),)
    assert rs.u == P(F2, "x^2+1")
    assert rs.r_cert == Poly.one(F2)  # P(U) = P^2 exactly
    assert p.compose(rs.u) == p * p


def test_root_series_inseparable():
    with pytest.raises(NotSeparable):
        L.hensel_root_series(P(F2T, "x^2+t"), 3)


def test_root_series_k1_is_trivial():
    rs = L.hensel_root_series(P(F3, "x^2+1"), 1)
    assert rs.u == Poly.x(F3)
    assert rs.q_list == ()
    assert rs.r_cert == Poly.one(F3)


@pytest.mark.parametrize("field,ptext", [(F2, "x^3+x+1"), (F3, "x^3+2*x+1"),
                                         (Q, "x^2-2"), (Q, "x^3-2")])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_root_series_certificate(field, ptext, k):
    rs = L.hensel_root_series(P(field, ptext), k)
    assert rs.certificate_residual().is_zero()
    assert all(q.degree < rs.p.degree for q in rs.q_list)


# -- embedding --------------------------------------------------------------

def test_embed_k1_is_identity():
    f = L.embed_residue_field(P(F3, "x^2+1"), 1)
    assert f.is_identity()


def test_embed_example_f2():
    f = L.embed_residue_field(P(F2, "x^2+x+1"), 2)
    assert f.q_image == P(F2, "x^2+1")


def test_embed_section_property():
    for field, ptext, k in [(F2, "x^2+x+1", 3), (F3, "x^2+1", 2),
                            (F2, "x^3+x+1", 2)]:
        p = P(field, ptext)
        f = L.embed_residue_field(p, k)
        for a in f.source.elements():
            assert f(a).project(1) == a


def test_embed_is_ring_morphism_sampled():
    p = P(Q, "x^2-2")
    f = L.embed_residue_field(p, 3, assume_irreducible=True)
    rng = random.Random(2)
    for _ in range(100):
        a = f.source.random_element(rng)
        b = f.source.random_element(rng)
        assert f(a + b) == f(a) + f(b)
        assert f(a * b) == f(a) * f(b)



def test_embed_checks_irreducibility_after_the_embedding():
    # x^2+2 = (x+1)(x+2) over F3 is separable, so the root series exists and
    # only the irreducibility check rejects it
    with pytest.raises(NotIrreducible):
        L.embed_residue_field(P(F3, "x^2+2"), 2)
    L.embed_residue_field(P(F3, "x^2+2"), 2, assume_irreducible=True)
    # the embedding's own checks still come first
    with pytest.raises(NotMonic):
        L.embed_residue_field(P(F3, "2*x^2+1"), 2)
    with pytest.raises(NotSeparable):
        L.embed_residue_field(P(F2T, "x^2+t"), 2)

# -- digits -----------------------------------------------------------------

def test_digits_example():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 2)
    d = L.to_digits(ring.gen())
    res = ring.at_power(1)
    assert d.digits == (res.gen(), res.one())


def test_digits_of_embedded_element():
    p = P(F3, "x^2+1")
    f = L.embed_residue_field(p, 3)
    res = f.source
    zero = res.zero()
    for b in res.elements():
        d = L.to_digits(f(b))
        assert d.digits == (b, zero, zero)


def test_digits_of_powers_of_p():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 3)
    res = ring.at_power(1)
    for j in range(3):
        d = L.to_digits(ring.element(ring.p ** j))
        expected = tuple(res.one() if i == j else res.zero() for i in range(3))
        assert d.digits == expected


def test_digits_reuse_the_cached_embedding():
    # one root series per (P, k), whatever the call form: the short form,
    # the explicit assume_irreducible=False form and the digits share it
    p = P(F3, "x^2+x+2")
    L.hensel_root_series.cache_clear()
    L.embed_residue_field(p, 3)
    L.embed_residue_field(p, 3, assume_irreducible=False)
    ring = L.QuotientRing(p, 3)
    d = L.to_digits(ring.gen())
    L.from_digits(digits_mul(d, d))
    assert L.hensel_root_series.cache_info().misses == 1


def test_root_series_builds_its_embedding_and_table_once(monkeypatch):
    # the cached root series is the whole Hensel state of (P, k): the first
    # to_digits builds its embedding and digit table, later digit calls
    # reuse them, and clearing the one cache drops both
    built = []
    for name in ("StabilizingMorphism", "_digit_columns"):
        def counted(*args, name=name, make=getattr(hensel, name)):
            built.append(name)
            return make(*args)
        monkeypatch.setattr(hensel, name, counted)
    ring = L.QuotientRing(P(F3, "x^2+x+2"), 3)
    L.hensel_root_series.cache_clear()
    L.to_digits(ring.gen())
    assert sorted(built) == ["StabilizingMorphism", "_digit_columns"]
    d = L.to_digits(ring.gen() ** 2)
    L.from_digits(digits_mul(d, d))
    L.embed_residue_field(ring.p, 3)
    assert len(built) == 2
    L.hensel_root_series.cache_clear()
    L.to_digits(ring.gen())
    assert len(built) == 4


def test_digits_round_trip_exhaustive():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 2)
    for a in ring.elements():
        assert L.from_digits(L.to_digits(a)) == a


def test_digits_round_trip_char0():
    ring = L.QuotientRing(P(Q, "x^2-2"), 4, assume_irreducible=True)
    rng = random.Random(3)
    for _ in range(50):
        a = ring.random_element(rng)
        assert L.from_digits(L.to_digits(a)) == a


def test_freeness():
    # sum embed(a_j) P^j = 0 implies all digits zero
    ring = L.QuotientRing(P(F3, "x^2+1"), 3)
    d = L.to_digits(ring.zero())
    assert all(a.is_zero() for a in d.digits)


def test_digit_lengths_and_dimension():
    ring = L.QuotientRing(P(F3, "x^3+2*x+1"), 2)
    assert len(L.to_digits(ring.gen())) == 2
    assert ring.dimension == 6


def _ring(field, ptext, k):
    return L.QuotientRing(P(field, ptext), k,
                          assume_irreducible=not field.is_finite())


def _is_canonical(x):
    # trimmed, and each coefficient in the field's canonical form
    f, payload = x.rep.field, x.rep.payload
    return (not payload or not f._is_zero(payload[-1])) and all(
        f._canon(c) == c for c in payload)


@pytest.mark.parametrize("field,ptext", PAYLOAD_KINDS, ids=repr)
def test_digits_round_trip_payload_kinds(field, ptext):
    ring = _ring(field, ptext, 3)
    rng = random.Random(5)
    for _ in range(30):
        a = ring.random_element(rng)
        d = L.to_digits(a)
        assert all(x.ring == ring.at_power(1) and _is_canonical(x) for x in d)
        assert L.from_digits(d) == a


def test_digits_mul_matches_ring_mul():
    for field, ptext in [(F2, "x^2+x+1")] + PAYLOAD_KINDS:
        ring = _ring(field, ptext, 3)
        rng = random.Random(4)
        for _ in range(100):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            prod = digits_mul(L.to_digits(a), L.to_digits(b))
            assert L.to_digits(a * b) == prod
            assert all(_is_canonical(x) for x in prod)


def test_digits_outside_the_residue_field_are_refused():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 2)
    other = L.QuotientRing(P(F2, "x^3+x+1"), 1)
    for digits in [(ring.gen(), ring.one()), (other.gen(), other.one())]:
        with pytest.raises(RingMismatch):
            ResidueDigits(ring=ring, digits=digits)


def test_from_digits_rejects_a_wrong_number_of_digits():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 3)
    digits = L.to_digits(ring.gen()).digits
    with pytest.raises(ValueError, match="expected 3 digits, got 2"):
        L.from_digits(ResidueDigits(ring=ring, digits=digits[:2]))


def test_digits_mul_rejects_two_rings():
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 3)
    d2, d3 = L.to_digits(ring.at_power(2).gen()), L.to_digits(ring.gen())
    with pytest.raises(ValueError, match="different rings"):
        digits_mul(d2, d3)


def test_to_digits_keeps_its_exactness_check():
    # X -> X + 1 is not a section, so a - embed(a_0) is not divisible by P:
    # the step loop that builds to_digits' table refuses it
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 2)

    class Shifted:
        source = ring.at_power(1)

        @staticmethod
        def _apply(x):
            return F2._pcompose(x, (1, 1))

    with pytest.raises(InexactDivision):
        hensel._digit_columns(Shifted, 2)


# -- the digit layer against its boxed definitions -------------------------

DIGIT_CASES = [(Q, "x^2-2"), (F2T, "x^3+x+t"), (F3T, "x^2+x/t+1"),
               (F3, "x^2+1"), (F4, "x^2+x+a"), (F16, "x^2+x+a*b")]


def _step_digits(a, embed):
    """The step loop on boxed polynomials: strip the residue, subtract its
    embedded image and divide exactly by P."""
    x, digits = a.rep, []
    for _ in range(a.ring.n):
        digits.append(embed.source.element(x))
        x = exact_div(x - embed(digits[-1]).rep, a.ring.p)
    return tuple(digits)


def _check_digit_layer(field, ptext, k, rng):
    ring = _ring(field, ptext, k)
    embed = L.embed_residue_field(ring.p, k, assume_irreducible=True)
    a, b = ring.random_element(rng), ring.random_element(rng)
    d = L.to_digits(a)
    assert d.digits == _step_digits(a, embed)
    boxed = sum((embed(x).rep * ring.p ** j for j, x in enumerate(d)),
                Poly.zero(field))
    assert L.from_digits(d).rep == boxed % ring.modulus
    assert (a * b).rep == (a.rep * b.rep) % ring.modulus
    assert digits_mul(d, L.to_digits(b)) == L.to_digits(a * b)


@pytest.mark.parametrize("field,ptext", DIGIT_CASES, ids=repr)
def test_digit_layer_matches_its_definitions(field, ptext):
    # to_digits is the step loop that builds its table, from_digits is
    # sum embed(a_j) P^j, digits_mul is to_digits of the ring product, and
    # that product is (a.rep * b.rep) mod P^k
    rng = random.Random(7)
    for k in range(1, 7):
        for _ in range(2):
            _check_digit_layer(field, ptext, k, rng)


def test_digit_layer_matches_its_definitions_at_power_16():
    _check_digit_layer(F2T, "x^3+x+t", 16, random.Random(8))


@pytest.mark.parametrize("field,ptext", [(F2, "x^4+x+1"), (F3, "x^4+x+2")],
                         ids=repr)
def test_prime_field_digit_layer_runs_no_generic_loop(field, ptext,
                                                      monkeypatch):
    # over F_p the digit layer is packed products and the int division: the
    # numerator-ring loops are never entered, the per-(P, k) state included
    entered = []
    for name in ("_conv", "_dot", "_reduce_by"):
        def counted(*args, name=name, loop=getattr(fields, name)):
            entered.append(name)
            return loop(*args)
        monkeypatch.setattr(fields, name, counted)
    ring, rng = L.QuotientRing(P(field, ptext), 6), random.Random(9)
    L.hensel_root_series.cache_clear()
    a, b = ring.random_element(rng), ring.random_element(rng)
    da, db = to_digits(a), to_digits(b)
    assert from_digits(da) == a
    assert digits_mul(da, db) == to_digits(a * b)
    assert entered == []


def test_function_field_digit_round_trip_has_no_empty_product(monkeypatch):
    # the numerator ring F2[t] skips a zero operand: clearing a zero
    # numerator, a zero coefficient in a product or in the divisor
    ring = L.QuotientRing(P(F2T, "x^2+x+t"), 3, assume_irreducible=True)
    L.hensel_root_series(ring.p, 3)  # the root series, before counting
    empty, zconv = [], fields.PrimeField._zconv

    def counted(self, a, b):
        if not a or not b:
            empty.append((a, b))
        return zconv(self, a, b)
    monkeypatch.setattr(fields.PrimeField, "_zconv", counted)
    rng = random.Random(10)
    for _ in range(5):
        a = ring.random_element(rng)
        assert from_digits(to_digits(a)) == a
    assert empty == []


# -- structure isomorphism check -------------------------------------------

def test_structure_check_exhaustive_f2():
    for k in (1, 2, 3, 4):
        report = structure_isomorphism_check(P(F2, "x^2+x+1"), k)
        assert report.passed
        assert report.exhaustive == (2 ** (2 * k) <= 3 ** 6)


def test_structure_check_f3():
    report = structure_isomorphism_check(P(F3, "x^2+1"), 3)
    assert report.passed and report.exhaustive


def test_structure_check_reports_a_wrong_round_trip(monkeypatch):
    # from_digits off by one fails the round trip on the first element,
    # which the multiplicativity stage alone would never see
    monkeypatch.setattr(hensel, "from_digits", lambda d: from_digits(d) + 1)
    ring = L.QuotientRing(P(F2, "x^2+x+1"), 2)
    report = structure_isomorphism_check(ring.p, 2)
    assert not report.passed and report.exhaustive
    assert (report.n_checked, report.counterexample) == (
        0, next(iter(ring.elements())))


def test_structure_check_reports_a_wrong_product(monkeypatch):
    # digits_mul off by one passes every round trip and fails the first
    # sampled pair
    def wrong(d1, d2):
        return to_digits(from_digits(digits_mul(d1, d2)) + 1)

    monkeypatch.setattr(hensel, "digits_mul", wrong)
    report = structure_isomorphism_check(P(F2, "x^2+x+1"), 2)
    assert not report.passed and report.exhaustive
    assert report.n_checked == 16 and len(report.counterexample) == 2


def test_structure_check_inseparable():
    with pytest.raises(NotSeparable):
        structure_isomorphism_check(P(F2T, "x^2+t"), 2,
                                    assume_irreducible=True)
