import importlib
import pkgutil
import random
from fractions import Fraction
from math import gcd

import pytest

import locring as L
from locring import fields
from locring.errors import (
    DescriptorMismatch,
    DivisionByZero,
    InvalidArgument,
    NotIrreducible,
    UnsupportedAutomorphism,
    UnsupportedField,
)
from locring.fields import _MR_LIMIT, Field, _cleared_divisor, _is_prime

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")
F4 = L.ExtensionField(F2, (1, 1, 1))  # F2[a]/(a^2+a+1)
QSQRT2 = L.ExtensionField(Q, (-2, 0, 1), assume_irreducible=True)

ALL_FIELDS = [F2, F3, Q, F2T, F4, QSQRT2]


def test_prime_field_mul():
    assert F3.from_int(2) * F3.from_int(2) == F3.from_int(1)


def test_rational_add():
    assert Q.element(Fraction(1, 2)) + Q.element(Fraction(1, 3)) == Fraction(5, 6)


def test_rational_pairs_match_fraction_oracle():
    rng = random.Random(30)

    def draw(nonzero=False):
        # a small value now and then, so zero and cancellation occur
        bound = 10 ** 30 if rng.random() < 0.8 else 3
        while True:
            k = rng.randint(-bound, bound)
            if k or not nonzero:
                return k

    def pair(x):
        return (x.numerator, x.denominator)

    for _ in range(500):
        (an, ad), (bn, bd) = (draw(), draw(True)), (draw(), draw(True))
        x, y = Fraction(an, ad), Fraction(bn, bd)
        assert Q._reduce(an, ad) == pair(x)  # ad < 0 about half the time
        a, b = pair(x), pair(y)
        assert Q._add(a, b) == pair(x + y)
        assert Q._mul(a, b) == pair(x * y)
        assert Q._neg(a) == pair(-x)
        if x:
            assert Q._inv(a) == pair(1 / x)


def test_rational_payload_is_reduced_pair():
    assert Q.element((2, -4)).payload == (-1, 2)
    assert Q.element(Fraction(3, 6)).payload == (1, 2)
    assert Q.from_int(-5).payload == (-5, 1)
    rng = random.Random(3)
    for _ in range(50):
        x = Q.random_element(rng)
        assert Q.element(x.payload) == x
    with pytest.raises(DivisionByZero):
        Q._canon((1, 0))
    with pytest.raises(TypeError):  # a pair holds ints, not Fractions
        Q.element((Fraction(1, 2), 1))
    with pytest.raises(DivisionByZero):
        Q._inv(Q._from_int(0))


def test_function_field_cancellation():
    t = F2T.gen()
    assert (1 / t) * t == F2T.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()
    with pytest.raises(DivisionByZero):
        F3.one() / F3.zero()
    with pytest.raises(DivisionByZero):
        F2T.one() / F2T.zero()


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        F2.one() + F3.one()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms_sampled(field):
    rng = random.Random(7)
    one = field.one()
    for _ in range(200):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a ** (-1) == one


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_canonicalization_idempotent(field):
    rng = random.Random(11)
    for _ in range(50):
        a = field.random_element(rng)
        assert field._canon(a.payload) == a.payload
        if a:
            inv = (a ** -1).payload
            assert field._canon(inv) == inv
        if isinstance(field, L.ExtensionField):
            # the kernel's trimmed polynomial form: no trailing zero
            assert not a.payload or not field.base._is_zero(a.payload[-1])


def test_identity_automorphism():
    a = Q.element(Fraction(5, 7))
    assert L.IDENTITY.apply(a) == a


def test_frobenius_on_prime_field_is_trivial():
    assert L.frobenius(1).apply(F3.from_int(2)) == F3.from_int(2)


def test_frobenius_on_f4_generator():
    # a^2 = a + 1 modulo a^2 + a + 1
    a = F4.gen()
    assert L.frobenius(1).apply(a) == a + 1


def test_frobenius_unsupported_fields():
    with pytest.raises(UnsupportedAutomorphism):
        L.frobenius(1).apply(Q.one())
    with pytest.raises(UnsupportedAutomorphism):
        L.frobenius(1).apply(F2T.gen())


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_frobenius_is_a_field_morphism(field):
    rng = random.Random(3)
    frob = L.frobenius(1)
    for _ in range(200):
        a = field.random_element(rng)
        b = field.random_element(rng)
        assert frob.apply(a + b) == frob.apply(a) + frob.apply(b)
        assert frob.apply(a * b) == frob.apply(a) * frob.apply(b)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [
    F4, L.ExtensionField(F3, (1, 0, 1)),
    L.ExtensionField(F4, (F4.gen(), 1, 1)),
], ids=repr)
def test_frobenius_action_matches_boxed_powering(field, e):
    # the reference raises to p^e itself, with no reduction of the exponent
    act = L.frobenius(e).on(field)
    coeffs = list(field.elements())  # zero first, nonzero last
    expected = tuple((c ** field.char ** e).payload for c in coeffs)
    if act is None:  # sigma fixes the field: k divides e on F_{p^k}
        assert expected == tuple(c.payload for c in coeffs)
    else:
        assert tuple(act(c.payload) for c in coeffs) == expected
    shifted = L.apply_automorphism_to_poly(L.frobenius(e), L.Poly(field, coeffs))
    assert shifted.payload == expected == field._ptrim(expected)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_frobenius_action_is_none_or_refused(field):
    assert L.IDENTITY.on(field) is None
    for e in range(1, 5):
        if field in (F2, F3):
            assert L.frobenius(e).on(field) is None
        elif not field.is_finite():
            with pytest.raises(UnsupportedAutomorphism):
                L.frobenius(e).on(field)


def test_frobenius_iteration():
    # frob^e applied k times equals frob^(e*k)
    rng = random.Random(5)
    for _ in range(50):
        a = F4.random_element(rng)
        twice = L.frobenius(1).apply(L.frobenius(1).apply(a))
        assert twice == L.frobenius(2).apply(a)
        assert twice == a  # frob^2 = id on F4


def test_f9_as_extension():
    F9 = L.ExtensionField(F3, (1, 0, 1))  # a^2 = -1
    a = F9.gen()
    assert a * a == F9.from_int(-1)
    assert len(list(F9.elements())) == 9
    assert F9.order() == 9


def test_tower_generator_defaults_to_a_name_no_field_below_uses():
    a = F4.gen()
    f16 = L.ExtensionField(F4, (a, 1, 1))
    assert f16.gen_name == "b" and str(f16.gen()) != str(f16.from_base(a))
    assert len({str(x) for x in f16.elements()}) == 16
    f256 = L.ExtensionField(f16, L.enumerate_irreducibles(f16, 2)[0].coeffs)
    assert f256.gen_name == "c"
    assert len({str(x) for x in f256.elements()}) == 256


def test_tower_over_f4():
    # F16 = F4[b]/(b^2+b+a): a finite extension field may serve as a base
    a = F4.gen()
    f16 = L.ExtensionField(F4, (a, 1, 1))
    b = f16.gen()
    assert b * b + b + f16.from_base(a) == f16.zero()
    assert f16.order() == 16 and len(set(f16.elements())) == 16
    assert all(x * x ** (-1) == f16.one() for x in f16.elements() if x)
    # a payload is read back as the element it came from
    assert all(f16.element(x.payload) == x for x in f16.elements())
    assert f16.element((a.payload, (1,))) == f16.from_base(a) + b
    with pytest.raises(DescriptorMismatch):
        f16.element((L.PrimeField(3).one(),))
    with pytest.raises(NotIrreducible):
        L.ExtensionField(F4, (0, 1, 1))  # x^2+x = x(x+1)
    # Frobenius powers act by x -> x^(2^e) with period 4, the absolute
    # degree, not 2, the degree over F4
    assert [L.frobenius(e).apply(b) for e in range(1, 5)] == \
        [b ** 2, b ** 4, b ** 8, b]
    assert L.frobenius(2).apply(b) != b


@pytest.mark.parametrize("field", [
    F4, L.ExtensionField(F3, (1, 0, 1)),
    L.ExtensionField(F4, (F4.gen(), 1, 1)),
], ids=repr)
def test_extension_elements_in_ascending_payload_order(field):
    # the residue search sorts a Frobenius orbit by payload into this order
    payloads = [e.payload for e in field.elements()]
    assert payloads == sorted(payloads)
    assert len(set(payloads)) == field.order()


def test_extension_inverse_exhaustive():
    for a in F4.elements():
        if not a.is_zero():
            assert a * a ** (-1) == F4.one()


F9 = L.ExtensionField(F3, (1, 0, 1))
TABLE_FIELDS = [
    F4,
    L.ExtensionField(F2, (1, 1, 0, 1)),                 # F8
    F9,
    L.ExtensionField(F2, (1, 1, 0, 0, 1)),              # F16
    L.ExtensionField(F4, (F4.gen(), 1, 1)),             # F16 over F4
    L.ExtensionField(L.PrimeField(5), (2, 0, 1)),       # F25
    L.ExtensionField(F3, (1, 2, 0, 1)),                 # F27
    L.ExtensionField(F2, (1, 0, 1, 0, 0, 1)),           # F32
]
POLY_PATH_FIELDS = [
    L.ExtensionField(F2, (1, 1, 0, 0, 0, 0, 1)),        # F64
    L.ExtensionField(F9, (F9.gen(), 1, 1)),             # F81 over F9
    L.ExtensionField(F3, (2, 0, 0, 2, 1)),              # F81
    L.parse_field("F2[x]/(x^9+x^4+1)"),                 # F512
]


def _kernel_mul(field, a, b):
    base = field.base
    return base._pdivmod(base._pmul(a, b), field._m)[1]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_log_zech_tables_match_the_polynomial_kernel(field):
    assert field.order() <= 32 and "_mul" in vars(field)  # tables built
    elems = list(field.elements())
    payloads = [c.payload for c in elems]
    for a in payloads:
        for b in payloads:
            assert field._mul(a, b) == _kernel_mul(field, a, b)
            assert field._add(a, b) == field.base._padd(a, b)
    one = field.one()
    assert all(u * u ** -1 == one for u in elems if u)
    with pytest.raises(DivisionByZero):
        field.zero() ** -1
    act = L.frobenius(1).on(field)
    assert [act(c.payload) for c in elems] == \
        [(c ** field.char).payload for c in elems]


@pytest.mark.parametrize("field", POLY_PATH_FIELDS, ids=repr)
def test_fields_above_the_table_bound_keep_the_polynomial_path(field):
    assert field.order() > 32 and "_mul" not in vars(field)
    rng = random.Random(17)
    for _ in range(200):
        a, b = field.random_payload(rng), field.random_payload(rng)
        assert field._mul(a, b) == _kernel_mul(field, a, b)
        if a:
            assert field._mul(a, field._inv(a)) == field._from_int(1)


def test_reducible_modulus_without_a_generator_is_refused():
    # (x+1)^2: the ring F2[x]/(x^2+1) has a zero divisor, so no element
    # generates its units
    with pytest.raises(NotIrreducible):
        L.ExtensionField(F2, (1, 0, 1), assume_irreducible=True)


def test_inverse_of_a_zero_divisor_names_the_common_factor():
    # under a false irreducibility assertion the Bezout cofactor is no
    # inverse: gcd(m, a) is the factor the two share
    ring = L.ExtensionField(Q, (-4, 0, 1), assume_irreducible=True)
    with pytest.raises(NotIrreducible, match="a-2"):
        (ring.gen() - 2) ** -1
    # m = (x^3+x+1)(x^3+x^2+1), of order 64 and so above the table bound
    m = L.Poly(F2, (1, 1, 0, 1)) * L.Poly(F2, (1, 0, 1, 1))
    ring = L.ExtensionField(F2, m.coeffs, assume_irreducible=True)
    a = ring.gen()
    with pytest.raises(NotIrreducible, match=r"a\^3\+a\+1"):
        (a ** 3 + a + 1) ** -1


def test_parse_format_field_round_trip():
    for text in ["Q", "F2", "F3", "F3(t)", "F2[x]/(x^2+x+1)"]:
        field = L.parse_field(text)
        assert L.format_field(field) == text


F16 = L.ExtensionField(F4, (F4.gen(), 1, 1))
ROUND_TRIP_FIELDS = {
    "F2": F2,
    "F3": F3,
    "F4": F4,
    "F9": L.ExtensionField(F3, (1, 0, 1)),
    "F16/F4": F16,
    "F256/F16/F4": L.ExtensionField(
        F16, L.enumerate_irreducibles(F16, 2)[0].coeffs),
    "F81/F9": POLY_PATH_FIELDS[1],
    "Q": Q,
    "F2(t)": F2T,
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_FIELDS))
def test_descriptors_and_polynomials_round_trip(name):
    # a tower's descriptor names each modulus over the field before it, and
    # its polynomials name the generators of every level
    field = ROUND_TRIP_FIELDS[name]
    assert L.parse_field(L.format_field(field)) == field
    rng = random.Random(name)
    for _ in range(150):
        p = L.Poly(field, [field.random_element(rng)
                           for _ in range(rng.randint(0, 4))])
        assert L.parse_poly(field, L.format_poly(p)) == p


def test_parse_field_reads_tower_descriptors():
    f16 = L.parse_field(" F2[x]/(x^2+x+1)[y] / (y^2+y+a) ")
    assert f16 == F16 and f16.gen_name == "b"
    b, a = f16.gen(), f16.from_base(F4.gen())
    assert L.parse_poly(f16, "(a+1)*x+a*b") == L.Poly(f16, (a * b, a + 1))
    assert L.parse_element(f16, "b^2+b") == a


def test_equal_towers_parsed_apart_hash_equal():
    # the hash is computed once per field; caches keyed on a field need
    # equal fields to hash equal
    text = "F2[x]/(x^2+x+1)[x]/(x^2+x+a)[x]/(x^2+(a*b)*x+(a*b))"
    f256, again = L.parse_field(text), L.parse_field(text)
    assert f256 is not again and f256 == again
    assert hash(f256) == hash(again)
    assert hash(f256.base) == hash(F16) and f256.base == F16
    assert {f256: 1}[again] == 1


def test_parse_field_charges_the_moduli_of_a_tower():
    # degree-2 levels x^2+<generator below>*x+1 over F2: six levels verify
    # in a tenth of a second, the seventh would take about a second
    names = "abcdef"
    levels = ["[x]/(x^2+x+1)"] + [f"[x]/(x^2+{v}*x+1)" for v in names]
    assert L.parse_field("F2" + "".join(levels[:6])).order() == 2 ** 64
    with pytest.raises(InvalidArgument, match="up to level 7"):
        L.parse_field("F2" + "".join(levels))
    # one level over F2 is charged about 2 d^3 products
    assert L.parse_field("F2[x]/(x^127+x+1)").degree == 127
    with pytest.raises(InvalidArgument, match="work bound"):
        L.parse_field("F2[x]/(x^1023+x+1)")


def test_parse_field_rejects_garbage():
    from locring.errors import NotIrreducible, ParseError
    for bad in ["R", "F", "F4x", "F3()", "F2[x]/(x^2+x+1", "F2[x]/x^2",
                "F2[x]/(x^2+x+1)]", "F2[x]/(x^2+x+1)[x]/((x^2+x+a)"]:
        with pytest.raises(ParseError):
            L.parse_field(bad)
    # an extension of F3(t) is not supported, and one of Q cannot be
    # verified: both descriptors parse and are refused
    for unsupported in ["F3(t)[x]/(x^2+t)", "Q[x]/(x^2-2)"]:
        with pytest.raises(UnsupportedField):
            L.parse_field(unsupported)
    with pytest.raises(NotIrreducible):
        L.parse_field("F2[x]/(x^2)")
    with pytest.raises(ValueError):
        L.parse_field("F4")  # 4 is not prime


def test_element_formatting():
    t = F2T.gen()
    assert str(1 / t) == "1/t"
    assert str((1 + t) / t) == "(t+1)/t"
    a = F4.gen()
    assert str(a + 1) == "a+1"
    # over Q a fractional constant term is parenthesized, as in format_poly
    r = QSQRT2.gen()
    assert str(6 * r - QSQRT2.from_base(Fraction(3, 2))) == "6*a+(-3/2)"


@pytest.mark.parametrize("descriptor", [
    "F2[x]/(x^2+x+1)", "F3[x]/(x^2+1)", "F2[x]/(x^3+x+1)",
    "F3[x]/(x^3+2*x+1)", "F5[x]/(x^2+2)", "F7[x]/(x^3+3)",
])
def test_extension_elements_print_and_parse_back(descriptor):
    field = L.parse_field(descriptor)
    for e in field.elements():
        assert L.parse_element(field, str(e)) == e


@pytest.mark.parametrize("n, prime", [
    (2 ** 61 - 1, True),
    (2 ** 61 + 1, False),
    (561, False),                       # Carmichael
    (3215031751, False),                # Carmichael, strong pseudoprime to 2..7
    (318665857834031151167461, False),  # strong pseudoprime to 2..37
    (2, True), (41, True), (43, True), (1, False), (0, False), (1 << 40, False),
])
def test_is_prime_miller_rabin(n, prime):
    assert _is_prime(n) is prime


def test_prime_field_characteristic_checks():
    with pytest.raises(InvalidArgument):
        L.PrimeField(561)
    with pytest.raises(InvalidArgument):
        L.RationalFunctionField(3215031751)
    assert L.PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(UnsupportedField):
        L.PrimeField(_MR_LIMIT + 2)


# ---------------------------------------------------------------------------
# the fraction-field add, the F_p gcd and the linear combination kernel
# against the plain reference each of them replaces

F3T = L.RationalFunctionField(3, "t")
F5, F7 = L.PrimeField(5), L.PrimeField(7)
FRACTION_FIELDS = [Q, F2T, F3T]


def _fraction_pool(field, seed):
    """Payloads with zero, denominators of 1, shared denominators and each
    value's negative, so that some sums cancel to 0."""
    rng = random.Random(seed)
    if field == Q:
        pool = [(0, 1), (1, 1), (-3, 1), (1, 2), (3, 2), (5, 6), (-7, 6),
                (1, 3)] + [field.random_payload(rng) for _ in range(8)]
    else:
        r = field._reduce
        pool = [r((), (1,)), r((1,), (1,)), r((0, 1), (1,)),
                r((1,), (0, 1)), r((1, 1), (0, 1)), r((1,), (1, 1)),
                r((0, 0, 1), (1, 1))]
        pool += [field.random_payload(rng) for _ in range(8)]
    return pool + [field._neg(a) for a in pool]


def _assert_canonical(field, a):
    n, d = a
    if field == Q:
        assert d > 0 and gcd(n, d) == 1, a
    else:
        fp = field._fp
        assert fp._ptrim(n) == n and fp._ptrim(d) == d, a
        assert all(0 <= c < field.p for c in n + d), a
        assert d[-1] == 1 and Field._pgcd(fp, n, d) == (1,), a


@pytest.mark.parametrize("field", FRACTION_FIELDS, ids=repr)
def test_fraction_add_matches_the_one_reduce_reference(field):
    mul = field._nmul
    pool = _fraction_pool(field, 40)
    for a in pool:
        for b in pool:
            (na, da), (nb, db) = a, b
            expected = field._reduce(field._nadd(mul(na, db), mul(nb, da)),
                                     mul(da, db))
            got = field._add(a, b)
            assert got == expected, (a, b)
            _assert_canonical(field, got)


def _random_fp_poly(field, rng, degree):
    if degree < 0:
        return ()
    return (tuple(rng.randrange(field.p) for _ in range(degree))
            + (rng.randrange(1, field.p),))


def _euclid_reference(field, a, b):
    # Euclid on the remainders of the generic division loop, made monic
    while b:
        a, b = b, Field._pdivide(field, a, b, False)[1]
    if not a:
        return ()
    inv = field._inv(a[-1])
    return tuple(field._mul(c, inv) for c in a)


@pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=repr)
def test_prime_field_gcd_matches_the_generic_euclid(field):
    rng = random.Random(41)
    assert field._pgcd((), ()) == ()
    cases = []
    for _ in range(150):
        # a shared factor makes most gcds nontrivial; degree -1 is zero
        c = _random_fp_poly(field, rng, rng.randint(0, 3))
        a, b = (field._pmul(c, _random_fp_poly(field, rng, rng.randint(-1, 6)))
                for _ in range(2))
        cases += [(a, b), (a, a), (a, ()), ((), b)]
    # non-monic inputs occur wherever they exist
    assert field.p == 2 or any(a and a[-1] != 1 for a, _ in cases)
    for a, b in cases:
        assert field._pgcd(a, b) == _euclid_reference(field, a, b), (a, b)


def _dot_reference(field, cs, ps):
    acc = ()
    for c, p in zip(cs, ps):
        if not field._is_zero(c):
            acc = field._padd(acc, field._pmul((c,), p))
    return acc


@pytest.mark.parametrize("field", [F2, F7, Q, F2T, F3T, F4, F9,
                                   *POLY_PATH_FIELDS,
                                   TABLE_FIELDS[4]],  # F16 over F4
                         ids=repr)
def test_pdot_matches_the_add_and_multiply_loop(field):
    rng = random.Random(42)
    zero = field._from_int(0)

    def poly(length):
        return field._ptrim([field.random_payload(rng)
                             for _ in range(length)])
    for _ in range(60):
        ps = [poly(rng.randint(0, 5)) for _ in range(rng.randint(0, 5))]
        ps.insert(rng.randint(0, len(ps)), ())  # an empty polynomial
        cs = [zero if rng.random() < 0.3 else field.random_payload(rng)
              for _ in range(rng.randint(0, len(ps)))]  # cs may be shorter
        assert field._pdot(cs, ps) == _dot_reference(field, cs, ps), (cs, ps)
    # a combination that cancels to zero
    p = poly(4)
    one = field._from_int(1)
    assert field._pdot([one, field._neg(one)], [p, p]) == ()


@pytest.mark.parametrize("field", [F2, F7, Q, F2T, F3T, F9, QSQRT2,
                                   *POLY_PATH_FIELDS,
                                   TABLE_FIELDS[4]],  # F16 over F4
                         ids=repr)
def test_division_and_fused_entries_match_their_definitions(field):
    # random divisors are rarely monic: over Q and F_p(t) most clear to a
    # leading numerator that is not a unit, and divide by pseudo-division
    rng = random.Random(43)
    add, mul = field._padd, field._pmul

    def poly(length):
        return field._ptrim([field.random_payload(rng)
                             for _ in range(length)])
    for _ in range(30):
        a, m = poly(rng.randint(0, 7)), ()
        while not m:
            m = poly(rng.randint(1, 4))
        quo, rem = field._pdivmod(a, m)
        assert add(mul(quo, m), rem) == a and len(rem) < len(m), (a, m)
        assert field._prem(a, m) == rem
        k = rng.randint(1, 4)
        xs, ys = ([poly(len(m) - 1) for _ in range(k)] for _ in range(2))
        product = [()] * k
        for i, x in enumerate(xs):
            for j, y in enumerate(ys[:k - i]):
                product[i + j] = add(product[i + j], mul(x, y))
        assert field._pconvmod(xs, ys, m) == [field._prem(c, m)
                                              for c in product], (xs, ys, m)
        ps = [poly(rng.randint(0, 4)) for _ in range(3)]
        cs, q, acc = [poly(3) for _ in range(rng.randint(1, 4))], poly(3), ()
        for c in reversed(cs):
            acc = add(mul(acc, q), field._pdot(c, ps))
        assert field._phorner(cs, ps, q, m) == field._prem(acc, m), (cs, q)


def library_caches():
    """Every functools cache in a locring module, found as the benchmark
    finds the caches it empties before each pass."""
    modules = [importlib.import_module(f"locring.{m.name}")
               for m in pkgutil.iter_modules(L.__path__)]
    return [obj for module in modules for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None))]


def test_library_caches_are_bounded_and_clear():
    t = F2T.gen()
    assert (t + 1) / (t * t + 1) + t / (t + 1) == 1  # (t+1)^2 = t^2+1
    caches = library_caches()
    ring = L.QuotientRing(L.parse_poly(F2T, "x^2+x+t"), 2,
                          assume_irreducible=True)
    assert L.from_digits(L.to_digits(ring.gen() ** 3)) == ring.gen() ** 3
    assert {"_fp_reduce", "_fp_lcm", "_fp_quo", "is_irreducible",
            "_cleared_divisor", "hensel_root_series"} <= {
        cache.__name__ for cache in caches}
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache.__name__
        cache.cache_clear()
        assert cache.cache_info().currsize == 0, cache.__name__


def test_euclid_divisors_bypass_the_divisor_cache():
    # each divisor of Euclid is used once; a fixed modulus stays cached
    rng = random.Random(44)

    def poly(length):
        return F9._ptrim([F9.random_payload(rng) for _ in range(length)])
    m = L.parse_poly(F9, "x^3+a*x+1").payload
    _cleared_divisor.cache_clear()
    x, y = poly(3), poly(3)
    product = F9._pmulmod(x, y, m)
    assert _cleared_divisor.cache_info().currsize == 1
    for _ in range(20):
        c = poly(rng.randint(1, 3)) or (F9._from_int(1),)
        a, b = F9._pmul(poly(5), c), F9._pmul(poly(4), c)
        assert F9._pgcd(a, b) == F9._pgcdex(a, b)[0]
        # ext_gcd's exact division for v prepares its divisor uncached too
        assert L.ext_gcd(L.Poly._of(F9, a), L.Poly._of(F9, b))[0].payload \
            == F9._pgcd(a, b)
    assert _cleared_divisor.cache_info().currsize == 1
    hits = _cleared_divisor.cache_info().hits
    assert F9._pmulmod(x, y, m) == product
    assert _cleared_divisor.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# the packed F_p product against the schoolbook loop, and trimming by the
# canonical zero

def schoolbook(a, b):
    """a * b over Z by the double loop that Kronecker substitution replaced
    in ``PrimeField._zconv``: the reference for the packed product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


# primes whose slots are 1, 2, 4, 8 and more bytes wide (2^64+13 and
# 2^80+13 are prime, below _MR_LIMIT)
PACKED_PRIMES = (2, 3, 13, 17, 251, 257, 65521, 65537, 2 ** 31 - 1,
                 2 ** 61 - 1, 2 ** 64 + 13, 2 ** 80 + 13)


def _packed_lengths(p):
    """The operand lengths n at which n (p-1)^2, the largest product
    coefficient, crosses from w bytes into more, for n <= 260."""
    sq = (p - 1) ** 2
    edges = {(256 ** w - 1) // sq for w in range(1, 24)}
    return sorted({k for n in edges for k in (n, n + 1) if 1 <= k <= 260})


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_product_at_every_slot_boundary(p):
    field = L.PrimeField(p)
    assert _packed_lengths(3) == [63, 64] and _packed_lengths(17)[0] == 1
    top = p - 1
    m = (1, 0, 1)  # x^2 + 1
    for n in _packed_lengths(p) + [1, 2]:
        # all coefficients p - 1: every product coefficient at its bound
        for a, b in (([top] * n, [top] * n), ([top] * n, [top] * (n + 3)),
                     ([top] * (n + 5), [top] * n)):
            want = field._ptrim([c % p for c in schoolbook(a, b)])
            assert field._pmul(a, b) == want, (n, len(a), len(b))
            assert field._pmulmod(a, b, m) == field._prem(want, m)
    for b in ((), (top,), (1, top), tuple([top] * 9)):
        # an empty operand, with p > 256 among the primes
        assert field._pmul((), b) == field._pmul(b, ()) == ()
        assert field._pmulmod((), b, m) == ()


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_slots_pack_alike_through_bytes(p, monkeypatch):
    # a big-endian host has no array conversion: every slot wider than a
    # byte packs through int.to_bytes, to the same products
    field, rng = L.PrimeField(p), random.Random(p)
    top = p - 1

    def poly(n):
        return field._ptrim([rng.choice((top, rng.randrange(p)))
                             for _ in range(n)])
    m = poly(3) + (1,)
    cases = [(poly(rng.randint(0, 9)), poly(rng.randint(0, 9)),
              [poly(3) for _ in range(6)], [poly(3) for _ in range(6)],
              [poly(12) for _ in range(3)]) for _ in range(20)]

    def products():
        return [(field._pmul(a, b), field._pconvmod(xs, ys, m),
                 field._phorner(xs, ps, m, m)) for a, b, xs, ys, ps in cases]
    want = products()
    monkeypatch.setattr(fields, "_SLOT_CODES", {})
    assert products() == want


TRIM_FIELDS = [F2, F7, Q, F2T, F4, F9,
               POLY_PATH_FIELDS[2],                        # F81
               TABLE_FIELDS[4]]                            # F16 over F4


@pytest.mark.parametrize("field", TRIM_FIELDS, ids=repr)
def test_ptrim_compares_with_the_canonical_zero(field, monkeypatch):
    rng = random.Random(45)
    zero = field._from_int(0)
    assert zero == field._zero and field._is_zero(zero)

    def reference(a):
        i = len(a)
        while i and field._is_zero(a[i - 1]):
            i -= 1
        return tuple(a[:i])
    cases = [[field.random_payload(rng) for _ in range(rng.randint(0, 3))]
             + [zero] * (k % 4) for k in range(80)]
    want = [reference(a) for a in cases]

    def refuse(a):
        raise AssertionError("_ptrim called _is_zero")
    monkeypatch.setattr(field, "_is_zero", refuse)
    assert [field._ptrim(a) for a in cases] == want
    assert [field._ptrim(tuple(a)) for a in cases] == want
