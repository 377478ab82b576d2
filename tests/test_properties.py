"""Property tests: the field axioms of the scalar ops over Q and F_p(t),
p in {2, 3, 5}, the gcd of the F_p kernel, the packed F_p product against
the schoolbook loop, the packed digit layer against the generic loops,
the fused product mod m against a product and a remainder, the F_p(t)
reduction with its caches cold or warm, the two-stage morphism law of
``exhaustive_morphism_check`` against the pair-by-pair reference, and the
payload parser against ``Poly`` arithmetic, on inputs that Hypothesis
draws.  Hypothesis is a test-only dependency; without it the module is
skipped."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import locring as L  # noqa: E402
from locring.fields import Field  # noqa: E402
from locring.poly import Poly  # noqa: E402
from locring.verify import exhaustive_morphism_check  # noqa: E402
from test_fields import (  # noqa: E402
    PACKED_PRIMES, library_caches, schoolbook)
from test_verify import objectwise_morphism_check  # noqa: E402

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


PACKED_FIELDS = {p: L.PrimeField(p) for p in PACKED_PRIMES}


@st.composite
def packed_products(draw):
    """Operands over a prime of every slot width: empty, of length 1 and of
    unequal lengths, with coefficients 0, p - 1 or any; and a divisor."""
    field = PACKED_FIELDS[draw(st.sampled_from(PACKED_PRIMES))]
    top = field.p - 1
    coeff = st.one_of(st.just(top), st.just(0), st.integers(0, top))
    a, b, m = (field._ptrim(draw(st.lists(coeff, max_size=n)))
               for n in (12, 12, 5))
    return field, a, b, m or (1,)


@settings(max_examples=400, deadline=None, database=None)
@given(packed_products())
def test_packed_product_matches_the_schoolbook_loop(case):
    field, a, b, m = case
    want = field._ptrim([c % field.p for c in schoolbook(a, b)])
    assert field._pmul(a, b) == want
    assert field._pmulmod(a, b, m) == field._prem(want, m)


@st.composite
def digit_layer_cases(draw):
    """A prime of every slot width, a modulus m of degree d <= 4, k <= 12
    digits a side of every length <= d (a side all empty, or digits all
    p - 1, now and then), and Horner's rows, ps (often fewer than a row's
    entries) and q (of length 0 to d + 1)."""
    field = PACKED_FIELDS[draw(st.sampled_from(PACKED_PRIMES))]
    top, d = field.p - 1, draw(st.integers(1, 4))
    coeff = st.one_of(st.just(top), st.just(0), st.integers(0, top))

    def poly(n):
        return field._ptrim(draw(st.lists(coeff, max_size=n)))

    def digits(k):
        kind = draw(st.sampled_from(("empty", "top", "any")))
        return [() if kind == "empty" else (top,) * draw(st.integers(0, d))
                if kind == "top" else poly(d) for _ in range(k)]
    m = tuple(draw(st.lists(coeff, min_size=d, max_size=d))) + (
        draw(st.integers(1, top)),)
    k = draw(st.integers(1, 12))
    xs, ys = digits(k), digits(draw(st.integers(0, k + 1)))
    ps = [poly(k * d) for _ in range(draw(st.integers(0, d)))]
    return field, m, xs, ys, ps, poly(d + 1)


@settings(max_examples=300, deadline=None, database=None)
@given(digit_layer_cases())
def test_packed_digit_layer_matches_the_generic_loops(case):
    field, m, xs, ys, ps, q = case
    assert field._pconvmod(xs, ys, m) == Field._pconvmod(field, xs, ys, m)
    for cs in (xs, ys):
        assert field._phorner(cs, ps, q, m) == \
            Field._phorner(field, cs, ps, q, m)
    assert field._phorner(xs, ps, q[:1], m) == \
        Field._phorner(field, xs, ps, q[:1], m)


F4 = L.ExtensionField(L.PrimeField(2), (1, 1, 1))
# per field: moduli that are monic, not monic, and constant; over Q and
# F_p(t) the non-monic ones clear to a leading numerator that is not a unit
# (x^2+x/t+1 clears to t*x^2+x+t).  F4 multiplies by tables; F64 over F4
# and the F16 tower over F4 run the kernel over F4's table arithmetic
MULMOD_MODULI = {
    L.PrimeField(2): ["x^3+x+1", "x^4+x", "1"],
    L.PrimeField(3): ["x^2+1", "2*x^3+x+2", "2"],
    L.PrimeField(101): ["x^2+3", "57*x^3+x+7", "42"],
    Q: ["x^2-2", "2*x^3/3+x+1", "-7/3"],
    FUNCTION_FIELDS[2]: ["x^2+x+t", "t*x^2+x/(t+1)+1", "t/(t+1)"],
    FUNCTION_FIELDS[3]: ["x^3+2*x+t", "x^2+x/t+1", "t^2+1"],
    F4: ["x^2+x+a", "a*x^3+x+1", "a"],
    L.parse_field("F3[x]/(x^2+1)"): ["x^2+x+a", "a*x^3+2*x+1", "2*a"],
    L.ExtensionField(F4, (F4.gen(), 0, 0, 1)): ["x^2+b", "a*x^3+b*x+1", "b"],
    L.parse_field("F2[x]/(x^2+x+1)[x]/(x^2+x+a)"):
        ["x^2+b*x+1", "a*x^3+x+b", "a*b"],
}


@st.composite
def mulmod_cases(draw):
    field = draw(st.sampled_from(list(MULMOD_MODULI)))
    m = L.parse_poly(field, draw(st.sampled_from(MULMOD_MODULI[field])))
    rng = draw(st.randoms(use_true_random=False))

    def operand():
        # zero, reduced, or of degree deg m and past it
        n = draw(st.integers(0, m.degree + 3))
        return field._ptrim([field.random_payload(rng) for _ in range(n)])
    return field, operand(), operand(), m.payload


@settings(max_examples=600, deadline=None, database=None)
@given(mulmod_cases())
def test_fused_product_mod_m_is_the_remainder_of_the_product(case):
    field, a, b, m = case
    assert field._pmulmod(a, b, m) == field._prem(field._pmul(a, b), m)


def _reduced(field, n, d, c):
    """field._reduce(n*c, d*c) of int lists read mod p, checked canonical:
    coprime, monic denominator, and equal to n/d."""
    fp = field._fp
    n, d, c = (fp._ptrim([x % field.p for x in v]) for v in (n, d, c))
    n, d = fp._pmul(n, c or (1,)), fp._pmul(d or (1,), c or (1,))
    num, den = field._reduce(n, d)
    assert den[-1] == 1 and fp._pgcd(num, den) == (1,)
    assert fp._pmul(num, d) == fp._pmul(n, den)
    return num, den


@SETTINGS
@given(st.lists(_fp_coeffs(5, 5), min_size=3, max_size=3))
def test_reduce_is_canonical_with_caches_cold_or_warm(ndc):
    for cache in library_caches():
        cache.cache_clear()
    # the same int lists over F2, F3 and F5, cold and then warm: an entry
    # cached for one field must not answer for another
    cold, warm = ([_reduced(field, *ndc) for field in FUNCTION_FIELDS.values()]
                  for _ in range(2))
    assert cold == warm


# (P1, P2) per ring, at n = 1 and 2: rings of 4 to 81 elements
LAW_MODULI = [(L.PrimeField(2), "x^2+x+1", "x^2+x+1"),
              (L.PrimeField(2), "x^3+x+1", "x^3+x^2+1"),
              (L.PrimeField(3), "x^2+1", "x^2+x+2")]
LIFTS = [L.lift_morphism(L.find_residue_isomorphisms(
    L.parse_poly(field, p1), L.parse_poly(field, p2))[0], n)
    for field, p1, p2 in LAW_MODULI for n in (1, 2)]


class MatrixMap:
    """a -> M a on the coefficient vectors of R over F_p: F_p-linear, so
    additive, and multiplicative only for a few M."""

    def __init__(self, ring, rows):
        self.source = self.target = ring
        self.rows = rows

    def __call__(self, a):
        v = a.rep.payload + (0,) * (self.source.dimension - len(a.rep.payload))
        return self.target.element(Poly(
            self.source.field, [sum(m * x for m, x in zip(row, v))
                                for row in self.rows]))


class Perturbed:
    """A genuine lift f but for the one image f(c) + d, d != 0."""

    def __init__(self, f, c, d):
        self.source, self.target = f.source, f.target
        self.f, self.c, self.d = f, c, d

    def __call__(self, a):
        return self.f(a) + self.d if a == self.c else self.f(a)


@st.composite
def law_cases(draw):
    f = draw(st.sampled_from(LIFTS))
    if draw(st.booleans()):
        ring = f.source
        d = ring.dimension
        entries = draw(st.lists(st.integers(0, ring.field.p - 1),
                                min_size=d * d, max_size=d * d))
        return MatrixMap(ring, [entries[i:i + d] for i in range(0, d * d, d)])
    source, target = list(f.source.elements()), list(f.target.elements())
    # elements() starts at zero, so target[1:] holds the nonzero shifts
    return Perturbed(f, draw(st.sampled_from(source)),
                     draw(st.sampled_from(target[1:])))


@settings(max_examples=60, deadline=None, database=None)
@given(law_cases())
def test_two_stage_law_matches_the_pair_by_pair_reference(f):
    assert exhaustive_morphism_check(f) == objectwise_morphism_check(f)


F4 = L.ExtensionField(L.PrimeField(2), (1, 1, 1))
F2T = FUNCTION_FIELDS[2]
# nonzero constants to divide by, as text and as field elements
DIVISORS = {
    L.PrimeField(3): [("2", 2), ("4", 4)],
    Q: [("3", 3), ("12", 12), ("(1/2)", Q.one() / 2)],
    F2T: [("t", F2T.gen()), ("(t+1)", F2T.gen() + 1), ("t^2", F2T.gen() ** 2)],
    F4: [("a", F4.gen()), ("(a+1)", F4.gen() + 1)],
}
# binding strength of each node kind: a sum binds loosest, an atom tightest
PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _trees(field):
    leaves = [st.tuples(st.just("int"), st.integers(0, 12)), st.just(("x",))]
    if field in (F2T, F4):
        leaves.append(st.just(("gen",)))
    leaf = st.one_of(leaves)
    tree = leaf
    for _ in range(4):  # nesting <= 4
        tree = st.one_of(
            leaf,
            st.tuples(st.sampled_from("+-*"), tree, tree),
            st.tuples(st.just("/"), tree, st.sampled_from(DIVISORS[field])),
            st.tuples(st.just("neg"), tree),
            st.tuples(st.just("^"), tree, st.integers(0, 4)))
    return tree


def _render(field, node, min_prec=0):
    """Text of a tree with only the parentheses that the grammar needs."""
    kind = node[0]
    if kind == "int":
        text = str(node[1])
    elif kind == "x":
        text = "x"
    elif kind == "gen":
        text = "t" if field == F2T else "a"
    elif kind == "neg":
        text = "-" + _render(field, node[1], 3)
    elif kind == "^":
        text = f"{_render(field, node[1], 5)}^{node[2]}"
    elif kind == "/":
        text = f"{_render(field, node[1], 2)}/{node[2][0]}"
    else:
        prec = PRECEDENCE[kind]
        text = (_render(field, node[1], prec) + kind
                + _render(field, node[2], prec + 1))
    if PRECEDENCE.get(kind, 5) < min_prec:
        return f"({text})"
    return text


def _evaluate(field, node):
    kind = node[0]
    if kind == "int":
        return Poly(field, (node[1],))
    if kind == "x":
        return Poly.x(field)
    if kind == "gen":
        return Poly(field, (field.gen(),))
    a = _evaluate(field, node[1])
    if kind == "neg":
        return -a
    if kind == "^":
        return a ** node[2]
    if kind == "/":
        return a * field.coerce(node[2][1]) ** -1
    b = _evaluate(field, node[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@st.composite
def expressions(draw):
    field = draw(st.sampled_from(list(DIVISORS)))
    return field, draw(_trees(field))


@SETTINGS
@given(expressions())
def test_parse_poly_evaluates_like_poly_arithmetic(case):
    field, tree = case
    text = _render(field, tree)
    assert L.parse_poly(field, text) == _evaluate(field, tree), text
