import itertools
import random

import pytest

import locring as L
from locring.errors import TooLarge
from locring.fields import FieldElement
from locring.poly import Poly
from locring.verify import (
    ExhaustiveCheckReport,
    Matrix,
    certify_isomorphism,
    exhaustive_morphism_check,
    kernel_basis,
    kernel_dimension,
    morphism_matrix,
    _prime_basis,
    _row_echelon,
)

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F4 = L.ExtensionField(F2, (1, 1, 1))
F9 = L.ExtensionField(F3, (1, 0, 1))
TOWER = L.ExtensionField(F4, (F4.gen(), 1, 1))
F2t = L.parse_field("F2(t)")


def P(field, text):
    return L.parse_poly(field, text)


def mat(field, rows):
    return Matrix(field=field,
                  rows=tuple(tuple(field._from_int(x) for x in row)
                             for row in rows))


def random_matrix(field, rng):
    """A matrix of 1..5 rows and columns, about half its entries zero so
    that rank deficiency is common."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    zero = field._from_int(0)
    return Matrix(field=field,
                  rows=tuple(tuple(field.random_payload(rng)
                                   if rng.random() < 0.5 else zero
                                   for _ in range(ncols))
                             for _ in range(nrows)))


def mat_vec(m, v):
    """The product m * v, the oracle for kernel vectors."""
    return [sum((FieldElement(m.field, a) * x for a, x in zip(row, v)),
                m.field.zero())
            for row in m.rows]


def rank(m):
    return len(_row_echelon(m)[1])


def boxed_row_echelon(m):
    """Reduced row echelon form by ``FieldElement`` arithmetic on whole
    rows, in the pivot order of ``_row_echelon``: the reference for its
    payload elimination."""
    rows = [[FieldElement(m.field, x) for x in row] for row in m.rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = m.field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                g = -rows[i][c]
                rows[i] = [x + g * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def test_kernel_of_identity_matrix():
    assert kernel_basis(mat(F3, [[1, 0], [0, 1]])) == []


def test_kernel_of_zero_matrix():
    basis = kernel_basis(mat(F2, [[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_kernel_vectors_map_to_zero():
    rng = random.Random(0)
    for field in (F2, F3, Q):
        for _ in range(50):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            m = Matrix(field=field,
                       rows=tuple(tuple(field.random_payload(rng)
                                        for _ in range(ncols))
                                  for _ in range(nrows)))
            basis = kernel_basis(m)
            for v in basis:
                assert all(isinstance(x, FieldElement) for x in v)
                assert all(x.is_zero() for x in mat_vec(m, v))
            assert rank(m) + len(basis) == ncols


@pytest.mark.parametrize("field", [F2, F3, Q, F4, F2t], ids=str)
def test_row_echelon_matches_boxed_elimination(field):
    rng = random.Random(1)
    for _ in range(40):
        m = random_matrix(field, rng)
        rows, pivots = _row_echelon(m)
        ref_rows, ref_pivots = boxed_row_echelon(m)
        assert pivots == ref_pivots
        assert [[FieldElement(field, x) for x in row]
                for row in rows] == ref_rows
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - len(pivots)
        for v in basis:
            assert all(x.is_zero() for x in mat_vec(m, v))


def test_morphism_matrix_identity():
    ring = L.QuotientRing(P(F3, "x^2+1"), 2)
    m = morphism_matrix(L.StabilizingMorphism.identity(ring))
    assert m.rows == tuple(tuple(int(i == j) for j in range(4))
                           for i in range(4))


def test_morphism_matrix_cross_f3():
    r1 = L.QuotientRing(P(F3, "x^2+1"), 1)
    r2 = L.QuotientRing(P(F3, "x^2+x+2"), 1)
    f = L.StabilizingMorphism(r1, r2, L.IDENTITY, P(F3, "x+2"))
    m = morphism_matrix(f)
    # columns are f(1) = 1 and f(x) = x+2 in the basis {1, x}
    assert m.rows == ((1, 2), (0, 1))


def test_morphism_matrix_frobenius_lift():
    p = P(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, P(F2, "x^2"))
    lifted = L.lift_morphism(f, 2)
    m = morphism_matrix(lifted)
    assert m.nrows == m.ncols == 6
    basis = kernel_basis(m)
    assert basis
    # the coefficient vector of P lies in the kernel
    pvec = [p.coeff(i) for i in range(6)]
    assert all(x.is_zero() for x in mat_vec(m, pvec))


def test_morphism_matrix_semilinear_over_f4():
    # Frobenius twist on F4[X]/((X^2+c)^1)? use a genuine extension-field ring
    p = Poly(F4, (F4.gen(), F4.one()))  # x + a, degree 1... need deg >= 1
    ring = L.QuotientRing(p, 2)
    # sigma = frob, X-image must satisfy sigma(P^2)(q) = 0 mod P^2
    # sigma(x+a) = x + a^2; pick q = x + a + a^2... then q + a^2 = x + a?? no:
    # want (q + a^2)^2 = 0 mod (x+a)^2, i.e. q = x + a - a^2 + multiple of P
    shift = F4.gen() - L.frobenius(1).apply(F4.gen())
    q = Poly(F4, (shift, F4.one()))
    f = L.StabilizingMorphism(ring, ring, L.frobenius(1), q)
    m = morphism_matrix(f)
    # matrix over the prime subfield F2 of a 2-dim F4-space: 4x4 over F2
    assert m.field == F2
    assert m.nrows == m.ncols == 4
    assert not kernel_basis(m)
    assert certify_isomorphism(f)
    # cross-check the semilinear matrix against direct evaluation
    assert exhaustive_morphism_check(f).passed


def prime_basis(field):
    """The basis over F_p of a finite field, as elements: s * g^t, g the
    generator and s over the basis of the field below, t major."""
    if isinstance(field, L.PrimeField):
        return [field.one()]
    return [field.from_base(s) * field.gen() ** t
            for t in range(field.degree) for s in prime_basis(field.base)]


def prime_coordinates(c):
    """The coordinates over F_p of c on ``prime_basis``, by splitting it
    into its coefficients on 1, g, ..., one level at a time."""
    field = c.field
    if isinstance(field, L.PrimeField):
        return [c.payload]
    coeffs = Poly._of(field.base, c.payload)
    return [x for t in range(field.degree)
            for x in prime_coordinates(coeffs.coeff(t))]


def boxed_column(f, s, i, twisted):
    """Coordinates of f(s * X^i) by ``StabilizingMorphism.__call__`` on the
    target's monomials; twisted, each coefficient is split into its
    coordinates over F_p."""
    ring = f.source
    y = f(ring.element(s) * ring.gen() ** i).rep
    coeffs = [y.coeff(e) for e in range(f.target.dimension)]
    if not twisted:
        return [c.payload for c in coeffs]
    return [x for c in coeffs for x in prime_coordinates(c)]


def _lifted(field, p1, p2, n, sigma=L.IDENTITY):
    return L.lift_morphism(
        L.find_residue_isomorphisms(P(field, p1), P(field, p2), sigma)[0], n)


def _linear_lift(field, p1, p2, q, n):
    f = L.residue_morphism_from_Q(P(field, p1), P(field, p2), L.IDENTITY,
                                  P(field, q), assume_irreducible=True)
    return L.lift_morphism(f, n)


def _tower_lift(sigma=L.IDENTITY, n=2):
    p1, p2 = L.enumerate_irreducibles(TOWER, 2)[:2]
    return L.lift_morphism(L.find_residue_isomorphisms(p1, p2, sigma)[0], n)


LAYOUT_CASES = {
    "F3-cross": lambda: L.StabilizingMorphism(
        L.QuotientRing(P(F3, "x^2+1"), 1), L.QuotientRing(P(F3, "x^2+x+2"), 1),
        L.IDENTITY, P(F3, "x+2")),
    "F3-lift": lambda: _lifted(F3, "x^2+1", "x^2+x+2", 3),
    "Q-lift": lambda: _linear_lift(Q, "x^2-2", "x^2-8", "x/2", 3),
    "F2(t)-lift": lambda: _linear_lift(F2t, "x^2+t", "x^2+t^3", "x/t", 2),
    "F4-identity": lambda: _lifted(F4, "x^2+x+a", "x^2+x+a", 2),
    **{f"F4-frob-n{n}": (lambda n=n: _lifted(F4, "x^2+x+a", "x^2+x+a^2", n,
                                             L.frobenius(1)))
       for n in (1, 2, 3)},
    **{f"F9-frob-n{n}": (lambda n=n: _lifted(F9, "x^2+a*x+a", "x^2+x+a", n,
                                             L.frobenius(1)))
       for n in (1, 2, 3)},
    "tower-over-F4": _tower_lift,
    **{f"tower-frob^{e}-n{n}":
       (lambda e=e, n=n: _tower_lift(L.frobenius(e), n))
       for e in (1, 2) for n in (1, 2)},
}


@pytest.mark.parametrize("name", list(LAYOUT_CASES))
def test_morphism_matrix_columns_are_images(name):
    f = LAYOUT_CASES[name]()
    field = f.source.field
    m = morphism_matrix(f)
    twisted = "frob" in name
    assert m.field == (L.PrimeField(field.char) if twisted else field)
    # column j*D + i is f(s_j * X^i), s_j over the F_p-basis of the field
    # twisted, and s = 1 otherwise
    scalars = prime_basis(field) if twisted else [field.one()]
    k = len(scalars)
    d = f.source.dimension
    columns = list(zip(*m.rows))
    assert m.nrows == k * f.target.dimension and len(columns) == k * d
    for j, s in enumerate(scalars):
        for i in range(d):
            assert list(columns[j * d + i]) == boxed_column(f, s, i, twisted)


def test_tower_kernel_is_zero_exactly_when_the_lift_criterion_holds():
    # frob^e moves F16 for e = 1..3, so each lift is read over F2 on a
    # basis of 4 * D vectors
    f2 = L.PrimeField(2)
    for d in (1, 2):
        polys = L.enumerate_irreducibles(TOWER, d)[:4]
        for p1, p2 in itertools.product(polys, repeat=2):
            for e in (1, 2, 3):
                for f in L.find_residue_isomorphisms(p1, p2, L.frobenius(e)):
                    for n in (1, 2, 3):
                        lifted = L.lift_morphism(f, n)
                        m = morphism_matrix(lifted)
                        assert m.field == f2 and m.ncols == 4 * d * n
                        verdict = L.lift_is_isomorphism(f, n).verdict
                        assert (kernel_dimension(lifted) == 0) == verdict
                        assert certify_isomorphism(lifted) == verdict
                        if not verdict:
                            w = L.kernel_witness(f, n)
                            assert w and lifted(w).is_zero()


def test_certify_matches_lift_report():
    r1 = L.QuotientRing(P(F3, "x^2+1"), 1)
    f = L.find_residue_isomorphisms(P(F3, "x^2+1"), P(F3, "x^2+x+2"))[0]
    for n in (1, 2, 3):
        lifted = L.lift_morphism(f, n)
        assert certify_isomorphism(lifted) == L.lift_is_isomorphism(f, n).verdict


def test_certify_frobenius_lift_false():
    p = P(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, P(F2, "x^2"))
    assert not certify_isomorphism(L.lift_morphism(f, 2))
    assert kernel_dimension(L.lift_morphism(f, 2)) > 0


def test_certify_rejects_an_injective_embedding():
    # the residue field embedding F3[x]/(x^2+1) -> F3[x]/((x^2+1)^3) has a
    # 6 x 2 matrix of full column rank: injective, but not onto
    f = L.embed_residue_field(P(F3, "x^2+1"), 3)
    m = morphism_matrix(f)
    assert (m.nrows, m.ncols, kernel_dimension(f)) == (6, 2, 0)
    assert not certify_isomorphism(f)


def objectwise_morphism_check(f):
    """The morphism law on ring elements, pair by pair, in the order of
    ``exhaustive_morphism_check``: the reference for its payload loop."""
    elems = list(f.source.elements())
    images = {a: f(a) for a in elems}
    n = 0
    for a, b in itertools.product(elems, repeat=2):
        n += 1
        if images[a] + images[b] != images[a + b]:
            return ExhaustiveCheckReport(False, n, (a, b, "add"))
        if images[a] * images[b] != images[a * b]:
            return ExhaustiveCheckReport(False, n, (a, b, "mul"))
    return ExhaustiveCheckReport(True, n)


def corrupted_embedding():
    # X -> U + P is not well defined mod P^2 (P(U+P) = P mod P^2), so the
    # substitution map violates the morphism law somewhere
    f = L.embed_residue_field(P(F2, "x^2+x+1"), 2)
    corrupted = object.__new__(L.StabilizingMorphism)
    q = (f.q_image + f.source.p) % f.target.modulus
    images = tuple(q.pow_mod(i, f.target.modulus).payload
                   for i in range(f.source.dimension + 1))
    for name, value in [("source", f.source), ("target", f.target),
                        ("sigma", f.sigma), ("q_image", q),
                        ("images", images)]:
        object.__setattr__(corrupted, name, value)
    return corrupted


class OneToZero:
    """The identity of F2[x]/(x^2+x+1) but for 1 -> 0: multiplicative on
    (x, x), not additive on (x, 1).  A real morphism is additive by
    construction, so only a stand-in reaches the "add" witness."""

    def __init__(self):
        self.source = self.target = L.QuotientRing(P(F2, "x^2+x+1"), 1)

    def __call__(self, a):
        return self.target.zero() if a == 1 else a


class CoefficientOfX:
    """a -> (coefficient of x in a) on F2[x]/(x^2+x+1): additive, and
    multiplicative on (x, x) but not on (x, 1).  Both stand-ins fail first
    on (x, 1), whose swap (1, x) comes later, so they pin the witness's
    order."""

    def __init__(self):
        self.source = self.target = L.QuotientRing(P(F2, "x^2+x+1"), 1)

    def __call__(self, a):
        return self.target.element(a.rep.coeff(1))


class PrimeCoordinate:
    """c -> c0 on a ring R = K[x]/(x + r) = K, c0 the first F_p-coordinate
    of c (of c0 + c1*a on F4): additive, and multiplicative on (c, 1) for
    every c, but not on (a, a), since a^2 = a + 1 in F4.  It passes the law
    on R x {1}, {1} a basis over K, so it shows that the check needs a
    basis over F_p."""

    def __init__(self, field, root):
        self.source = self.target = L.QuotientRing(
            Poly(field, (root, field.one())), 1)

    def __call__(self, c):
        x = c.rep.payload
        while isinstance(x, tuple):  # the constant term, then its c0
            x = x[0] if x else 0
        return self.target.element(x)


class SecondCoordinateOnce:
    """c0 + c1*x -> c0 + g(c1) on F3[x]/(x^2), g = {0: 0, 1: x, 2: 0}: it
    is additive on R x {1} and multiplicative on the pairs of the basis
    {1, x}, but f(x) + f(x) = 2x while f(2x) = 0, so only additivity
    against the last basis vector x exposes it."""

    def __init__(self):
        self.source = self.target = L.QuotientRing(P(F3, "x"), 2)

    def __call__(self, a):
        c0 = self.target.element(a.rep.coeff(0))
        return c0 + self.target.gen() if a.rep.coeff(1) == 1 else c0


def _frobenius_lift_over_f4():
    shift = F4.gen() - L.frobenius(1).apply(F4.gen())
    residue = L.find_residue_isomorphisms(Poly(F4, (F4.gen(), F4.one())),
                                          Poly(F4, (shift, F4.one())),
                                          L.frobenius(1))[0]
    return L.lift_morphism(residue, 2)


def _lift_f3():
    f = L.find_residue_isomorphisms(P(F3, "x^2+1"), P(F3, "x^2+x+2"))[0]
    return L.lift_morphism(f, 2)


def _x_to_x2_lift_f2():
    p = P(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, P(F2, "x^2"))
    return L.lift_morphism(f, 2)


LAW_CASES = {
    "identity-F2": lambda: L.StabilizingMorphism.identity(
        L.QuotientRing(P(F2, "x^2+x+1"), 2)),
    "identity-F3": lambda: L.StabilizingMorphism.identity(
        L.QuotientRing(P(F3, "x^2+1"), 1)),
    "embedding-F2": lambda: L.embed_residue_field(P(F2, "x^2+x+1"), 2),
    "embedding-F3": lambda: L.embed_residue_field(P(F3, "x^2+1"), 2),
    "lift-F3": _lift_f3,
    "frobenius-lift-F4": _frobenius_lift_over_f4,
    "x-to-x^2-lift-F2": _x_to_x2_lift_f2,
    "corrupted": corrupted_embedding,
    "not-additive": OneToZero,
    "not-multiplicative": CoefficientOfX,
    "prime-coordinate-F4": lambda: PrimeCoordinate(F4, F4.gen()),
    "prime-coordinate-tower": lambda: PrimeCoordinate(TOWER, TOWER.gen()),
    "lift-tower": lambda: L.rings_isomorphic_separable(
        P(TOWER, "x+b"), P(TOWER, "x+1"), 1),
}


@pytest.mark.parametrize("name", list(LAW_CASES))
def test_exhaustive_check_matches_objectwise_loop(name):
    f = LAW_CASES[name]()
    report = exhaustive_morphism_check(f)
    assert report == objectwise_morphism_check(f)
    if name in ("not-additive", "not-multiplicative"):
        ring = f.source
        op = "add" if name == "not-additive" else "mul"
        assert report.witness == (ring.gen(), ring.one(), op)
    elif name == "prime-coordinate-F4":
        a = f.source.element(F4.gen())
        assert report.witness == (a, a, "mul")
    elif name in ("corrupted", "prime-coordinate-tower"):
        assert report.witness[2] == "mul"
    else:
        assert report.passed
        assert report.n_pairs == f.source.order() ** 2


def test_exhaustive_check_tests_additivity_on_the_whole_basis():
    f = SecondCoordinateOnce()
    report = exhaustive_morphism_check(f)
    assert report == objectwise_morphism_check(f)
    x = f.source.gen()
    assert report.witness == (x, x, "add")


def test_exhaustive_check_embedding():
    f = L.embed_residue_field(P(F2, "x^2+x+1"), 2)
    report = exhaustive_morphism_check(f)
    assert report.passed
    assert report.n_pairs == 16


def test_exhaustive_check_detects_corruption():
    report = exhaustive_morphism_check(corrupted_embedding())
    assert not report.passed
    assert report.witness is not None


def test_exhaustive_check_identity():
    ring = L.QuotientRing(P(F3, "x^2+1"), 1)
    assert exhaustive_morphism_check(L.StabilizingMorphism.identity(ring)).passed


@pytest.mark.parametrize("field, modulus, n", [
    (F2, "x^2+x+1", 2), (F3, "x^2+1", 1), (F4, "x+a", 2), (F9, "x+a", 1),
    (TOWER, "x+b", 1),
], ids=str)
def test_prime_basis_is_a_basis_of_the_ring_over_the_prime_field(field,
                                                                 modulus, n):
    ring = L.QuotientRing(P(field, modulus), n)
    basis = [ring.element(Poly._of(field, y))
             for y in _prime_basis(field, ring.dimension)]
    assert field.char ** len(basis) == ring.order()
    span = {sum((c * e for c, e in zip(cs, basis)), ring.zero())
            for cs in itertools.product(range(field.char),
                                        repeat=len(basis))}
    assert span == set(ring.elements())


def test_exhaustive_check_too_large():
    ring = L.QuotientRing(P(F3, "x^3+2*x+1"), 3)  # 3^9 elements
    with pytest.raises(TooLarge):
        exhaustive_morphism_check(L.StabilizingMorphism.identity(ring))


def test_exhaustive_check_multiplies_only_basis_pairs(monkeypatch):
    # R = F3[x]/((x^3+2x+1)^2): |R| = 729, D = 6.  Additivity on R x B
    # needs no product; multiplicativity on B x B needs at most D^2 pairs of
    # two products each, where R x B took 729 * 6 * 2 = 8,748.
    f = L.lift_morphism(L.find_residue_isomorphisms(P(F3, "x^3+2*x+1"),
                                                    P(F3, "x^3+2*x+2"))[0], 2)
    calls = []
    pmul = L.PrimeField._pmul

    def counting_pmul(self, a, b):
        calls.append(1)
        return pmul(self, a, b)
    monkeypatch.setattr(L.PrimeField, "_pmul", counting_pmul)
    report = exhaustive_morphism_check(f)
    assert report.passed and report.n_pairs == 531441
    assert len(calls) <= 2 * 6 ** 2
