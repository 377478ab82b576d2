import random

import pytest

import locring as L
from locring.errors import TooLarge
from locring.poly import Poly
from locring.verify import (
    Matrix,
    certify_isomorphism,
    exhaustive_morphism_check,
    kernel_basis,
    kernel_dimension,
    morphism_matrix,
    rank,
)

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F4 = L.ExtensionField(F2, (1, 1, 1))


def P(field, text):
    return L.parse_poly(field, text)


def mat(field, rows):
    return Matrix(field=field,
                  rows=tuple(tuple(field.from_int(x) for x in row)
                             for row in rows))


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
                       rows=tuple(tuple(field.random_element(rng)
                                        for _ in range(ncols))
                                  for _ in range(nrows)))
            basis = kernel_basis(m)
            for v in basis:
                assert all(x.is_zero() for x in m.mat_vec(v))
            assert rank(m) + len(basis) == ncols


def test_morphism_matrix_identity():
    ring = L.QuotientRing(P(F3, "x^2+1"), 2)
    m = morphism_matrix(L.StabilizingMorphism.identity(ring))
    for i in range(4):
        for j in range(4):
            assert m.rows[i][j] == F3.from_int(1 if i == j else 0)


def test_morphism_matrix_cross_f3():
    r1 = L.QuotientRing(P(F3, "x^2+1"), 1)
    r2 = L.QuotientRing(P(F3, "x^2+x+2"), 1)
    f = L.StabilizingMorphism(r1, r2, L.IDENTITY, P(F3, "x+2"))
    m = morphism_matrix(f)
    # columns are f(1) = 1 and f(x) = x+2 in the basis {1, x}
    assert m.rows == ((F3.from_int(1), F3.from_int(2)),
                      (F3.from_int(0), F3.from_int(1)))


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
    assert all(x.is_zero() for x in m.mat_vec(pvec))


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


def test_exhaustive_check_embedding():
    f = L.embed_residue_field(P(F2, "x^2+x+1"), 2)
    report = exhaustive_morphism_check(f)
    assert report.passed
    assert report.n_pairs == 16


def test_exhaustive_check_detects_corruption():
    # X -> U + P is not well defined mod P^2 (P(U+P) = P mod P^2), so the
    # substitution map violates the morphism law somewhere
    f = L.embed_residue_field(P(F2, "x^2+x+1"), 2)
    corrupted = object.__new__(L.StabilizingMorphism)
    q = (f.q_image + f.source.p) % f.target.modulus
    images = tuple(q.pow_mod(i, f.target.modulus).payload
                   for i in range(f.source.dimension + 1))
    for name, value in [("source", f.source), ("target", f.target),
                        ("sigma", f.sigma), ("q_image", q),
                        ("s_cert", None), ("images", images)]:
        object.__setattr__(corrupted, name, value)
    report = exhaustive_morphism_check(corrupted)
    assert not report.passed
    assert report.witness is not None


def test_exhaustive_check_identity():
    ring = L.QuotientRing(P(F3, "x^2+1"), 1)
    assert exhaustive_morphism_check(L.StabilizingMorphism.identity(ring)).passed


def test_exhaustive_check_too_large():
    ring = L.QuotientRing(P(F3, "x^3+2*x+1"), 3)  # 3^9 elements
    with pytest.raises(TooLarge):
        exhaustive_morphism_check(L.StabilizingMorphism.identity(ring))
