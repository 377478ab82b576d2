import itertools
import random
import types

import pytest

import locring as L
from locring import lift, poly, quotient
from locring.errors import (
    DegreeMismatch,
    InvalidArgument,
    NotAMorphism,
    NotIrreducible,
    NotSeparable,
    RingMismatch,
    UnsupportedField,
)
from locring.lift import kernel_witness
from locring.poly import Poly, enumerate_polys, is_irreducible

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")
F3T = L.RationalFunctionField(3, "t")
F9 = L.ExtensionField(F3, (1, 0, 1))
F4 = L.parse_field("F2[x]/(x^2+x+1)")
F5 = L.PrimeField(5)
F7 = L.PrimeField(7)
F11 = L.PrimeField(11)


def P(field, text):
    return L.parse_poly(field, text)


# -- sigma^X ----------------------------------------------------------------

def test_extend_identity():
    a = P(Q, "x^2-2")
    assert L.apply_automorphism_to_poly(L.IDENTITY, a) == a


def test_extend_frobenius_over_f9():
    c = F9.gen()
    a = Poly(F9, (c, F9.one()))  # x + c
    shifted = L.apply_automorphism_to_poly(L.frobenius(1), a)
    assert shifted == Poly(F9, (c ** 3, F9.one()))


def test_extend_frobenius_over_prime_field_fixes():
    a = P(F2, "x^3+x+1")
    assert L.apply_automorphism_to_poly(L.frobenius(1), a) == a


# -- residue morphisms ------------------------------------------------------

def test_residue_morphism_cross_f3():
    f = L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^2+x+2"),
                                  L.IDENTITY, P(F3, "x+2"))
    assert f.s_cert == Poly.one(F3)


def test_residue_morphism_frobenius_style():
    p = P(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, P(F2, "x^2"))
    assert f.s_cert == p  # P(X^2) = P^2 in char 2


def test_residue_morphism_rejects_non_morphism():
    with pytest.raises(NotAMorphism) as exc:
        L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^2+x+2"),
                                  L.IDENTITY, Poly.x(F3))
    # (x^2+1) - (x^2+x+2) = 2x+2 over F3
    assert exc.value.witness == P(F3, "2*x+2")


def test_residue_morphism_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^3+2*x+1"),
                                  L.IDENTITY, Poly.x(F3))


def test_residue_morphism_rejects_an_unreduced_x_image():
    with pytest.raises(DegreeMismatch, match="degree < 2"):
        L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^2+x+2"),
                                  L.IDENTITY, P(F3, "x^2+x+2"))


def test_residue_morphism_rejects_constant_at_degree_2():
    with pytest.raises(NotAMorphism) as exc:
        L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^2+x+2"),
                                  L.IDENTITY, P(F3, "2"))
    assert exc.value.witness == P(F3, "2")  # 2^2 + 1 = 5


def test_find_residue_isomorphisms_rejects_reducible():
    # no candidate passes, yet the reducible modulus is still reported
    with pytest.raises(NotIrreducible):
        L.find_residue_isomorphisms(P(F2, "x^2"), P(F2, "x^2+x+1"))


def test_find_residue_isomorphisms_tests_irreducibility_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return is_irreducible(p)

    irreducibles = L.enumerate_irreducibles(F3, 3)[:3]
    monkeypatch.setattr(poly, "is_irreducible", counting)
    L.find_residue_isomorphisms.cache_clear()
    for p1, p2 in itertools.product(irreducibles, repeat=2):
        assert len(L.find_residue_isomorphisms(p1, p2)) == 3
    assert len(calls) == 2 * 9  # P1 and P2 once per call, not once per hit


def test_find_residue_isomorphisms_f3():
    found = L.find_residue_isomorphisms(P(F3, "x^2+1"), P(F3, "x^2+x+2"))
    assert [f.q_image for f in found] == [P(F3, "2*x+1"), P(F3, "x+2")]


def test_find_residue_isomorphisms_f8():
    found = L.find_residue_isomorphisms(P(F2, "x^3+x+1"), P(F2, "x^3+x^2+1"))
    assert len(found) == 3


def test_find_residue_isomorphisms_self_includes_identity():
    p = P(F2, "x^2+x+1")
    found = L.find_residue_isomorphisms(p, p)
    assert any(f.q_image == Poly.x(F2) for f in found)


def test_find_residue_isomorphisms_count_is_0_or_degree():
    for p1, p2 in itertools.product(L.enumerate_irreducibles(F3, 3), repeat=2):
        found = L.find_residue_isomorphisms(p1, p2)
        assert len(found) == 3


def per_degree_residue_isomorphisms(p1, p2, sigma=L.IDENTITY):
    """Reference search: X-images of each degree 1..d-1 in counting order,
    then sorted by ascending coefficient vector."""
    d = p2.degree
    found = []
    for deg_q in range(1, d):
        for q in enumerate_polys(p1.field, deg_q, monic=False):
            try:
                found.append(L.residue_morphism_from_Q(p1, p2, sigma, q))
            except NotAMorphism:
                pass
    found.sort(key=lambda f: tuple(f.q_image.coeff(i).payload
                                   for i in range(d)))
    return tuple(found)


def _sample(pairs, count, seed=0):
    """Every pair up to ``count``, a seeded sample of ``count`` beyond."""
    pairs = list(pairs)
    if len(pairs) > count:
        pairs = random.Random(seed).sample(pairs, count)
    return pairs


def _check_against_per_degree_search(pairs, sigma, deadline):
    # cold, so that each pair is split again; a split that never ends fails
    L.find_residue_isomorphisms.cache_clear()
    with deadline(10):
        for p1, p2 in pairs:
            assert (L.find_residue_isomorphisms(p1, p2, sigma)
                    == per_degree_residue_isomorphisms(p1, p2, sigma))


@pytest.mark.parametrize("field, degree, sigma, count", [
    (F2, 2, L.IDENTITY, 64), (F2, 3, L.IDENTITY, 64), (F2, 4, L.IDENTITY, 64),
    (F3, 2, L.IDENTITY, 64), (F3, 3, L.IDENTITY, 64),
    (F4, 2, L.frobenius(1), 64), (F4, 3, L.frobenius(1), 64),
    (F9, 2, L.IDENTITY, 64), (F9, 2, L.frobenius(1), 64),
    (F5, 2, L.IDENTITY, 64), (F7, 2, L.IDENTITY, 64),
    (F11, 2, L.IDENTITY, 64), (F3, 4, L.IDENTITY, 16),
], ids=["F2-d2", "F2-d3", "F2-d4", "F3-d2", "F3-d3", "F4-d2-frob",
        "F4-d3-frob", "F9-d2", "F9-d2-frob", "F5-d2", "F7-d2", "F11-d2",
        "F3-d4"])
def test_find_residue_isomorphisms_matches_per_degree_search(
        field, degree, sigma, count, deadline):
    pairs = itertools.product(L.enumerate_irreducibles(field, degree),
                              repeat=2)
    _check_against_per_degree_search(_sample(pairs, count), sigma, deadline)


@pytest.mark.parametrize("p", [5, 13])
def test_find_residue_isomorphisms_splits_opposite_roots(p, deadline):
    # -1 is a square mod 5 and mod 13, so the roots +-alpha of x^2+c have
    # traces t and -t of one quadratic character: the split needs its
    # random shift of the trace to tell them apart
    field = L.PrimeField(p)
    polys = [f for f in L.enumerate_irreducibles(field, 2)
             if f.coeff(1).is_zero()]
    assert len(polys) == (p - 1) // 2
    _check_against_per_degree_search(itertools.product(polys, repeat=2),
                                     L.IDENTITY, deadline)


@pytest.mark.parametrize("field, p1, p2, powering_products", [
    (F3, "x^6+2*x+2", "x^6+x^5+2", 643), (F7, "x^3+3", "x^3+x+1", 326),
], ids=["F3-d6", "F7-d3"])
def test_find_residue_isomorphisms_work(monkeypatch, field, p1, p2,
                                        powering_products):
    # Cantor-Zassenhaus powering over L2 = F_p[X]/(P2) takes 643 and 326
    # products in L2 on these pairs; the trace splitting, whose Frobenius
    # powers are products over F_p, takes a third of that at most
    calls = []
    mul = L.ExtensionField._mul

    def counting(self, a, b):
        calls.append(None)
        return mul(self, a, b)

    p1, p2 = P(field, p1), P(field, p2)
    monkeypatch.setattr(L.ExtensionField, "_mul", counting)
    L.find_residue_isomorphisms.cache_clear()
    assert len(L.find_residue_isomorphisms(p1, p2)) == p1.degree
    assert 0 < len(calls) <= powering_products // 3


def test_find_residue_isomorphisms_ignores_global_random_state():
    # the splitting draws from its own generator, seeded by the inputs
    p1, p2 = P(F3, "x^5+2*x+1"), P(F3, "x^5+2*x^4+1")
    found = []
    for seed in (0, 1):
        random.seed(seed)
        state = random.getstate()
        L.find_residue_isomorphisms.cache_clear()
        found.append(L.find_residue_isomorphisms(p1, p2))
        assert random.getstate() == state
    assert found[0] == found[1] and len(found[0]) == 5


def test_find_residue_isomorphisms_one_cache_entry_per_call():
    p1, p2 = P(F2, "x^3+x+1"), P(F2, "x^3+x^2+1")
    L.find_residue_isomorphisms.cache_clear()
    first = L.find_residue_isomorphisms(p1, p2)
    assert L.find_residue_isomorphisms(p1, p2, L.IDENTITY) is first
    assert L.find_residue_isomorphisms(p1, p2, sigma=L.IDENTITY) is first
    info = L.find_residue_isomorphisms.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_find_residue_isomorphisms_requires_finite():
    with pytest.raises(UnsupportedField):
        L.find_residue_isomorphisms(P(Q, "x^2-2"), P(Q, "x^2-2"))


def test_find_residue_isomorphisms_refuses_infinite_before_degrees():
    # degree 1 alone is searched over Q; a pair with a higher degree is not,
    # and the field is named before the degree mismatch
    with pytest.raises(UnsupportedField):
        L.find_residue_isomorphisms(P(Q, "x-1"), P(Q, "x^2-2"))
    with pytest.raises(DegreeMismatch):
        L.find_residue_isomorphisms(P(F3, "x+1"), P(F3, "x^2+1"))


@pytest.mark.parametrize("field", [F2, F3, F4, F9],
                         ids=["F2", "F3", "F4", "F9"])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("sigma", [L.IDENTITY, L.frobenius(1)], ids=str)
def test_find_residue_isomorphisms_returns_degree_many(field, degree, sigma):
    pairs = itertools.product(L.enumerate_irreducibles(field, degree),
                              repeat=2)
    for p1, p2 in _sample(pairs, 64, seed=degree):
        found = L.find_residue_isomorphisms(p1, p2, sigma)
        assert len(found) == len({f.q_image for f in found}) == degree
        assert all((f.source.p, f.target.p, f.sigma) == (p1, p2, sigma)
                   for f in found)


# -- lifting ----------------------------------------------------------------

def cross_f3():
    return L.residue_morphism_from_Q(P(F3, "x^2+1"), P(F3, "x^2+x+2"),
                                     L.IDENTITY, P(F3, "x+2"))


def frob_f2():
    p = P(F2, "x^3+x+1")
    return L.residue_morphism_from_Q(p, p, L.IDENTITY, P(F2, "x^2"))


def test_lift_morphism_n1_is_f():
    f = cross_f3()
    assert L.lift_morphism(f, 1) is f


def test_lift_morphism_certificate_holds():
    lifted = L.lift_morphism(cross_f3(), 3)
    assert lifted.source.n == 3 and lifted.target.n == 3
    # lifted Frobenius-style morphism is well defined too (P(X^2)^2 = P^4)
    L.lift_morphism(frob_f2(), 2)


def test_lift_report_true_case():
    report = L.lift_is_isomorphism(cross_f3(), 3)
    assert report.verdict
    assert report.s_f == Poly.one(F3)
    assert report.q_f_derivative_nonzero and report.gcd_sf_p2_is_one


def test_lift_report_false_case():
    f = frob_f2()
    report = L.lift_is_isomorphism(f, 2)
    assert not report.verdict
    assert not report.q_f_derivative_nonzero
    assert not report.gcd_sf_p2_is_one
    assert report.s_f == f.target.p


def test_lift_report_n1_always_true():
    report = L.lift_is_isomorphism(frob_f2(), 1)
    assert report.verdict
    assert not report.q_f_derivative_nonzero


def test_linear_q_always_lifts():
    for p in L.enumerate_irreducibles(F2, 2) + L.enumerate_irreducibles(F3, 2):
        for f in L.find_residue_isomorphisms(p, p):
            if f.q_image.degree == 1:
                assert L.lift_is_isomorphism(f, 3).verdict


def test_kernel_witness():
    f = frob_f2()
    for n in (2, 3, 4):
        w = kernel_witness(f, n)
        assert not w.is_zero()
        lifted = L.lift_morphism(f, n)
        assert lifted(w).is_zero()


def _both_criteria_false(f):
    report = L.lift_is_isomorphism(f, 2)
    assert not report.q_f_derivative_nonzero
    assert not report.gcd_sf_p2_is_one
    assert not report.verdict


def _witness_is_p1(f):
    w = kernel_witness(f, 2)
    lifted = L.lift_morphism(f, 2)
    assert w == lifted.source.element(P(F5, "x+1"))
    assert lifted(w).is_zero()


@pytest.mark.parametrize("criterion", [_both_criteria_false, _witness_is_p1],
                         ids=["lift_is_isomorphism", "kernel_witness"])
def test_lift_criteria_reject_constant_q_f(criterion, deadline):
    # the degree-1 residue morphism x -> 4 (the root of x+1) has the constant
    # Q_f = 4 and S_f = 0, so sigma^X(P1) o Q_f = 0 and its lift kills P1
    f = L.residue_morphism_from_Q(P(F5, "x+1"), P(F5, "x+3"), L.IDENTITY,
                                  P(F5, "4"))
    with deadline(5):
        criterion(f)


def test_criteria_compute_the_cofactor_when_none_is_stored():
    p = P(F2, "x^3+x+1")
    injective = set()
    for f in L.find_residue_isomorphisms(p, p):
        g = L.StabilizingMorphism.from_json(f.to_json())
        assert g.s_cert == f.s_cert
        for n in (2, 3):
            report = L.lift_is_isomorphism(g, n)
            assert report == L.lift_is_isomorphism(f, n)
            injective.add(report.verdict)
            if not report.verdict:
                assert kernel_witness(g, n) == kernel_witness(f, n)
    assert injective == {True, False}


def test_kernel_witness_rejects_level_1_and_injective_lifts():
    with pytest.raises(ValueError, match="n >= 2"):
        kernel_witness(frob_f2(), 1)
    with pytest.raises(ValueError, match="injective"):
        kernel_witness(cross_f3(), 2)


def test_functoriality_with_projections():
    f = cross_f3()
    f3_lift = L.lift_morphism(f, 3)
    f2_lift = L.lift_morphism(f, 2)
    rng = random.Random(6)
    for _ in range(100):
        a = f3_lift.source.random_element(rng)
        assert f3_lift(a).project(2) == f2_lift(a.project(2))


def test_induced_residue_morphism_round_trip():
    f = cross_f3()
    lifted = L.lift_morphism(f, 3)
    back = L.induced_residue_morphism(lifted)
    assert back.q_image == f.q_image
    assert back.source == f.source and back.target == f.target


def test_induced_residue_morphism_strips_multiples():
    # X-image x^2 + P2*(x+1) at level 2 reduces to q = x^2
    p2 = P(F2, "x^3+x+1")
    f = frob_f2()
    lifted = L.lift_morphism(f, 2)
    r = P(F2, "x^2") + p2 * P(F2, "x+1")
    same = L.StabilizingMorphism(lifted.source, lifted.target, L.IDENTITY, r)
    induced = L.induced_residue_morphism(same)
    assert induced.q_image == P(F2, "x^2")


def test_induced_identity():
    ring = L.QuotientRing(P(F3, "x^2+1"), 3)
    ident = L.StabilizingMorphism.identity(ring)
    assert L.induced_residue_morphism(ident).is_identity()


# -- roots bijection --------------------------------------------------------

def test_roots_bijection_cross_f3():
    report = L.roots_bijection_check(cross_f3())
    assert report.passed and report.n_roots == 2


def test_roots_bijection_identity():
    p = P(F3, "x^2+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, Poly.x(F3))
    assert L.roots_bijection_check(f).passed


def test_roots_bijection_f8():
    for f in L.find_residue_isomorphisms(P(F2, "x^3+x+1"),
                                         P(F2, "x^3+x^2+1")):
        report = L.roots_bijection_check(f)
        assert report.passed and report.n_roots == 3


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_roots_bijection_over_f4_frobenius(degree):
    # the splitting field F4[X]/(P2) is a tower over F2
    p1, p2 = L.enumerate_irreducibles(F4, degree)[:2]
    found = L.find_residue_isomorphisms(p1, p2, L.frobenius(1))
    assert len(found) == degree
    for f in found:
        report = L.roots_bijection_check(f)
        assert report.passed and report.n_roots == degree


def test_roots_bijection_rejects_a_non_morphism():
    # x -> x is not a morphism x^2+1 -> x^2+x+2 over F3: the images of the
    # roots of P2 are not roots of P1
    # (the morphism constructor refuses it, so the check reads a stand-in)
    p1, p2 = P(F3, "x^2+1"), P(F3, "x^2+x+2")
    f = types.SimpleNamespace(source=L.QuotientRing(p1, 1),
                              target=L.QuotientRing(p2, 1),
                              sigma=L.IDENTITY, q_image=Poly.x(F3))
    report = L.roots_bijection_check(f)
    assert not report.passed and report.n_roots == 2


def test_roots_bijection_reports_elements_of_the_residue_ring(monkeypatch):
    # the roots are evaluated mod P2, with no extension field built for L2
    monkeypatch.setattr(lift, "ExtensionField", None)
    for f in (cross_f3(), L.lift_morphism(cross_f3(), 3),
              L.residue_morphism_from_Q(P(F5, "x+1"), P(F5, "x+3"),
                                        L.IDENTITY, P(F5, "4"))):
        report = L.roots_bijection_check(f)
        residue = f.target.at_power(1)
        assert report.passed
        assert all(a.ring == residue for a in report.roots_p2 + report.images)
        assert residue.gen() in report.roots_p2
        assert f(f.source.gen()).project(1) in report.images


def test_roots_bijection_requires_a_finite_field():
    ring = L.QuotientRing(P(Q, "x^2-2"), 1, assume_irreducible=True)
    f = L.StabilizingMorphism(ring, ring, L.IDENTITY, P(Q, "-x"))
    with pytest.raises(UnsupportedField):
        L.roots_bijection_check(f)


# -- full pipeline ----------------------------------------------------------

def test_rings_isomorphic_cross_f3():
    iso = L.rings_isomorphic_separable(P(F3, "x^2+1"), P(F3, "x^2+x+2"), 3)
    assert iso is not None
    assert iso.q_image % iso.target.p == P(F3, "2*x+1")  # first lex candidate
    assert L.certify_isomorphism(iso)


def test_rings_isomorphic_rejects_power_0():
    with pytest.raises(InvalidArgument):
        L.rings_isomorphic_separable(P(F3, "x^2+1"), P(F3, "x^2+x+2"), 0)


def test_rings_isomorphic_degree_mismatch():
    assert L.rings_isomorphic_separable(P(F3, "x^2+1"),
                                        P(F3, "x^3+2*x+1"), 2) is None


def test_rings_isomorphic_self():
    p = P(F3, "x^2+1")
    iso = L.rings_isomorphic_separable(p, p, 4)
    assert iso is not None and L.certify_isomorphism(iso)


def test_rings_isomorphic_degree_one():
    iso = L.rings_isomorphic_separable(P(F3, "x"), P(F3, "x+1"), 3)
    assert iso is not None
    assert iso.q_image == P(F3, "x+1")
    assert L.certify_isomorphism(iso)
    # the morphism sends the maximal ideal generator onto the other one
    src_p = iso.source.element(iso.source.p)
    assert iso(src_p) == iso.target.element(iso.target.p)


def _linear_pairs(field):
    roots = list(field.elements())
    return [(Poly(field, (-c1, field.one())), Poly(field, (-c2, field.one())))
            for c1 in roots for c2 in roots]


@pytest.mark.parametrize("field, sigma", [
    (F2, L.IDENTITY), (F3, L.IDENTITY), (F5, L.IDENTITY), (F4, L.IDENTITY),
    (F9, L.IDENTITY), (F4, L.frobenius(1)),
], ids=["F2", "F3", "F5", "F4", "F9", "F4-frob"])
def test_rings_isomorphic_degree_one_shifts(field, sigma):
    # P_i = X - c_i; the corrected lift gives X -> X + sigma(c1) - c2, which
    # is X + (c1 - c2) for sigma = id
    for (p1, p2), n in itertools.product(_linear_pairs(field), range(1, 5)):
        c1, c2 = -p1.coeff(0), -p2.coeff(0)
        iso = L.rings_isomorphic_separable(p1, p2, n, sigma=sigma)
        assert iso.sigma == sigma
        assert iso.q_image == (Poly.x(field) + (sigma.apply(c1) - c2)) \
            % iso.target.modulus
        assert L.certify_isomorphism(iso)


def test_rings_isomorphic_degree_one_over_q():
    iso = L.rings_isomorphic_separable(P(Q, "x+1"), P(Q, "x-1/2"), 3)
    assert iso.q_image == P(Q, "x-3/2")
    assert L.certify_isomorphism(iso)


@pytest.mark.parametrize("field, c1, c2", [
    (Q, "1", "-3"), (Q, "-1/2", "2/3"), (F3T, "t", "t^2+1"), (F3T, "1/t", "2"),
], ids=["Q", "Q-fractions", "F3(t)", "F3(t)-fraction"])
def test_degree_one_over_infinite_fields(field, c1, c2):
    # P_i = X - c_i: the one residue morphism is X -> c1, its lift is
    # corrected to X -> X + c1 - c2, and no irreducibility is assumed
    p1, p2 = P(field, f"x-({c1})"), P(field, f"x-({c2})")
    found = L.find_residue_isomorphisms(p1, p2)
    assert [f.q_image for f in found] == [P(field, c1)]
    for n in range(1, 5):
        iso = L.rings_isomorphic_separable(p1, p2, n)
        assert iso.q_image == P(field, f"x+({c1})-({c2})") % iso.target.modulus
        assert L.certify_isomorphism(iso)


@pytest.mark.parametrize("n", [2, 3])
def test_rings_isomorphic_digit_transport_fallback(n):
    # Q_f = X^2 has Q_f' = 0, so its lift is not injective and the
    # isomorphism sends X to Q_f + V*P2 with Q' = 1 mod P2 instead
    f = frob_f2()
    p = f.source.p
    assert not L.lift_is_isomorphism(f, n).verdict
    iso = L.rings_isomorphic_separable(p, p, n, residue_morphism=f)
    assert iso is not None
    assert iso.source.n == iso.target.n == n
    assert L.certify_isomorphism(iso)
    assert L.induced_residue_morphism(iso) == f


def _corrected_lift_cases():
    for field, degree in ((F2, 3), (F2, 4)):
        irreducibles = L.enumerate_irreducibles(field, degree)
        yield from itertools.product(irreducibles, repeat=2)
    pairs = list(itertools.product(L.enumerate_irreducibles(F3, 4), repeat=2))
    yield from random.Random(4).sample(pairs, 20)


def test_rings_isomorphic_corrects_every_residue_morphism(deadline):
    # these degrees have residue morphisms with Q_f in F_p[X^p], whose plain
    # lift is not injective
    fallbacks = 0
    with deadline(2):
        for (p1, p2), n in itertools.product(_corrected_lift_cases(), (2, 3)):
            for f in L.find_residue_isomorphisms(p1, p2):
                iso = L.rings_isomorphic_separable(p1, p2, n,
                                                   residue_morphism=f)
                assert L.certify_isomorphism(iso)
                assert L.induced_residue_morphism(iso) == f
                if L.lift_is_isomorphism(f, n).verdict:
                    assert iso == L.lift_morphism(f, n)
                else:
                    fallbacks += 1
                    assert iso.q_image.derivative() % p2 == Poly.one(p2.field)
    assert fallbacks > 0


def test_rings_isomorphic_rejects_residue_morphism_between_other_rings():
    p1, p2 = P(F3, "x^2+1"), P(F3, "x^2+x+2")
    self_map = L.find_residue_isomorphisms(p1, p1)[0]
    with pytest.raises(RingMismatch):
        L.rings_isomorphic_separable(p1, p2, 2, residue_morphism=self_map)
    cross = L.find_residue_isomorphisms(p1, p2)[0]
    with pytest.raises(RingMismatch):
        L.rings_isomorphic_separable(p2, p1, 2, residue_morphism=cross)


def test_rings_isomorphic_rejects_residue_morphism_for_another_sigma():
    p1, p2 = P(F4, "x^2+x+a"), P(F4, "x^2+a*x+1")
    f = L.find_residue_isomorphisms(p1, p2, L.frobenius(1))[0]
    with pytest.raises(RingMismatch, match=r"sigma=frob\^1.*sigma=id"):
        L.rings_isomorphic_separable(p1, p2, 2, residue_morphism=f)
    iso = L.rings_isomorphic_separable(p1, p2, 2, sigma=L.frobenius(1),
                                       residue_morphism=f)
    assert iso.sigma == L.frobenius(1)
    assert L.certify_isomorphism(iso)


def test_rings_isomorphic_not_squarefree_over_q_raises():
    p = P(Q, "x^2+2*x+1")
    f = L.StabilizingMorphism.identity(
        L.QuotientRing(p, 1, assume_irreducible=True))
    with pytest.raises(NotIrreducible):
        L.rings_isomorphic_separable(p, p, 2, residue_morphism=f)


def test_rings_isomorphic_inseparable_raises():
    p = P(F2T, "x^2+t")
    with pytest.raises(NotSeparable):
        L.rings_isomorphic_separable(p, p, 2)


def test_rings_isomorphic_char0_with_supplied_residue_morphism():
    p = P(Q, "x^2-2")
    ring = L.QuotientRing(p, 1, assume_irreducible=True)
    f = L.StabilizingMorphism(ring, ring, L.IDENTITY, P(Q, "-x"))
    assert f.s_cert == Poly.one(Q)
    iso = L.rings_isomorphic_separable(p, p, 3, residue_morphism=f)
    assert iso is not None
    assert iso.q_image == P(Q, "-x")
    assert L.certify_isomorphism(iso)


def test_rings_isomorphic_char0_without_morphism_raises():
    p = P(Q, "x^2-2")
    with pytest.raises(UnsupportedField):
        L.rings_isomorphic_separable(p, p, 2)


# -- the cofactor S_f -------------------------------------------------------

def _morphisms_of_every_origin():
    """Morphisms from each path that builds one: the search over F2, F3 and
    F4 with frob, lifts, compositions, JSON round trips, identities, an
    embedding and the corrected isomorphism of rings_isomorphic_separable."""
    searched = []
    for field, degree, sigma in ((F2, 3, L.IDENTITY), (F3, 2, L.IDENTITY),
                                 (F4, 2, L.frobenius(1))):
        irreducibles = L.enumerate_irreducibles(field, degree)[:2]
        for p1, p2 in itertools.product(irreducibles, repeat=2):
            searched += L.find_residue_isomorphisms(p1, p2, sigma)
    p = P(F2, "x^3+x+1")
    self_maps = L.find_residue_isomorphisms(p, p)
    lifts = [L.lift_morphism(f, n) for f in searched[:6] for n in (2, 3)]
    composed = [g.compose(f) for f, g in itertools.product(self_maps,
                                                           repeat=2)]
    composed += [L.lift_morphism(g, 2).compose(L.lift_morphism(f, 2))
                 for f, g in zip(self_maps, self_maps[1:])]
    ring = L.QuotientRing(P(F3, "x^2+1"), 2)
    return (searched + lifts + composed
            + [L.StabilizingMorphism.from_json(f.to_json())
               for f in searched + lifts]
            + [L.StabilizingMorphism.identity(ring),
               L.StabilizingMorphism.identity(ring.at_power(1)),
               L.embed_residue_field(P(F3, "x^2+1"), 3),
               L.rings_isomorphic_separable(P(F5, "x+1"), P(F5, "x+3"), 2),
               L.rings_isomorphic_separable(P(F3, "x+1"), P(F3, "x+2"), 3)])


def test_s_cert_is_the_exact_cofactor_computed_once(monkeypatch):
    calls = []
    real = quotient._residue_cofactor

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(quotient, "_residue_cofactor", counting)
    morphisms = _morphisms_of_every_origin()
    for f in morphisms:
        p2 = f.target.p
        shifted = L.apply_automorphism_to_poly(f.sigma, f.source.p)
        assert f.s_cert * p2 == shifted.compose(f.q_image % p2)
        before = len(calls)
        assert f.s_cert == f.s_cert
        assert len(calls) == before  # a second read recomputes nothing
        with pytest.raises(AttributeError, match="is immutable"):
            f.s_cert = Poly.one(f.target.field)
    assert len(calls) <= len(morphisms)


def test_search_computes_no_cofactor(monkeypatch):
    calls = []
    monkeypatch.setattr(quotient, "_residue_cofactor", calls.append)
    L.find_residue_isomorphisms.cache_clear()
    found = L.find_residue_isomorphisms(P(F2, "x^16+x^5+x^3+x^2+1"),
                                        P(F2, "x^16+x^12+x^3+x+1"))
    assert len(found) == 16 and calls == []
