"""Acceptance gate: one test per criterion, exact (zero-tolerance) arithmetic.

Each test records a single PASS line, shown in the terminal summary once
every assertion in it has held.
"""

import itertools
import random
import time

import pytest

from conftest import acceptance_lines

import locring as L
from locring.cli import main
from locring.errors import NotSeparable
from locring.hensel import structure_isomorphism_check
from locring.lift import kernel_witness
from locring.poly import Poly, enumerate_irreducibles, parse_poly
from locring.verify import kernel_dimension

F2 = L.PrimeField(2)
F3 = L.PrimeField(3)
Q = L.Rationals()
F2T = L.RationalFunctionField(2, "t")


def report(line):
    print(line)
    acceptance_lines.append(line)


def irreducibles_up_to(field, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(enumerate_irreducibles(field, d))
    return out


def test_criterion_1_root_series_certificates_exact():
    f2_polys = irreducibles_up_to(F2, 4)
    f3_polys = irreducibles_up_to(F3, 4)
    assert len(f2_polys) == 8
    assert len(f3_polys) == 32
    start = time.perf_counter()
    for p in f2_polys + f3_polys:
        for k in range(1, 5):
            rs = L.hensel_root_series(p, k)
            assert rs.certificate_residual().is_zero()
            assert (p.compose(rs.u) - rs.r_cert * p ** k).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 1: PASS (40 polynomials x k<=4, certificates exact, "
           f"{elapsed:.3f}s)")


def test_criterion_2_embedding_and_digit_round_trip():
    rng = random.Random(2026)
    n_rings = 0
    for p in irreducibles_up_to(F2, 4) + irreducibles_up_to(F3, 4):
        for k in range(1, 5):
            f = L.embed_residue_field(p, k)
            # section property: reducing the embedding mod P recovers the input
            for a in f.source.elements():
                assert f(a).project(1) == a
            # morphism law on sampled pairs (exhaustive law + digit round trip
            # are covered by the structure check below)
            for _ in range(50):
                a = f.source.random_element(rng)
                b = f.source.random_element(rng)
                assert f(a + b) == f(a) + f(b)
                assert f(a * b) == f(a) * f(b)
            check = structure_isomorphism_check(p, k)
            assert check.passed
            assert check.exhaustive == (f.target.order() <= 3 ** 6)
            n_rings += 1
    report(f"criterion 2: PASS ({n_rings} rings, embedding law + section + "
           f"digit round trips exact)")


def _criterion_3_morphisms():
    found = []
    for d in (2, 3):
        for p1, p2 in itertools.product(enumerate_irreducibles(F3, d),
                                        repeat=2):
            morphisms = L.find_residue_isomorphisms(p1, p2)
            assert morphisms
            found.extend(morphisms)
    return found


def test_criterion_3_same_degree_pairs_are_isomorphic():
    start = time.perf_counter()
    n_checked = 0
    for d in (1, 2, 3):
        for p1, p2 in itertools.product(enumerate_irreducibles(F3, d),
                                        repeat=2):
            if d >= 2:
                assert L.find_residue_isomorphisms(p1, p2)
            for n in (1, 2, 3):
                iso = L.rings_isomorphic_separable(p1, p2, n)
                assert iso is not None
                assert L.certify_isomorphism(iso)
                n_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"criterion 3: PASS ({n_checked} (P1,P2,n) isomorphisms certified, "
           f"{elapsed:.3f}s)")


def test_criterion_4_three_way_agreement():
    kernel_cache = {}
    n_checked = 0
    for field in (F2, F3):
        for d in (2, 3, 4):
            for p1, p2 in itertools.product(enumerate_irreducibles(field, d),
                                            repeat=2):
                for sigma in (L.IDENTITY, L.frobenius(1)):
                    for f in L.find_residue_isomorphisms(p1, p2, sigma):
                        for n in (2, 3, 4):
                            # raises CriterionDisagreement if the gcd and
                            # derivative criteria ever part ways
                            rep = L.lift_is_isomorphism(f, n)
                            key = (field.p, p1.coeffs, p2.coeffs,
                                   f.q_image.coeffs, n)
                            if key not in kernel_cache:
                                kernel_cache[key] = kernel_dimension(
                                    L.lift_morphism(f, n))
                            assert rep.verdict == (kernel_cache[key] == 0)
                            n_checked += 1
    report(f"criterion 4: PASS ({n_checked} morphism/power cases, "
           f"gcd = derivative = kernel criteria agree)")


def test_criterion_5_negative_witness():
    p = parse_poly(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, parse_poly(F2, "x^2"))
    assert f.s_cert == p  # S_f = P since P(X^2) = P^2 in characteristic 2
    rep = L.lift_is_isomorphism(f, 2)
    assert rep.s_f == p
    assert not rep.verdict
    w = kernel_witness(f, 2)
    assert w.rep == p
    assert not w.is_zero()
    assert L.lift_morphism(f, 2)(w).is_zero()
    report("criterion 5: PASS (S_f = P, class of P is a nonzero kernel "
           "element of the level-2 lift)")


def test_criterion_6_characteristic_zero():
    p = parse_poly(Q, "x^2-2")
    for k in range(1, 6):
        rs = L.hensel_root_series(p, k)
        assert rs.certificate_residual().is_zero()
    rs2 = L.hensel_root_series(p, 2)
    assert rs2.q_list == (parse_poly(Q, "-x/4"),)
    report("criterion 6: PASS (X^2-2 over Q, k<=5 certificates exact, "
           "Q_1 = -X/4)")


def test_criterion_7_inseparable_boundary(capsys):
    p = parse_poly(F2T, "x^2+t")
    with pytest.raises(NotSeparable):
        L.hensel_root_series(p, 2)
    with pytest.raises(NotSeparable):
        L.embed_residue_field(p, 2, assume_irreducible=True)
    with pytest.raises(NotSeparable):
        L.rings_isomorphic_separable(p, p, 2)
    assert main(["demo-inseparable"]) == 0
    out = capsys.readouterr().out
    assert "P' = 0" in out
    assert "gcd(P', P) = x^2+t != 1" in out
    report("criterion 7: PASS (X^2+t over F2(t) rejected everywhere, "
           "demo exits 0)")


def test_criterion_8_roots_bijections():
    morphisms = list(_criterion_3_morphisms())
    for p1, p2 in itertools.product(enumerate_irreducibles(F2, 3), repeat=2):
        morphisms.extend(L.find_residue_isomorphisms(p1, p2))
    for f in morphisms:
        rep = L.roots_bijection_check(f)
        assert rep.passed
        assert rep.n_roots == f.source.p.degree
    report(f"criterion 8: PASS ({len(morphisms)} morphisms, root sets in "
           f"bijection under Q_f)")
