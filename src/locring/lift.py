"""Lifting residue-field isomorphisms to the level-n quotient rings.

Given irreducible P1, P2 and a residue-level morphism f: K[X]/(P1) ->
K[X]/(P2) with X-image Q_f, the cofactor S_f satisfies
sigma^X(P1) o Q_f = S_f * P2.  The same X-image defines a morphism
K[X]/(P1^n) -> K[X]/(P2^n) for every n, and that lift is an isomorphism
exactly when gcd(S_f, P2) = 1, equivalently when Q_f' != 0.

Over a finite field F_q the residue morphisms are found by root finding:
their X-images are the roots of sigma^X(P1) in L2 = F_q[X]/(P2).  One root
comes from Berlekamp's trace splitting, with the Frobenius powers of Y
modulo sigma^X(P1) computed once over F_q, where its coefficients lie; the
others are its Frobenius orbit, and each is certified once, by the morphism
constructor.  S_f is a property of the morphism, computed when it is read.
At degree 1 the one root is sigma(c1), c1 the root of P1, over every field.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .errors import (
    CriterionDisagreement,
    DegreeMismatch,
    InvalidArgument,
    NotAMorphism,
    NotWellDefined,
    RingMismatch,
    UnsupportedField,
)
from .fields import IDENTITY, ExtensionField, frobenius
from .hensel import derivative_inverse
from .poly import Poly, apply_automorphism_to_poly, format_poly, gcd
from .quotient import QuotientRing, StabilizingMorphism


def _residue_morphism(source, target, sigma, q):
    """The level-1 morphism with X-image q; NotAMorphism, with the remainder
    of sigma^X(P1)(q) mod P2 as witness, when q is not an X-image."""
    try:
        return StabilizingMorphism(source, target, sigma, q)
    except NotWellDefined as e:
        raise NotAMorphism(f"not a residue morphism: {e}",
                           witness=e.witness) from e


def residue_morphism_from_Q(p1, p2, sigma, q, assume_irreducible=False):
    """Level-1 morphism K[X]/(P1) -> K[X]/(P2) from a candidate X-image.

    The constructor certifies that P2 divides sigma^X(P1) o Q (NotAMorphism
    names the remainder otherwise).  A level-1 morphism between the residue
    fields is injective, hence (equal dimensions) an isomorphism.
    At degree 1 the X-image is the constant sigma(c1), c1 the root of P1;
    at higher degree no constant passes.
    """
    if p1.degree != p2.degree:
        raise DegreeMismatch(
            f"deg {format_poly(p1)} = {p1.degree} != {p2.degree} = "
            f"deg {format_poly(p2)}")
    if q.degree >= p2.degree:
        raise DegreeMismatch(f"X-image must have degree < {p2.degree}")
    source = QuotientRing(p1, 1, assume_irreducible=assume_irreducible)
    target = QuotientRing(p2, 1, assume_irreducible=assume_irreducible)
    return _residue_morphism(source, target, sigma, q)


def _split_root(ext, s, rng):
    """One root in the finite field ``ext`` = K[Y]/(m), |ext| = p^k, of the
    monic polynomial s over K (a base payload) that splits over ext into
    distinct linear factors, by Berlekamp's trace splitting (E. R.
    Berlekamp, Math. Comp. 24, 1970) with the Frobenius powers
    ys[i] = Y^(p^i) mod s computed once over K (J. von zur Gathen and
    V. Shoup, Comput. Complexity 2, 1992).

    For a random delta in ext, T = sum_i delta^(p^i) * ys[i] is
    Tr(delta*Y) mod s, so T(alpha) = Tr_{ext/F_p}(delta*alpha) lies in F_p at
    each root alpha.  For a random e in F_p, gcd(r, (T + e)^(p//2) - 1), r a
    factor of s, keeps the roots where T + e is a nonzero square (p odd) or
    is 1 (p = 2); the shift e tells apart roots whose traces differ only in
    sign.  The splitting recurses into the smaller factor."""
    base, p = ext.base, ext.char
    frob = frobenius().on(ext)
    ys = [(base._from_int(0), base._from_int(1))]
    while p ** len(ys) < ext.order():
        ys.append(base._ppow(ys[-1], p, s))
    # cols[j][i] is the coefficient of Y^j in ys[i]
    cols = list(itertools.zip_longest(*ys, fillvalue=base._from_int(0)))
    r = tuple(base._ptrim((c,)) for c in s)
    while len(r) > 2:
        deltas = [ext.random_payload(rng)]
        while len(deltas) < len(ys):
            deltas.append(frob(deltas[-1]))
        t = ext._padd(ext._ptrim([base._pdot(col, deltas) for col in cols]),
                      (ext._from_int(rng.randrange(p)),))
        h = ext._padd(ext._ppow(t, p // 2, r), (ext._from_int(-1),))
        g = ext._pgcd(r, h)
        if 1 < len(g) < len(r):
            r = min(g, ext._pdivmod(r, g)[0], key=len)
    return ext._neg(r[0])


def _frobenius_orbit(field, a, m, d):
    """The payloads a^(q^i) mod m, i < d, q = |field|, in ascending order."""
    orbit, q = [a], field.order()
    for _ in range(d - 1):
        orbit.append(field._ppow(orbit[-1], q, m))
    return sorted(orbit)


def _root_vectors(p2, shifted, seed):
    """The payloads of the d roots of sigma^X(P1) in L2 = F_q[X]/(P2), in
    ascending lexicographic order: one root by trace splitting, the others
    its Frobenius orbit Q^(q^i)."""
    field = p2.field
    if p2.degree == 1:
        return [field._ptrim((field._neg(shifted.payload[0]),))]
    # QuotientRing(P2, 1) has just verified P2
    ext = ExtensionField(field, p2.coeffs, assume_irreducible=True)
    root = _split_root(ext, shifted.payload, random.Random(seed))
    return _frobenius_orbit(field, root, p2.payload, p2.degree)


@functools.lru_cache(maxsize=128)
def _search(p1, p2, sigma):
    field = p1.field
    if not field.is_finite() and (p1.degree, p2.degree) != (1, 1):
        raise UnsupportedField(
            f"residue isomorphism search requires a finite field, got {field}")
    if p1.degree != p2.degree:
        raise DegreeMismatch("search requires equal degrees")
    source, target = QuotientRing(p1, 1), QuotientRing(p2, 1)
    shifted = apply_automorphism_to_poly(sigma, p1)
    # seeded by the inputs, not by hash(), so a run repeats exactly
    seed = f"{field}|{p1.payload}|{p2.payload}|{sigma.power}"
    return tuple(StabilizingMorphism(source, target, sigma, Poly._of(field, v))
                 for v in _root_vectors(p2, shifted, seed))


def find_residue_isomorphisms(p1, p2, sigma=IDENTITY):
    """All residue-level morphisms K[X]/(P1) -> K[X]/(P2) for a fixed base
    automorphism, over a finite field or, at degree 1, over any field, in
    lexicographic order of ascending coefficient vectors (constant term
    first, field elements in enumeration order).

    Their X-images are the roots of sigma^X(P1) in L2 = F_q[X]/(P2): one
    root is found by Berlekamp's trace splitting (Math. Comp. 24, 1970),
    from the powers Y^(p^i) mod sigma^X(P1) computed once over F_q (von zur
    Gathen and Shoup, Comput. Complexity 2, 1992), and the others are its
    Frobenius orbit Q^(q^i), i < d.  The constructor certifies each once;
    S_f waits until it is read.  The cost is polynomial in d and log q.
    The result has exactly deg(P2) entries (conjugate roots): at degree 1
    the one X-image sigma(c1), c1 the root of P1.  UnsupportedField for an
    infinite field above degree 1, DegreeMismatch for unequal degrees.
    """
    return _search(p1, p2, sigma)


# one cache entry per (P1, P2, sigma), whether sigma is passed or defaulted
find_residue_isomorphisms.cache_info = _search.cache_info
find_residue_isomorphisms.cache_clear = _search.cache_clear


def lift_morphism(f, n):
    """The level-n morphism with the same sigma and X-image.

    Well-definedness follows from sigma^X(P1^n) o Q_f = S_f^n * P2^n and is
    re-verified by the morphism constructor; the rings reject n < 1.
    """
    if n == f.source.n == f.target.n:
        return f
    return StabilizingMorphism(f.source.at_power(n), f.target.at_power(n),
                               f.sigma, f.q_image)


@dataclass(frozen=True)
class LiftReport:
    """Outcome of the isomorphism criterion for a lifted morphism."""

    q_f: Poly
    s_f: Poly
    n: int
    q_f_derivative_nonzero: bool
    gcd_sf_p2_is_one: bool
    verdict: bool


def lift_is_isomorphism(f, n):
    """Decide whether the level-n lift of a residue morphism is bijective.

    Evaluates both equivalent criteria -- gcd(S_f, P2) = 1 and Q_f' != 0 --
    and asserts their agreement; any disagreement is an arithmetic bug.
    For n = 1 the verdict is always true (field map, equal dimensions).
    """
    if n < 1:
        raise InvalidArgument("power must be >= 1")
    p2 = f.target.p
    q_f = f.q_image % p2
    deriv_nonzero = not q_f.derivative().is_zero()
    gcd_one = gcd(f.s_cert, p2).degree == 0
    if deriv_nonzero != gcd_one:
        raise CriterionDisagreement(
            f"gcd(S_f, P2) = 1 is {gcd_one} but Q_f' != 0 is {deriv_nonzero} "
            f"for Q_f = {format_poly(q_f)}")
    verdict = True if n == 1 else deriv_nonzero
    return LiftReport(q_f=q_f, s_f=f.s_cert, n=n,
                      q_f_derivative_nonzero=deriv_nonzero,
                      gcd_sf_p2_is_one=gcd_one, verdict=verdict)


def kernel_witness(f, n):
    """For a residue morphism whose level-n lift (n >= 2) is NOT injective:
    the nonzero class of P1^e killed by the lift, where e = ceil(n/m) and
    m = 1 + v_P2(S_f), the multiplicity of P2 in sigma^X(P1) o Q_f = S_f*P2,
    capped at n (at degree 1, S_f = 0, Q_f being the root sigma(c1))."""
    if n < 2:
        raise ValueError("kernel witnesses exist only for n >= 2")
    p2, s_f, m = f.target.p, f.s_cert, 1
    while m < n and (qr := divmod(s_f, p2))[1].is_zero():
        s_f, m = qr[0], m + 1
    if m < 2:
        raise ValueError("lift is injective; no kernel witness")
    e = -(-n // m)  # ceil(n/m); e*m >= n and e < n, so P1^e is nonzero
    ring = f.source.at_power(n)
    return ring.element(f.source.p ** e)


def induced_residue_morphism(f_m):
    """The residue-level morphism induced by a level-m morphism: reduce the
    X-image mod P2 (independent of the stored representative)."""
    target = f_m.target.at_power(1)
    return _residue_morphism(f_m.source.at_power(1), target, f_m.sigma,
                             f_m.q_image % target.p)


@dataclass(frozen=True)
class RootsBijectionReport:
    passed: bool
    n_roots: int
    roots_p2: tuple
    images: tuple

    def __bool__(self):
        return self.passed


def roots_bijection_check(f):
    """Verify that alpha -> Q_f(alpha) maps the roots of P2 bijectively onto
    the roots of sigma^X(P1) in the splitting field F_q[X]/(P2).

    The roots of P2 there are the Frobenius orbit a^(q^i), i < d, of the
    class a of X.  A polynomial of degree d has at most d roots, so d
    distinct roots of P2 whose d images are distinct roots of sigma^X(P1)
    prove the bijection without enumerating the q^d elements.  The report
    holds the roots and their images as elements of K[X]/(P2).
    """
    base = f.source.field
    if not base.is_finite():
        raise UnsupportedField(
            f"root check requires a finite field, got {base}")
    residue = f.target.at_power(1)
    m, d = residue.p.payload, residue.p.degree
    shifted_p1 = apply_automorphism_to_poly(f.sigma, f.source.p).payload
    q_f = base._prem(f.q_image.payload, m)
    # g(a) in L2 is g o a mod P2; X mod P2 is c at degree 1 (P2 = x - c)
    roots_p2 = _frobenius_orbit(base, base._prem(Poly.x(base).payload, m),
                                m, d)
    images = [base._pcompose(q_f, a, m) for a in roots_p2]
    passed = (len(set(roots_p2)) == len(set(images)) == d
              and not any(base._pcompose(m, a, m) for a in roots_p2)
              and not any(base._pcompose(shifted_p1, b, m) for b in images))
    elements = lambda vs: tuple(residue.element(Poly._of(base, v)) for v in vs)
    return RootsBijectionReport(passed=passed, n_roots=d,
                                roots_p2=elements(roots_p2),
                                images=elements(images))


def pick_residue_morphism(candidates, n):
    """The first candidate whose level-n lift is an isomorphism, else the
    first candidate."""
    for f in candidates:
        if lift_is_isomorphism(f, n).verdict:
            return f
    return candidates[0]


def rings_isomorphic_separable(p1, p2, n, sigma=IDENTITY,
                               residue_morphism=None):
    """Produce an isomorphism K[X]/(P1^n) -> K[X]/(P2^n) for separable
    irreducible P1, P2, or None when the residue fields differ.

    Over finite fields the residue fields are isomorphic iff the degrees
    agree, and find_residue_isomorphisms supplies the candidates, as it does
    at degree 1 over every field; above degree 1 over other fields a
    residue morphism must be supplied by the caller (UnsupportedField
    otherwise).  A supplied one must run from K[X]/(P1) to K[X]/(P2) with
    this sigma (RingMismatch otherwise).  A residue morphism whose lift
    criterion holds is lifted directly.  If every candidate has Q_f' = 0
    (always so at degree 1), the first one is corrected to the X-image
    Q = Q_f + V*P2, V = (1 - Q_f') / P2' mod P2: Q = Q_f mod P2, so Q
    induces the same residue morphism and is an X-image at every n, and
    Q' = 1 mod P2, so its lift is an isomorphism.  At degree 1 that is
    X + sigma(c1) - c2, c2 the root of P2.  Raises NotSeparable or
    NotIrreducible when P1 or P2 is not separable or not squarefree.
    """
    derivative_inverse(p1)
    dp2_inverse = derivative_inverse(p2)
    if n < 1:
        raise InvalidArgument("power must be >= 1")
    if residue_morphism is not None and (
            (residue_morphism.source.p, residue_morphism.target.p,
             residue_morphism.sigma) != (p1, p2, sigma)):
        raise RingMismatch(f"{residue_morphism} is not a residue morphism "
                           f"from P1 = {p1} to P2 = {p2} with "
                           f"sigma={sigma.label()}")
    if p1.degree != p2.degree:
        return None
    candidates = ((residue_morphism,) if residue_morphism is not None
                  else find_residue_isomorphisms(p1, p2, sigma))
    f = pick_residue_morphism(candidates, n)
    if lift_is_isomorphism(f, n).verdict:
        return lift_morphism(f, n)
    q_f = f.q_image % p2
    v = (1 - q_f.derivative()).mul_mod(dp2_inverse, p2)
    return StabilizingMorphism(f.source.at_power(n), f.target.at_power(n),
                               f.sigma, q_f + v * p2)
