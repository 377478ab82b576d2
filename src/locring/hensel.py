"""Hensel-style constructions for K[X]/(P^k) with P separable irreducible.

Provides the shift certificate P(X+Q) = P + P'Q + R Q^2, the iterative root
series U with P(U) = R_cert * P^k, the induced embedding of the residue field
K[X]/(P) into K[X]/(P^k), and the digit expansion of elements along the
basis 1, P, ..., P^{k-1} over the embedded residue field.  The cached root
series owns the embedding and both digit tables: one state per (P, k).
The digit layer runs on payloads and boxes only its results.  ``to_digits``
is a K-linear map: a P-adic expansion, then per digit one ``_pdot`` on the
digits of X^i, i < d = deg P, built by the step loop that holds the
exactness check, and ``from_digits`` one ``_pdot`` on the U^i P^j mod P^k:
one kernel call per digit chain, so over Q and F_p(t) each digit is
normalized once.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import (InexactDivision, NotIrreducible, NotMonic, NotSeparable,
                     RingMismatch)
from .fields import IDENTITY
from .poly import Poly, check_irreducible, check_power, exact_div, format_poly
from .quotient import QuotientElement, QuotientRing, StabilizingMorphism


def taylor_shift_certificate(p, q):
    """The cofactor R with p(X + q) = p + p'*q + R*q^2, by exact division.

    R = 0 by convention when q = 0.
    """
    if q.is_zero():
        return Poly.zero(p.field)
    num = p.compose(Poly.x(p.field) + q) - p - p.derivative() * q
    return exact_div(num, q * q)


@dataclass(frozen=True)
class RootSeries:
    """The data (Q_1..Q_{k-1}, U, R_cert) with P(U) = R_cert * P^k exactly;
    it owns the section ``embedding`` and both digit tables."""

    p: Poly
    k: int
    q_list: tuple
    u: Poly
    r_cert: Poly

    def certificate_residual(self):
        """P(U) - R_cert * P^k; zero for every valid series."""
        return self.p.compose(self.u) - self.r_cert * self.p ** self.k

    @functools.cached_property
    def embedding(self):
        """The section K[X]/(P) -> K[X]/(P^k), X -> U, built on first read."""
        source = QuotientRing(self.p, 1, assume_irreducible=True)
        return StabilizingMorphism(  # deg U < k * deg P: U is reduced
            source, source.at_power(self.k), IDENTITY, self.u)

    @functools.cached_property
    def _columns(self):
        return _digit_columns(self.embedding, self.k)

    @functools.cached_property
    def _basis(self):
        return _digit_basis(self.embedding, self.k)


def derivative_inverse(p):
    """(P')^(-1) mod P, raising NotSeparable when P' = 0 and NotIrreducible
    when gcd(P, P') != 1."""
    dp = p.derivative()
    if dp.is_zero():
        raise NotSeparable(f"{format_poly(p)} has zero derivative")
    g, inv = (Poly._of(p.field, c)
              for c in p.field._pgcdex(dp.payload, p.payload))
    if g.degree != 0:
        raise NotIrreducible(f"{format_poly(p)} is not squarefree: "
                             f"gcd(P, P') = {format_poly(g)}")
    return inv


@functools.lru_cache(maxsize=128)
def hensel_root_series(p, k):
    """Iteratively build U = X + sum Q_i P^i with P(U) divisible by P^k.

    One power of P is gained per step: given P(U) = R * P^j, the update
    Q_j = -R * (P' o U)^(-1) mod P makes P(U + Q_j P^j) divisible by P^(j+1).
    Raises NotSeparable when P' = 0 and NotIrreducible when gcd(P, P') != 1.
    """
    check_power(p, k)
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("base polynomial must be monic of degree >= 1")
    # U = X mod P throughout (Q_0 = 0), so P' o U = P' mod P and one
    # inverse serves every step
    inv_dp = derivative_inverse(p)
    u, r, q_list, pj = Poly.x(p.field), Poly.one(p.field), [], p
    for _ in range(k - 1):
        s = (-(r % p)).mul_mod(inv_dp, p)
        q_list.append(s)
        u, pj = u + s * pj, pj * p
        r = exact_div(p.compose(u), pj)
    return RootSeries(p=p, k=k, q_list=tuple(q_list), u=u, r_cert=r)


def embed_residue_field(p, k, assume_irreducible=False):
    """The section K[X]/(P) -> K[X]/(P^k) given by X -> U, built once per
    (P, k); unless ``assume_irreducible``, P is checked irreducible."""
    embed = hensel_root_series(p, k).embedding
    check_irreducible(p, assume_irreducible)
    return embed


def _digit_columns(embed, k):
    """``to_digits``' table, built once per (P, k) by ``RootSeries``: entry
    [m][i] is digit m of X^i, i < deg P.  X's digits come from the step
    loop (strip the residue, subtract its embedded image, divide exactly by
    P), which raises InexactDivision unless ``embed`` is a section; the
    level-k embedding serves every step, as it agrees with the level-(k-j)
    one mod P^(k-j).  The powers follow by ``digits_mul``'s convolution."""
    f, p = embed.source.field, embed.source.p.payload
    x = Poly.x(f).payload
    xs = [f._prem(x, p)]
    while len(xs) < k:
        x, r = f._pdivmod(f._padd(x, f._pneg(embed._apply(xs[-1]))), p)
        if r:
            raise InexactDivision("P does not divide a digit step's remainder")
        xs.append(f._prem(x, p))
    cols = [[(f._from_int(1),)] + [()] * (k - 1), xs][:len(p) - 1]
    while len(cols) < len(p) - 1:
        cols.append(f._pconvmod(cols[-1], xs, p))
    return tuple(zip(*cols))


def _digit_basis(embed, k):
    """``from_digits``' table, built once per (P, k) by ``RootSeries``:
    entry j*d + i is U^i P^j mod P^k, i < d = deg P, j < k."""
    f, p = embed.target.field, embed.source.p.payload
    m, d = embed.target.modulus.payload, len(p) - 1
    basis = list(embed.images[:d])
    while len(basis) < d * k:
        basis.extend([f._pmulmod(u, p, m) for u in basis[-d:]])
    return tuple(basis)


@dataclass(frozen=True)
class ResidueDigits:
    """Digits a_0..a_{k-1} in K[X]/(P) of an element of K[X]/(P^k), so that
    the element equals sum embed(a_j) * P^j."""

    ring: QuotientRing
    digits: tuple

    def __post_init__(self):
        if any(a.ring.p != self.ring.p or a.ring.n != 1 for a in self.digits):
            raise RingMismatch(f"digits of {self.ring} must lie in K[X]/(P)")

    def __iter__(self):
        return iter(self.digits)

    def __len__(self):
        return len(self.digits)


def to_digits(a):
    """Digit expansion, a K-linear map: with the plain P-adic expansion
    a = sum r_j P^j (deg r_j < d = deg P), digit m is sum_{j<=m} sum_i
    r_j[i] * digit (m-j) of X^i, one ``_pdot`` on the ``_digit_columns``
    table, which raises InexactDivision when the embedding is not a section."""
    ring, x = a.ring, a.rep.payload
    f, p, k = ring.field, ring.p.payload, ring.n
    series = hensel_root_series(ring.p, k)
    source, cols = series.embedding.source, series._columns
    zero, d, rs = f._from_int(0), len(p) - 1, []
    for _ in range(k):
        x, r = f._pdivmod(x, p)
        rs.extend(r + (zero,) * (d - len(r)))
    return ResidueDigits(ring, tuple(QuotientElement(source, Poly._of(
        f, f._pdot(rs[:d * (m + 1)], [c for col in cols[m::-1] for c in col])))
        for m in range(k)))


def from_digits(d):
    """Evaluate the digit vector: sum embed(a_j) * P^j in K[X]/(P^k), one
    ``_pdot`` of the digits' coefficients on the ``_digit_basis`` table,
    whose entries are reduced mod P^k, and so is the sum."""
    ring = d.ring
    if len(d.digits) != ring.n:
        raise ValueError(f"expected {ring.n} digits, got {len(d.digits)}")
    f, pad = ring.field, (ring.field._from_int(0),) * ring.p.degree
    cs = [c for a in d.digits for c in (a.rep.payload + pad)[:len(pad)]]
    return QuotientElement(ring, Poly._of(f, f._pdot(
        cs, hensel_root_series(ring.p, ring.n)._basis)))


def digits_mul(d1, d2):
    """Product in (K[X]/(P))[Y]/(Y^k): truncated convolution of digit
    vectors, each output coefficient reduced mod P once."""
    if d1.ring != d2.ring:
        raise ValueError("digit vectors from different rings")
    ring, f = d1.ring, d1.ring.field
    residue_ring = hensel_root_series(ring.p, ring.n).embedding.source
    out = f._pconvmod([a.rep.payload for a in d1.digits],
                      [b.rep.payload for b in d2.digits], ring.p.payload)
    return ResidueDigits(ring, tuple(
        QuotientElement(residue_ring, Poly._of(f, c)) for c in out))


@dataclass(frozen=True)
class StructureCheckReport:
    passed: bool
    exhaustive: bool
    n_checked: int
    counterexample: object = None

    def __bool__(self):
        return self.passed


_EXHAUSTIVE_LIMIT = 3 ** 6
_N_SAMPLES = 1000
_N_PAIRS = 200
_SEED = 0


def structure_isomorphism_check(p, k, assume_irreducible=False):
    """Verify that digit expansion realizes an isomorphism with the
    truncated polynomial ring over the residue field.

    Round-trips every element when the ring has at most 3^6 elements,
    otherwise ``_N_SAMPLES`` random elements; multiplicativity is checked
    on ``_N_PAIRS`` sampled pairs against truncated convolution.
    """
    ring = QuotientRing(p, k, assume_irreducible=assume_irreducible)
    exhaustive = ring.field.is_finite() and ring.order() <= _EXHAUSTIVE_LIMIT
    rng = random.Random(_SEED)
    test_set = (list(ring.elements()) if exhaustive else
                [ring.random_element(rng) for _ in range(_N_SAMPLES)])
    for checked, a in enumerate(test_set):
        if from_digits(to_digits(a)) != a:
            return StructureCheckReport(False, exhaustive, checked, a)
    n = len(test_set)
    for checked in range(n, n + _N_PAIRS):
        a, b = rng.choice(test_set), rng.choice(test_set)
        if to_digits(a * b) != digits_mul(to_digits(a), to_digits(b)):
            return StructureCheckReport(False, exhaustive, checked, (a, b))
    return StructureCheckReport(True, exhaustive, n + _N_PAIRS)
