"""Exact base fields: Q, F_p, F_p(t) and simple extensions, with automorphisms.

Every element is stored in a canonical reduced form, so equality of elements
is equality of payloads.  Supported fields:

  * ``Rationals()``            -- payload: reduced int pair (numerator,
    denominator), denominator positive; a ``Fraction`` is read as input
  * ``PrimeField(p)``          -- payload: int in ``[0, p)``
  * ``RationalFunctionField(p, var)`` -- payload: pair of int-coefficient
    polynomial tuples (numerator, denominator), denominator monic, coprime
  * ``ExtensionField(base, min_coeffs)`` -- payload: the remainder mod
    the minimal polynomial, a kernel polynomial over the base (below)

Dense polynomial arithmetic is written once, on tuples of payloads (ascending
degree, no trailing zeros, ``()`` is zero): the ``Field._p*`` kernel, from
add and multiply up to composition, powering and Euclid.  Division is one
routine, ``_pdivide(a, b, want_quo)``, which builds the quotient only when
asked; ``_pdivmod`` and ``_prem`` (the remainder alone) call it.  Three
fused entries reduce mod a fixed m once: the product ``_pmulmod``, and the
digit layer's truncated convolution ``_pconvmod`` and Horner sum ``_phorner``.

The six entries that loop, ``_pmul``, ``_pmulmod``, ``_pdot``, ``_pdivide``,
``_pconvmod`` and ``_phorner``, are written once, in ``Field``, on the
field's numerator ring: ``_clear`` takes the operands to numerators over
one common denominator, the loops ``_conv``, ``_dot`` and ``_reduce_by``
run there, and ``_finish`` normalizes each output coefficient once.  Q and
F_p(t) clear to Z and F_p[t], F_p is Z reduced mod p in ``_finish``, and an
extension field is its own numerator ring.  ``_cleared_divisor`` clears a
divisor once; where its cleared leading coefficient is not a unit (Q's
x^2 - 1/2 clears to 2x^2 - 1), ``_reduce_by`` is pseudo-division (Knuth,
TAOCP 2, 4.6.1), and the result's denominator takes a factor of that
coefficient per step.

``PrimeField`` overrides all six, on plain ints reduced mod p once per
output coefficient; each measured faster than the loop it replaces (2-CPU
x86-64 host, Python 3.11).  ``_pmul``, ``_pmulmod``, ``_pconvmod`` and
``_phorner`` multiply packed ints, Kronecker substitution (``_zconv``,
``_pack``): search p90 -19 % against the schoolbook loop, digits p90 -12 to
-14 % against the generic digit loops (alternating 20 s pairs).  Their sums
over Z go to the lazy ``_pdivide``; it and ``_pdot`` are int loops (cases/s
lost without them, three 5 s pairs: ``_pmulmod`` search 12-18 %,
``_pdivide`` digits 6-9 % and search 8-17 %, ``_pdot`` digits 3-21 %).  An
``ExtensionField`` of order at most 32 multiplies, inverts and adds by log
and Zech tables (generic 24-28 %; the bound is measured there).

F_p(t) keeps its F_p[t] Euclid in bounded caches on (F_p, operands):
``_fp_reduce`` (4,096 entries), ``_fp_lcm`` and ``_fp_quo`` (1,024 each) hit
73 %, 96 % and 96 % of their calls in a generic benchmark pass; they pay
off only where fractions repeat.  ``_cleared_divisor`` (256 entries) clears
a fixed divisor, such as a modulus, once; it hits 95 % there.

``Poly``, the numerators and denominators of ``F_p(t)`` and the elements of
``F_p[x]/(m)`` all run on this kernel.  ``FieldAutomorphism.on`` alone says
how a base automorphism acts on payloads.

Fields are immutable and hashable.  Elements, polynomials, quotient rings
and morphisms derive from ``_Frozen`` (slots; assignment raises); a
``_RingValue`` subclass supplies ``_coerce``, ``+``, unary ``-``, ``*`` and
``is_zero`` and gets ``-``, reflected ``+`` and ``*`` and truthiness.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import string
from array import array
from fractions import Fraction
from math import gcd, lcm
from sys import byteorder

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    InvalidArgument,
    NotIrreducible,
    ParseError,
    UnsupportedAutomorphism,
    UnsupportedField,
)


# Miller-Rabin with the first 13 prime bases is exact below psi_13
# (Sorenson-Webster 2015); the first 12 alone are fooled by psi_12 ~ 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality for n below ``_MR_LIMIT``."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise UnsupportedField(
            f"characteristic {n} exceeds the primality bound {_MR_LIMIT}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _power(one, a, e, mul):
    """a**e by left-to-right square and multiply with the product ``mul``,
    ``one`` when e = 0; no product has the factor one."""
    if not e:
        return one
    acc = a
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, a)
    return acc


# ---------------------------------------------------------------------------
# fields

@functools.lru_cache(maxsize=256)
def _cleared_divisor(field, b):
    """((deg b, low), db, lead, inv) for the divisor b = bn/db cleared to
    the numerator ring of ``field``, once for a fixed divisor such as a
    modulus; low pairs each j < deg b with -bn[j], zeros skipped.  Where
    bn's leading coefficient is 1, lead and inv are None; where it is
    another unit, inv is its inverse; else lead is it."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    bn, db = field._clear(b)
    lead = None if bn[-1] == field._none else bn[-1]
    inv = None if lead is None else field._unit_inv(lead)
    low = tuple((j, field._nneg(c)) for j, c in enumerate(bn[:-1]) if c)
    return (len(bn) - 1, low), db, None if inv is not None else lead, inv


_clear_once = _cleared_divisor.__wrapped__  # for Euclid's one-shot divisors


class Field:
    """Abstract base: exact arithmetic on canonical payloads."""

    char = None
    _gen_names = ()  # an extension's generator name and those below it

    # subclasses implement payload-level ops
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _canon(self, a):
        raise NotImplementedError

    def _from_int(self, k):
        raise NotImplementedError

    def _is_zero(self, a):
        raise NotImplementedError

    def format_payload(self, a):
        raise NotImplementedError

    def is_finite(self):
        return False

    def order(self):
        raise UnsupportedField(f"{self} is not a finite field")

    def elements(self):
        raise UnsupportedField(f"cannot enumerate elements of {self}")

    def random_payload(self, rng):
        raise NotImplementedError

    # the numerator ring, where the kernel's loops run: a subclass supplies
    # ``_zero`` (the canonical zero payload, which ``_ptrim`` compares with),
    # ``_nzero``, ``_none``, ``_nadd``, ``_nmul``, ``_nneg`` and ``_unit_inv``
    # (the inverse of a unit, None for a non-unit).  Without a ``_clear`` of
    # its own, a payload is its own numerator over 1; every leading
    # coefficient is then a unit, so every denominator stays 1
    def _clear(self, a):
        """(numerators, den): a new list, and one common denominator with
        a[i] = numerators[i] / den."""
        return list(a), self._none

    def _clear_polys(self, ps):
        """(numerators, den) of the polynomials ps, as ``_clear``; the
        numerators are read, not written."""
        return ps, self._none

    def _finish(self, nums, den):
        """The payload nums / den, each coefficient normalized once."""
        return self._ptrim(nums)

    # dense polynomial kernel on payload sequences: ascending degree, results
    # are tuples with no trailing zeros, () is the zero polynomial
    def _ptrim(self, a):
        # payloads are canonical: a zero coefficient is the field's ``_zero``
        i, zero = len(a), self._zero
        while i and a[i - 1] == zero:
            i -= 1
        return tuple(a[:i])

    def _padd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self._add(out[i], c)
        return self._ptrim(out)

    def _pneg(self, a):
        return tuple(self._neg(c) for c in a)

    def _ntimes(self, x, y):
        """x * y in the numerator ring, with no product by a factor 1."""
        one = self._none
        return y if x == one else x if y == one else self._nmul(x, y)

    def _pmul(self, a, b):
        (a, da), (b, db) = self._clear(a), self._clear(b)
        out = [self._nzero] * (len(a) + len(b) - 1)
        return self._finish(_conv(self._nadd, self._nmul, a, b, out),
                            self._ntimes(da, db))

    def _pmulmod(self, a, b, m):
        """a * b mod m, divided once by the cached modulus m."""
        (a, da), (b, db) = self._clear(a), self._clear(b)
        add, mul, div = self._nadd, self._nmul, _cleared_divisor(self, m)
        out = _conv(add, mul, a, b, [self._nzero] * (len(a) + len(b) - 1))
        return self._finish(out, _reduce_by(add, mul, out, div,
                                            self._ntimes(da, db)))

    def _pdivmod(self, a, b):
        return self._pdivide(a, b, True)

    def _prem(self, a, m):
        """The remainder of a mod m, for callers that drop the quotient."""
        return self._pdivide(a, m, False)[1]

    def _pdivide(self, a, b, want_quo, prepare=_cleared_divisor):
        """(quotient, remainder) of a by b, building the quotient only when
        ``want_quo`` (else it is False); the one division a field overrides.
        With a = an/da and b = bn/db, an = quo*bn + rem over den = da *
        lead^steps (``prepare``, ``_reduce_by``) gives a = (quo*db/den)*b +
        rem/den.  ``PrimeField`` needs no ``prepare``."""
        if len(a) < len(b):
            return want_quo and (), self._ptrim(a)
        div, (rem, den) = prepare(self, b), self._clear(a)
        quo = [self._nzero] * (len(rem) - len(b) + 1) if want_quo else None
        den = _reduce_by(self._nadd, self._nmul, rem, div, den, quo)
        if want_quo and div[1] != self._none:
            quo = [self._nmul(c, div[1]) for c in quo]
        return want_quo and self._finish(quo, den), self._finish(rem, den)

    def _pmonic(self, a):
        if not a or a[-1] == self._from_int(1):
            return tuple(a)
        inv = self._inv(a[-1])
        return tuple(self._mul(c, inv) for c in a)

    def _pgcd(self, a, b):
        while b:
            a, b = b, self._pdivide(a, b, False, _clear_once)[1]
        return self._pmonic(a)

    def _pdot(self, cs, ps):
        """The linear combination sum(c * p) of the polynomials ``ps`` by the
        scalars ``cs``, pairing them as ``zip`` does."""
        pairs = [(c, p) for c, p in zip(cs, ps) if p and not self._is_zero(c)]
        scalars, dc = self._clear([c for c, _ in pairs])
        polys, dp = self._clear_polys([p for _, p in pairs])
        out = [self._nzero] * max(map(len, polys), default=0)
        return self._finish(_dot(self._nadd, self._nmul, scalars, polys, out),
                            self._ntimes(dc, dp))

    def _pconvmod(self, xs, ys, m):
        """The product of sum xs[i] Y^i and sum ys[j] Y^j, polynomials in Y
        over K[X]/(m), truncated to len(xs) terms; each term reduced once."""
        div = _cleared_divisor(self, m)
        (xs, dx), (ys, dy) = self._clear_polys(xs), self._clear_polys(ys)
        add, mul, k = self._nadd, self._nmul, len(xs)
        width = max(map(len, xs), default=0) + max(map(len, ys), default=0)
        out = [[self._nzero] * (width - 1) for _ in xs]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys[:k - i]):
                _conv(add, mul, x, y, out[i + j])
        den = self._ntimes(dx, dy)
        return [self._finish(c, _reduce_by(add, mul, c, div, den))
                for c in out]

    def _phorner(self, cs, ps, q, m):
        """sum_j q^j * sum_i cs[j][i] * ps[i] mod m: Horner in q = qn/dq over
        linear combinations of the polynomials ps, reduced once at the end.
        The q^j term, j <= J, is scaled by dq^(J+1-j), and the sum divided
        by dq^(J+1), so the loop stays in the numerator ring."""
        div = _cleared_divisor(self, m)
        (qn, dq), ps = self._clear(q), ps[:max(map(len, cs), default=0)]
        (cs, dc), (ps, dp) = self._clear_polys(cs), self._clear_polys(ps)
        add, mul, times = self._nadd, self._nmul, self._ntimes
        acc, scale, width = [], self._none, max(map(len, ps), default=0)
        for c in reversed(cs):
            scale = times(scale, dq)
            out = [self._nzero] * max(len(acc) + len(qn) - 1, width)
            acc = _dot(add, mul, [times(scale, s) for s in c], ps,
                       _conv(add, mul, acc, qn, out))
        den = _reduce_by(add, mul, acc, div, times(times(scale, dc), dp))
        return self._finish(acc, den)

    def _pcompose(self, a, q, m=None):
        """a(q) by Horner, each product reduced mod m when m is given."""
        acc = ()
        if m is None:
            for c in reversed(a):
                acc = self._padd(self._pmul(acc, q), (c,))
            return acc
        for c in reversed(a):
            acc = self._padd(self._pmulmod(acc, q, m), (c,))
        return self._prem(acc, m)  # the last constant, for a constant m

    def _ppow(self, a, e, m=None):
        """a**e by square and multiply, each product reduced mod m when m
        is given."""
        one = (self._from_int(1),)
        if m is None:
            return _power(one, a, e, self._pmul)
        return _power(self._prem(one, m), self._prem(a, m), e,
                      functools.partial(self._pmulmod, m=m))

    def _pgcdex(self, a, b):
        """Half-extended Euclid: (g, u) with g = u*a + v*b for some v, g
        monic; ``poly.ext_gcd`` recovers v."""
        if not a and not b:
            raise DivisionByZero("gcd(0, 0) is undefined")
        r0, r1, u0, u1 = a, b, (self._from_int(1),), ()
        while r1:
            q, r = self._pdivide(r0, r1, True, _clear_once)
            r0, r1 = r1, r
            u0, u1 = u1, self._padd(u0, self._pneg(self._pmul(q, u1)))
        scale = (self._inv(r0[-1]),)
        return self._pmul(r0, scale), self._pmul(u0, scale)

    # element-level convenience
    def element(self, payload):
        return FieldElement(self, self._canon(payload))

    def from_int(self, k):
        return FieldElement(self, self._from_int(k))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def random_element(self, rng):
        return FieldElement(self, self.random_payload(rng))

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise DescriptorMismatch(f"element of {v.field} used in {self}")
            return v
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction) and isinstance(self, Rationals):
            return self.element(v)
        raise DescriptorMismatch(f"cannot interpret {v!r} as an element of {self}")


class _FractionField(Field):
    """A fraction field, Q or F_p(t): an element is a reduced pair
    (numerator, denominator) over the numerator ring Z or F_p[t], where the
    kernel's loops run.  Addition is Henrici's (Knuth, TAOCP 2, 4.5.1): a
    gcd only where both denominators differ from 1, one over the shared
    denominator where they are equal; most sums in the kernel have a zero
    operand or a denominator of 1.

    A subclass supplies the numerator ring, with ``_ndiv`` (exact
    division), ``_nlcm`` and ``_reduce(n, d)``, the payload of n/d."""

    def _add(self, a, b):
        # b is reduced, so gcd(na*db + nb, db) = gcd(nb, db) = 1
        (na, da), (nb, db) = a, b
        if not na:
            return b
        if not nb:
            return a
        add, mul = self._nadd, self._nmul
        if da == self._none:
            return (add(mul(na, db), nb), db)
        if db == self._none:
            return (add(na, mul(nb, da)), da)
        if da == db:
            return self._reduce(add(na, nb), da)
        return self._reduce(add(mul(na, db), mul(nb, da)), mul(da, db))

    def _neg(self, a):
        return (self._nneg(a[0]), a[1])

    def _mul(self, a, b):
        return self._reduce(self._nmul(a[0], b[0]), self._nmul(a[1], b[1]))

    def _inv(self, a):
        if not a[0]:
            raise DivisionByZero(f"1/0 in {self}")
        return self._reduce(a[1], a[0])

    def _is_zero(self, a):
        return not a[0]

    def _clear(self, a):
        one = self._none
        den = one
        for _, d in a:
            if d != one and d != den:
                den = self._nlcm(den, d)
        mul, div = self._nmul, self._ndiv
        return [mul(n, den if d == one else div(den, d)) if n and d != den
                else n for n, d in a], den

    def _clear_polys(self, ps):
        """(numerator lists, den) of the polynomials ps, as ``_clear``."""
        flat, den = self._clear([c for p in ps for c in p])
        it = iter(flat)
        return [list(itertools.islice(it, len(p))) for p in ps], den

    def _finish(self, nums, den):
        reduce = self._reduce
        return self._ptrim([reduce(c, den) for c in nums])


def _conv(add, mul, a, b, out):
    """out plus a * b, for coefficient lists over a ring with ``add`` and
    ``mul``, in place; a falsy coefficient is a zero that is skipped."""
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _dot(add, mul, cs, ps, out):
    """out plus sum cs[i] * ps[i], as ``_conv``, in place."""
    for s, p in zip(cs, ps):
        if s:
            for i, x in enumerate(p):
                if x:
                    out[i] = add(out[i], mul(s, x))
    return out


def _reduce_by(add, mul, rem, div, den, quo=None):
    """rem mod the divisor ``div`` of ``_cleared_divisor``, over the
    denominator den, as ``_conv``, in place; the quotient goes into ``quo``
    when it is given.  Where the divisor's leading coefficient is not a
    unit this is pseudo-division (Knuth, TAOCP 2, 4.6.1): each step first
    multiplies rem and quo by it, and den with them.  Returns den."""
    (nb, low), _, lead, inv = div
    while len(rem) > nb:
        top = rem.pop()
        if top:
            k = len(rem) - nb
            if inv is not None:
                top = mul(top, inv)
            elif lead is not None:
                rem[:] = [mul(lead, c) for c in rem]
                if quo is not None:
                    quo[k + 1:] = [mul(lead, c) for c in quo[k + 1:]]
                den = mul(den, lead)
            if quo is not None:
                quo[k] = top
            for j, c in low:
                rem[k + j] = add(rem[k + j], mul(top, c))
    return den


class Rationals(_FractionField):
    """The field Q, elements are reduced int pairs (n, d) with d > 0."""

    char = 0

    # the numerator ring Z
    _zero, _nzero, _none, _nlcm = (0, 1), 0, 1, lcm
    _nadd, _nmul, _nneg = operator.add, operator.mul, operator.neg
    _ndiv = operator.floordiv

    @staticmethod
    def _unit_inv(c):
        return c if c in (1, -1) else None

    @staticmethod
    def _reduce(n, d):
        if d == 1:
            return (n, 1)
        if not d:
            raise DivisionByZero("zero denominator in Q")
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return (n // g, d // g)

    def _canon(self, a):
        # a pair of ints, or any input Fraction reads: an int, a Fraction
        if isinstance(a, tuple):
            return self._reduce(*map(operator.index, a))
        a = Fraction(a)
        return (a.numerator, a.denominator)

    def _from_int(self, k):
        return (k, 1)

    def format_payload(self, a):
        n, d = a
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:  # Python's limit on int-to-string conversion
            raise InvalidArgument("rational too long to print: past the "
                                  "4,300-digit limit on integers") from None

    def random_payload(self, rng):
        return self._reduce(rng.randint(-9, 9), rng.randint(1, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# array typecodes by item size; array's order is the host's, so none where
# that is big-endian
_SLOT_CODES = ({array(c).itemsize: c for c in "HIQ"}
               if byteorder == "little" else {})


def _slot(bound):
    """Bytes per little-endian slot for the ints in [0, bound]: 1, 2, 4, 8
    (``array`` converts these in C on a little-endian host) or more."""
    w = bound.bit_length() + 7 >> 3
    return (1, 1, 2, 4, 4, 8, 8, 8, 8)[w] if w < 9 else w


def _pack(cs, w):
    """The int whose w-byte slots hold the ints cs, lowest first."""
    code = w > 1 and _SLOT_CODES.get(w)
    return int.from_bytes(array(code, cs) if code else cs if w == 1 else
                          b"".join(c.to_bytes(w, "little") for c in cs),
                          "little")


def _unpack(x, w, n):
    """The n w-byte slots of the int x, lowest first; bytes when w = 1."""
    s, code = x.to_bytes(w * n, "little"), _SLOT_CODES.get(w)
    return s if w == 1 else memoryview(s).cast(code).tolist() if code else [
        int.from_bytes(s[i:i + w], "little") for i in range(0, len(s), w)]


class PrimeField(Field):
    """F_p, elements are residues in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise InvalidArgument(f"{p} is not prime")
        self.p = p
        self.char = p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"1/0 in F{self.p}")
        return pow(a, -1, self.p)

    def _canon(self, a):
        return a % self.p

    def _from_int(self, k):
        return k % self.p

    def _is_zero(self, a):
        return a == 0

    def format_payload(self, a):
        return str(a)

    def is_finite(self):
        return True

    def order(self):
        return self.p

    def elements(self):
        for a in range(self.p):
            yield FieldElement(self, a)

    def random_payload(self, rng):
        return rng.randrange(self.p)

    # the numerator ring Z, reduced mod p only in ``_finish``, so a lead's
    # inverse mod p serves as its inverse; below, the kernel's six measured
    # overrides (module docstring)
    _zero, _nzero, _none = 0, 0, 1
    _nadd, _nmul, _nneg = operator.add, operator.mul, operator.neg

    def _unit_inv(self, c):
        return pow(c, -1, self.p)

    def _finish(self, nums, den):
        p = self.p
        return self._ptrim([c % p for c in nums])

    def _zconv(self, a, b):
        """a * b over Z by Kronecker substitution (von zur Gathen and
        Gerhard, ch. 8): one product of packed ints, a slot a coefficient
        holding min(len a, len b) (p-1)^2."""
        size, n = len(a) + len(b) - 1, min(len(a), len(b))
        if not n:
            return [0] * size
        bound = n * (self.p - 1) ** 2
        if bound < 256:  # one-byte slots: the operands are their own bytes
            return (int.from_bytes(a, "little")
                    * int.from_bytes(b, "little")).to_bytes(size, "little")
        w = _slot(bound)
        return _unpack(_pack(a, w) * _pack(b, w), w, size)

    def _pmul(self, a, b):
        p = self.p
        return self._ptrim([c % p for c in self._zconv(a, b)])

    def _pmulmod(self, a, b, m):
        # the division reads its dividend over Z and reduces it lazily
        return self._pdivide(self._zconv(a, b), m, False)[1]

    def _pdivide(self, a, b, want_quo, prepare=None):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        p = self.p
        if len(a) < len(b):
            return want_quo and (), self._ptrim([c % p for c in a])
        db = len(b) - 1
        monic = b[-1] == 1
        inv_lead = None if monic else pow(b[-1], -1, p)
        rem = list(a)
        quo = [0] * max(len(rem) - db, 1) if want_quo else None
        while len(rem) > db:
            top = rem.pop() % p
            if not top:
                continue
            k = len(rem) - db
            c = top if monic else top * inv_lead % p
            if want_quo:
                quo[k] = c
            for j in range(db):
                rem[k + j] -= c * b[j]
        return want_quo and self._ptrim(quo), self._ptrim([c % p for c in rem])

    def _pdot(self, cs, ps):
        out = []
        for c, poly in zip(cs, ps):
            if c:
                out.extend([0] * (len(poly) - len(out)))
                for i, x in enumerate(poly):
                    out[i] += c * x
        p = self.p
        return self._ptrim([c % p for c in out])

    def _pconvmod(self, xs, ys, m):
        # one Kronecker product: digit i fills a block of s slots, so block
        # t of the product is sum_{i+j=t} xs[i] ys[j], still over Z
        k, ys = len(xs), ys[:len(xs)]
        lx, ly = (max(map(len, zs), default=0) for zs in (xs, ys))
        if not (lx and ly):
            return [()] * k
        s, w = lx + ly - 1, _slot(len(ys) * min(lx, ly) * (self.p - 1) ** 2)
        x, y = (_pack([c for z in zs for c in z + (0,) * (s - len(z))], w)
                for zs in (xs, ys))
        out = _unpack(x * y & ((1 << 8 * w * k * s) - 1), w, k * s)
        return [self._pdivide(out[t:t + s], m, False)[1]
                for t in range(0, k * s, s)]

    def _phorner(self, cs, ps, q, m):
        # Horner on packed ints, a slot holding a whole Z coefficient: each
        # sum_i cs[j][i] ps[i] is at most B_0 = len(ps) (p-1)^2 (>= p - 1,
        # so q fits), the sum after J steps B_0 sum_{j<=J} (len(q) (p-1))^j
        ps, top = ps[:max(map(len, cs), default=0)], self.p - 1
        w = _slot(max(len(ps), 1) * top ** 2 * sum(
            ((len(q) * top) ** j for j in range(1, len(cs))), 1))
        packed, acc, qx = [_pack(y, w) for y in ps], 0, _pack(q, w)
        for c in reversed(cs):
            acc = acc * qx + sum(a * x for a, x in zip(c, packed) if a)
        out = _unpack(acc, w, -(-acc.bit_length() // (8 * w)))
        return self._pdivide(out, m, False)[1]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


@functools.lru_cache(maxsize=4096)
def _fp_reduce(fp, num, den):
    """The payload of num/den over F_p(t), den nonzero and not 1."""
    g = fp._pgcd(num, den)
    if len(g) > 1:
        num, den = fp._pdivmod(num, g)[0], fp._pdivmod(den, g)[0]
    unit = (fp._inv(den[-1]),)
    return (fp._pmul(num, unit), fp._pmul(den, unit))


@functools.lru_cache(maxsize=1024)
def _fp_lcm(fp, a, b):
    """lcm of monic a and b in F_p[t], so monic."""
    return fp._pmul(a, fp._pdivmod(b, fp._pgcd(a, b))[0])


@functools.lru_cache(maxsize=1024)
def _fp_quo(fp, a, b):
    """a / b in F_p[t], b dividing a."""
    return fp._pdivmod(a, b)[0]


class RationalFunctionField(_FractionField):
    """F_p(t): reduced ratios of polynomials over F_p with monic denominator."""

    # the numerator ring F_p[t]
    _zero, _nzero, _none = ((), (1,)), (), (1,)

    def __init__(self, p, var="t"):
        # numerators and denominators live in F_p[t]
        fp = self._fp = PrimeField(p)
        self._nadd, self._nmul, self._nneg = fp._padd, fp._pmul, fp._pneg
        self._ndiv = functools.partial(_fp_quo, fp)
        self._nlcm = functools.partial(_fp_lcm, fp)
        self.p = p
        self.var = var
        self.char = p

    def gen(self):
        """The element t."""
        return FieldElement(self, ((0, 1), (1,)))

    def _reduce(self, num, den):
        if not den:
            raise DivisionByZero(f"zero denominator in {self}")
        if not num:
            return ((), (1,))
        if den == (1,):
            return (num, den)
        return _fp_reduce(self._fp, num, den)

    def _canon(self, a):
        num, den = a
        return self._reduce(self._fp._ptrim([c % self.p for c in num]),
                            self._fp._ptrim([c % self.p for c in den]))

    def _from_int(self, k):
        k %= self.p
        return ((k,) if k else (), (1,))

    def format_payload(self, a):
        from .poly import Poly, _needs_parens, format_poly
        num, den = (format_poly(Poly._of(self._fp, c), var=self.var)
                    for c in a)
        if den == "1":
            return num
        num, den = (f"({s})" if _needs_parens(s) else s for s in (num, den))
        return f"{num}/{den}"

    def random_payload(self, rng):
        trim = self._fp._ptrim
        num = trim([rng.randrange(self.p) for _ in range(rng.randint(1, 3))])
        den = ()
        while not den:
            den = trim([rng.randrange(self.p)
                        for _ in range(rng.randint(1, 3))])
        return self._reduce(num, den)

    def _unit_inv(self, c):
        return (self._fp._inv(c[0]),) if len(c) == 1 else None

    def __eq__(self, other):
        return (isinstance(other, RationalFunctionField)
                and other.p == self.p and other.var == self.var)

    def __hash__(self):
        return hash(("Fp(t)", self.p, self.var))

    def __repr__(self):
        return f"F{self.p}({self.var})"


class ExtensionField(Field):
    """Simple extension base[a]/(m(a)), m monic irreducible of degree >= 2.

    The base is F_p, Q or a finite extension field (a tower, such as the
    residue field of a modulus over F4).  Irreducibility of the minimal
    polynomial is verified over a finite base unless the caller asserts it
    (``assume_irreducible=True``), and must be caller-asserted over Q.
    The generator of the k-th level of a tower is named by the k-th letter,
    ``a`` over F_p or Q, ``b`` above it and so on, so a tower prints apart
    and its text reads back (``parse_field``, ``parse_poly``).

    An element is its remainder mod m as a kernel payload over the base,
    the payload of a ``Poly`` and of a ``QuotientRing(m, 1)`` element.

    A field of order q <= 32 multiplies, inverts and adds by lookup in
    exp[k] = g^k, log and Zech's zech[k] = log(1 + g^k) (Lidl and
    Niederreiter, *Finite Fields*), g the first unit of order q - 1 in
    ``elements()``.  Tables cost about q products: the benchmark's F4 and F9
    cases make 1,100-2,800 each, but a search case under 1,000 in a field of
    order 81-729, and a bound of 1,024 cut search from 258 to 215 cases/s.
    """
    _TABLE_ORDER = 32
    _zero = _nzero = ()

    def __init__(self, base, min_coeffs, assume_irreducible=False):
        if not (isinstance(base, (PrimeField, Rationals))
                or isinstance(base, ExtensionField) and base.is_finite()):
            raise UnsupportedField(f"extensions of {base} are not supported")
        min_coeffs = tuple(base.coerce(c) for c in min_coeffs)
        if len(min_coeffs) < 3:
            raise InvalidArgument("minimal polynomial must have degree >= 2")
        if min_coeffs[-1] != base.one():
            raise InvalidArgument("minimal polynomial must be monic")
        self.base = base
        self.min_coeffs = min_coeffs
        self._m = tuple(c.payload for c in min_coeffs)
        self.degree = len(min_coeffs) - 1
        self.gen_name = string.ascii_lowercase[len(base._gen_names)]
        self._gen_names = base._gen_names + (self.gen_name,)
        self.char = base.char
        # every cache keyed on the field, its polynomials or its rings hashes
        # it, and a tower's hash recurses through each level
        self._hash = hash(("ext", base, min_coeffs))
        from .poly import Poly, check_irreducible
        check_irreducible(Poly(base, min_coeffs), assume_irreducible)
        if self.is_finite() and self.order() <= self._TABLE_ORDER:
            self._build_tables()
        # a field is its own numerator ring
        self._none = self._from_int(1)
        self._nadd, self._nmul, self._nneg = self._add, self._mul, self._neg
        self._unit_inv = self._inv

    def _build_tables(self):
        q, one, mul, add = self.order(), self._from_int(1), self._mul, self._add
        for g in self.elements():
            exp = [one]
            while len(exp) < q and (x := mul(exp[-1], g.payload)) != one:
                exp.append(x)
            if len(exp) == q - 1:
                break
        else:  # the units of a finite field are cyclic
            raise NotIrreducible(f"{self} has no generator of its units")
        log = {x: k for k, x in enumerate(exp)}
        zech = [log.get(add(one, x)) for x in exp]
        exp *= 2

        def table_mul(a, b):
            return exp[log[a] + log[b]] if a and b else ()

        def table_inv(a):
            if not a:
                raise DivisionByZero(f"1/0 in {self}")
            return exp[q - 1 - log[a]]

        def table_add(a, b):
            if not a or not b:
                return a or b
            z = zech[log[b] - (i := log[a])]  # a negative index wraps
            return () if z is None else exp[i + z]
        self._mul, self._inv, self._add = table_mul, table_inv, table_add

    def gen(self):
        """The class of the adjoined root."""
        return self.element((0, 1))

    def from_base(self, c):
        return self.element((c,))

    def _add(self, a, b):
        return self.base._padd(a, b)

    def _neg(self, a):
        return self.base._pneg(a)

    def _mul(self, a, b):
        return self.base._pmulmod(a, b, self._m)

    def _inv(self, a):
        if not a:
            raise DivisionByZero(f"1/0 in {self}")
        # g = u*a + v*m with deg u < deg m, and g = 1 when m is irreducible
        g, u = self.base._pgcdex(a, self._m)
        if len(g) > 1:
            raise NotIrreducible(f"{self} is not a field: "
                                 f"{self.format_payload(g)} is a zero divisor")
        return u

    def _canon(self, a):
        # a coordinate is an int, a base element or a base payload that is a
        # tuple: a Q pair, or an element of the base of a tower
        base = self.base
        return base._prem([base._canon(c) if isinstance(c, tuple)
                           else base.coerce(c).payload for c in a], self._m)

    def _from_int(self, k):
        return self.base._ptrim((self.base._from_int(k),))

    def _is_zero(self, a):
        return not a

    def format_payload(self, a):
        from .poly import Poly, format_poly
        return format_poly(Poly._of(self.base, a), var=self.gen_name)

    def is_finite(self):
        return self.base.is_finite()

    def order(self):
        return self.base.order() ** self.degree

    def elements(self):
        base_payloads = [c.payload for c in self.base.elements()]
        for tup in itertools.product(base_payloads, repeat=self.degree):
            yield FieldElement(self, self.base._ptrim(tup))

    def random_payload(self, rng):
        return self.base._ptrim([self.base.random_payload(rng)
                                 for _ in range(self.degree)])

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.base == self.base
                and other.min_coeffs == self.min_coeffs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .poly import Poly, format_poly
        m = format_poly(Poly._of(self.base, self._m))
        return f"{self.base!r}[x]/({m})"


# ---------------------------------------------------------------------------
# elements

class _Frozen:
    """Slots, set once in ``__init__`` through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _RingValue(_Frozen):
    """A ring element whose ``-``, reflected ``+`` and ``*`` and truthiness
    come from its own ``_coerce`` (None for an operand it cannot read),
    ``__add__``, ``__neg__``, ``__mul__`` and ``is_zero``."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __bool__(self):
        return not self.is_zero()


class FieldElement(_RingValue):
    """Immutable element of a :class:`Field`, payload always canonical."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def is_zero(self):
        return self.field._is_zero(self.payload)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise DescriptorMismatch(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, o.payload))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, o.payload))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o ** (-1)

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        base = f._inv(self.payload) if e < 0 else self.payload
        return FieldElement(f, _power(f._from_int(1), base, abs(e), f._mul))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.payload == other.payload
        if isinstance(other, (int, Fraction)):
            try:
                return self == self.field.coerce(other)
            except DescriptorMismatch:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.payload))

    def __str__(self):
        return self.field.format_payload(self.payload)

    def __repr__(self):
        return f"<{self} in {self.field}>"


# ---------------------------------------------------------------------------
# automorphisms

class FieldAutomorphism(_Frozen):
    """Identity or a positive power of the Frobenius x -> x^p.

    Frobenius powers are only valid on finite fields (F_p and simple
    extensions of F_p); applying one elsewhere raises
    :class:`UnsupportedAutomorphism`.
    """

    __slots__ = ("power",)

    def __init__(self, power=0):
        if power < 0:
            raise InvalidArgument("Frobenius power must be >= 0")
        object.__setattr__(self, "power", power)

    @property
    def is_identity(self):
        return self.power == 0

    def on(self, field):
        """The action c -> sigma(c) on payloads of ``field``, or None where
        sigma fixes every element: the identity, any power on F_p, and
        frob^e on F_{p^k} when k divides e."""
        if self.power == 0:
            return None
        if not field.is_finite():
            raise UnsupportedAutomorphism(
                f"Frobenius is not an automorphism of {field}")
        # x^(|f|-1) = 1, so p^e may be reduced mod |f| - 1; this also takes
        # the absolute degree of a tower, not its degree over its base, and
        # a reduced exponent of 1 (every power on F_p) fixes the field
        units = field.order() - 1
        e = pow(field.char, self.power, units)
        if e == 1 % units:
            return None
        one, mul = field._from_int(1), field._mul
        return lambda c: _power(one, c, e, mul)

    def apply(self, a):
        act = self.on(a.field)
        return a if act is None else FieldElement(a.field, act(a.payload))

    def compose(self, other):
        """self o other."""
        return FieldAutomorphism(self.power + other.power)

    def label(self):
        return "id" if self.power == 0 else f"frob^{self.power}"

    @staticmethod
    def parse(text):
        text = text.strip()
        if text in ("id", "identity"):
            return IDENTITY
        if text == "frob":
            return FieldAutomorphism(1)
        if text.startswith("frob^") and text[5:].isdecimal():
            return FieldAutomorphism(_parse_int(text[5:]))
        raise ParseError(f"unknown automorphism {text!r} (expected id or frob^e)")

    def __eq__(self, other):
        return isinstance(other, FieldAutomorphism) and other.power == self.power

    def __hash__(self):
        return hash(("auto", self.power))

    def __repr__(self):
        return self.label()


IDENTITY = FieldAutomorphism(0)


def frobenius(e=1):
    if e < 1:
        raise InvalidArgument("Frobenius power must be >= 1")
    return FieldAutomorphism(e)


# ---------------------------------------------------------------------------
# descriptor text syntax: a base Q | F2 | F3(t), then any number of suffixes
# [x]/(m), each m a polynomial over the field before it:
# F2[x]/(x^2+x+1)[x]/(x^2+x+a)

_BASE_RE = re.compile(r"Q|F(\d+)(?:\(\s*([A-Za-z_]\w*)\s*\))?")
_SUFFIX_RE = re.compile(r"\[\s*([A-Za-z_]\w*)\s*\]\s*/\s*\(")


def _parse_int(text):
    """int(text) of a digit string; ParseError where int() refuses one past
    Python's limit on integer strings (4,300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long") from None


def _closing_paren(s, start):
    """The index of the ')' that balances the '(' at s[start], -1 if none."""
    depths = itertools.accumulate((c == "(") - (c == ")") for c in s[start:])
    return next((start + i for i, d in enumerate(depths) if not d), -1)


def parse_field(text):
    """Parse a field descriptor such as ``Q``, ``F2``, ``F3(t)``,
    ``F2[x]/(x^2+x+1)`` or the tower ``F2[x]/(x^2+x+1)[x]/(x^2+x+a)``: the
    inverse of :func:`format_field`.  The whole text is read before any
    field is built."""
    s = text.strip()
    base = _BASE_RE.match(s)
    if not base:
        raise ParseError(f"unknown field descriptor {text!r}")
    suffixes, pos = [], base.end()
    while pos < len(s):
        suffix = _SUFFIX_RE.match(s, pos)
        if not suffix:
            raise ParseError(f"malformed field descriptor {text!r} at "
                             f"position {pos}")
        # the modulus runs to the ')' that balances its '/('
        pos = _closing_paren(s, suffix.end() - 1) + 1
        if not pos:
            raise ParseError(f"unbalanced parentheses in field descriptor "
                             f"{text!r}")
        suffixes.append((suffix[1], s[suffix.end():pos - 1]))
    p, var = base.groups()
    field = (Rationals() if p is None else PrimeField(_parse_int(p))
             if var is None else RationalFunctionField(_parse_int(p), var))
    from .poly import MAX_TABLE_WORK, parse_poly
    work, cost = 0, 1  # cost: F_p products per product in the field
    for level, (var, body) in enumerate(suffixes, 1):
        m = parse_poly(field, body, var=var).coeffs
        if field.is_finite():
            # Ben-Or's test on a degree-d level: d/2 powerings by q = |field|,
            # 2 log2 q products each, each d(2d - 1) products in the field
            cost *= (d := len(m) - 1) * (2 * d - 1)
            work += d // 2 * 2 * (field.order().bit_length() - 1) * cost
            if work > MAX_TABLE_WORK:
                raise InvalidArgument(
                    f"verifying the moduli up to level {level} needs about "
                    f"{work} products, past the work bound {MAX_TABLE_WORK}")
        field = ExtensionField(field, m)
    return field


def format_field(field):
    """The descriptor of a field, its repr, which :func:`parse_field` reads
    back for every field but an extension of Q."""
    return repr(field)
