"""Checks that do not use the code under test.

* Gauss's count of monic irreducibles of degree d over F_q, to validate the
  generated inputs before any case runs.
* Dense polynomial arithmetic over F_p on plain int lists, read from the
  library's documented text format, to re-check residue morphisms.
"""

from __future__ import annotations

import re


def mobius(n):
    result, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    return -result if m > 1 else result


def gauss_count(q, d):
    """Number of monic irreducible polynomials of degree d over F_q:
    (1/d) * sum over e | d of mu(d/e) q^e."""
    total = sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0)
    return total // d


_TERM = re.compile(r"([+-]?)([^+-]+)")


def int_poly(text, p):
    """Ascending coefficients mod p of a prime-field polynomial written in
    the library's text format (``2*x^3+x+1``)."""
    coeffs = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        if "*" in body:
            c, xs = body.split("*")
        elif body.startswith("x"):
            c, xs = "1", body
        else:
            c, xs = body, ""
        e = 0 if not xs else 1 if xs == "x" else int(xs[2:])
        c = int(c) * (-1 if sign == "-" else 1)
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    out = [coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)]
    return _trim(out)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _add(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def divmod_int(a, m, p):
    """Quotient and remainder of a by the nonzero m over F_p."""
    rem = list(a)
    inv = pow(m[-1], -1, p)
    quo = [0] * max(len(rem) - len(m) + 1, 0)
    while len(rem) >= len(m):
        shift = len(rem) - len(m)
        c = rem[-1] * inv % p
        quo[shift] = c
        for i, y in enumerate(m):
            rem[shift + i] = (rem[shift + i] - c * y) % p
        _trim(rem)
    return _trim(quo), rem


def compose_int(f, q, p):
    """f(q) over F_p, by Horner's rule."""
    acc = []
    for c in reversed(f):
        acc = _add(_mul(acc, q, p), [c], p)
    return acc
