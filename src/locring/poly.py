"""Dense univariate polynomials over any supported exact field.

A polynomial stores the payloads of its coefficients (see ``fields``) in
ascending degree order with no trailing zeros; the zero polynomial has an
empty payload tuple and degree -1.  All arithmetic runs on the field's
payload kernel, and ``coeffs``, ``coeff`` and ``leading`` box payloads into
``FieldElement`` values on the way out.

The input side does each piece of work once: ``enumerate_irreducibles`` is
a sieve, ``is_irreducible`` (Ben-Or's test) keeps a bounded cache, and the
parser evaluates on kernel payloads and builds one ``Poly`` at the end.
"""

from __future__ import annotations

import functools
import itertools
import re

from . import fields
from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    InexactDivision,
    InvalidArgument,
    NotIrreducible,
    ParseError,
    UnsupportedField,
)

# bound on the degree of a parsed polynomial and on the degree n * deg P of a
# ring modulus P^n, both of which come from outside input
MAX_DEGREE = 1024
# bound on the coefficient products of one morphism computation: the table
# of powers of q from a D- to an E-dimensional ring, D*E*(deg q + 1), and
# the elimination of its D'-column, E'-row matrix, D'*E'*min(D', E'); the
# CLI's survey charges an upper bound on its whole work against it too
MAX_TABLE_WORK = 2 ** 24


def check_power(p, n):
    """InvalidArgument unless n >= 1 and P^n has degree <= MAX_DEGREE."""
    if n < 1:
        raise InvalidArgument("power must be >= 1")
    if n * p.degree > MAX_DEGREE:
        raise InvalidArgument(f"deg P^n = {n * p.degree} exceeds the degree "
                              f"bound {MAX_DEGREE}")


class Poly(fields._RingValue):
    """Immutable dense polynomial over one field."""

    __slots__ = ("field", "payload")

    def __init__(self, field, coeffs=()):
        payload = field._ptrim([field.coerce(c).payload for c in coeffs])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    @classmethod
    def _of(cls, field, payload):
        # wrap a payload tuple that is already trimmed
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "payload", payload)
        return obj

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    # -- basic queries ------------------------------------------------------
    @property
    def coeffs(self):
        return tuple(fields.FieldElement(self.field, c) for c in self.payload)

    @property
    def degree(self):
        return len(self.payload) - 1

    def is_zero(self):
        return not self.payload

    def leading(self):
        if not self.payload:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return fields.FieldElement(self.field, self.payload[-1])

    def is_monic(self):
        return (bool(self.payload)
                and self.payload[-1] == self.field._from_int(1))

    def coeff(self, i):
        if 0 <= i < len(self.payload):
            return fields.FieldElement(self.field, self.payload[i])
        return self.field.zero()

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise DescriptorMismatch(
                    f"mixed coefficient fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, fields.FieldElement)):
            return Poly(self.field, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly._of(self.field, self.field._padd(self.payload, o.payload))

    def __neg__(self):
        return Poly._of(self.field, self.field._pneg(self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly._of(self.field, self.field._pmul(self.payload, o.payload))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = self.field._pdivmod(self.payload, o.payload)
        return Poly._of(self.field, q), Poly._of(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly._of(self.field, self.field._prem(self.payload, o.payload))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return Poly._of(self.field, self.field._ppow(self.payload, e))

    def mul_mod(self, other, m):
        """self * other reduced mod m, one kernel call."""
        o, m = self._coerce(other), self._coerce(m)
        return Poly._of(self.field,
                        self.field._pmulmod(self.payload, o.payload, m.payload))

    def pow_mod(self, e, m):
        """self**e reduced mod m, by square and multiply."""
        return Poly._of(self.field, self.field._ppow(
            self.payload, e, self._coerce(m).payload))

    # -- calculus and composition ------------------------------------------
    def derivative(self):
        f = self.field
        return Poly._of(f, f._ptrim([f._mul(f._from_int(i), c)
                                     for i, c in enumerate(self.payload)][1:]))

    def evaluate(self, v):
        """Value at a field element, by Horner."""
        return self.compose(v).coeff(0)

    def compose(self, q):
        """Composition self(q), by Horner."""
        return Poly._of(self.field, self.field._pcompose(
            self.payload, self._coerce(q).payload))

    def compose_mod(self, q, m):
        """self(q) reduced mod m, by Horner with reduction after each step."""
        return Poly._of(self.field, self.field._pcompose(
            self.payload, self._coerce(q).payload, self._coerce(m).payload))

    def monic(self):
        return Poly._of(self.field, self.field._pmonic(self.payload))

    # -- value semantics ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.payload == other.payload
        if isinstance(other, int):
            return self == Poly(self.field, (other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.payload))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field}, {format_poly(self)!r})"


# ---------------------------------------------------------------------------
# gcd machinery

def ext_gcd(a, b):
    """Extended Euclid: returns (g, u, v) with g = u*a + v*b, g monic.  The
    kernel's Euclid gives g and u; v = (g - u*a)/b is one exact division
    (0 where b = 0), its divisor prepared uncached as Euclid's are."""
    f, a, b = a.field, a.payload, a._coerce(b).payload
    g, u = f._pgcdex(a, b)
    rest = f._padd(g, f._pneg(f._pmul(u, a)))
    v = b and f._pdivide(rest, b, True, fields._clear_once)[0]
    return tuple(Poly._of(f, c) for c in (g, u, v))


def gcd(a, b):
    """Monic gcd."""
    return Poly._of(a.field, a.field._pgcd(a.payload, a._coerce(b).payload))


def exact_div(a, b):
    """a / b when b divides a exactly; InexactDivision otherwise."""
    q, r = divmod(a, b)
    if not r.is_zero():
        raise InexactDivision(f"{b} does not divide {a}")
    return q


def apply_automorphism_to_poly(sigma, a):
    """sigma^X: apply a base-field automorphism coefficient-wise, fixing X."""
    act = sigma.on(a.field)
    # an automorphism sends a nonzero leading coefficient to a nonzero one
    return a if act is None else Poly._of(a.field, tuple(map(act, a.payload)))


# ---------------------------------------------------------------------------
# irreducibility over finite fields

@functools.lru_cache(maxsize=1024)
def is_irreducible(a):
    """True iff a is irreducible over its (finite) coefficient field.

    Checks gcd(a, X^(q^i) - X) = 1 for i <= deg(a)/2; a polynomial of
    degree d is reducible iff it has an irreducible factor of degree <= d/2
    (Ben-Or's test).  The last 1,024 answers are cached.
    """
    field = a.field
    if not field.is_finite():
        raise UnsupportedField(
            f"irreducibility test requires a finite field, got {field}")
    d = a.degree
    if d < 1:
        return False
    if d == 1:
        return True
    q = field.order()
    x = Poly.x(field)
    h = x
    for _ in range(d // 2):
        h = h.pow_mod(q, a)
        if gcd(a, h - x).degree != 0:
            return False
    return True


def check_irreducible(p, assume_irreducible):
    """NotIrreducible unless P is irreducible: a linear P is, over every
    field; a higher degree is verified over a finite field, elsewhere
    UnsupportedField.  Skipped when the caller asserts it."""
    if assume_irreducible or p.degree == 1:
        return
    if not p.field.is_finite():
        raise UnsupportedField(
            f"cannot verify irreducibility over {p.field}; "
            "pass assume_irreducible=True")
    if not is_irreducible(p):
        raise NotIrreducible(f"{p} is reducible over {p.field}")


def _payloads(field, degree, monic=True):
    # the counting order: lexicographic on the ascending coefficient
    # vector, constant term most significant
    elems = [c.payload for c in field.elements()]
    leads = ([field._from_int(1)] if monic
             else [c for c in elems if not field._is_zero(c)])
    for lower in itertools.product(elems, repeat=degree):
        for lead in leads:
            yield lower + (lead,)


def enumerate_polys(field, degree, monic=True):
    """All polynomials of exact degree ``degree`` in counting order
    (lexicographic on the ascending coefficient vector, constant term most
    significant)."""
    return (Poly._of(field, a) for a in _payloads(field, degree, monic))


def enumerate_irreducibles(field, degree):
    """All monic irreducible polynomials of exact degree d over a finite
    field, in counting order, by the sieve (Lidl and Niederreiter, *Finite
    Fields*, ch. 3): each product of a monic irreducible of degree <= d/2 and
    a monic cofactor is marked, and the unmarked of the q^d candidates, one
    byte each and charged against MAX_TABLE_WORK first, are returned."""
    if not field.is_finite():
        raise UnsupportedField(
            f"cannot enumerate irreducibles over {field}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    q = field.order()
    # q >= 2, so a degree past log2 of the bound passes it too
    if degree > MAX_TABLE_WORK.bit_length() or q ** degree > MAX_TABLE_WORK:
        raise InvalidArgument(
            f"enumerating degree {degree} over {field} sieves q^d = "
            f"{q}^{degree} candidates, past the work bound {MAX_TABLE_WORK}")
    index = {c.payload: i for i, c in enumerate(field.elements())}
    reducible = bytearray(q ** degree)
    for e in range(1, degree // 2 + 1):
        for f in enumerate_irreducibles(field, e):
            for g in _payloads(field, degree - e):
                i = 0
                for c in field._pmul(f.payload, g)[:-1]:
                    i = i * q + index[c]
                reducible[i] = 1
    return [Poly._of(field, a) for a, marked
            in zip(_payloads(field, degree), reducible) if not marked]


# ---------------------------------------------------------------------------
# text syntax: x^3+x+1, x^2-2, (1/2)*x^2+t, ...

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("int", num))
        elif name is not None:
            tokens.append(("name", name))
        elif op is not None:
            tokens.append(("op", op))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, field, tokens, var):
        self.field = field
        self.tokens = tokens
        self.i = 0
        self.var = var

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, got {text!r}")

    def parse_expr(self):
        f = self.field
        node = self.parse_term()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.parse_term()
                node = f._padd(node, rhs if text == "+" else f._pneg(rhs))
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                start = self.i
                rhs = self.parse_factor()
                if text == "*":
                    if len(node) + len(rhs) - 2 > MAX_DEGREE:
                        raise ParseError("a product raises the degree above "
                                         f"the bound {MAX_DEGREE}")
                    node = self.field._pmul(node, rhs)
                else:
                    spelled = "".join(t for _, t in self.tokens[start:self.i])
                    node = self._divide(node, rhs, spelled)
            else:
                return node

    def _divide(self, a, b, spelled):
        if len(b) > 1:
            raise ParseError(
                f"division by non-constant polynomial '{spelled}' "
                "is not supported")
        if not b:
            raise ParseError(
                f"cannot divide by '{spelled}': it is zero over {self.field}")
        try:
            inv = self.field._inv(b[0])
        except DivisionByZero:
            raise ParseError(
                f"'{spelled}' is not invertible over {self.field}") from None
        return self.field._pmul(a, (inv,))

    def parse_factor(self):
        kind, text = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            node = self.parse_factor()
            return node if text == "+" else self.field._pneg(node)
        return self.parse_power()

    def parse_power(self):
        f = self.field
        monomial = self.peek() == ("name", self.var)
        node = self.parse_atom()
        kind, text = self.peek()
        if kind == "op" and text == "^":
            self.next()
            kind, text = self.next()
            if kind != "int":
                raise ParseError(f"expected integer exponent, got {text!r}")
            # the length test keeps int() off arbitrarily long digit strings
            if (len(text) > len(str(MAX_DEGREE))
                    or max(len(node) - 1, 1) * int(text) > MAX_DEGREE):
                raise ParseError(f"^{text} raises the degree above the "
                                 f"bound {MAX_DEGREE}")
            if monomial:  # x^e is X^e, with no products
                return (f._from_int(0),) * int(text) + (f._from_int(1),)
            return f._ppow(node, int(text))
        return node

    def parse_atom(self):
        f = self.field
        kind, text = self.next()
        if kind == "int":
            try:
                return f._ptrim((f._from_int(fields._parse_int(text)),))
            except DivisionByZero:
                raise ParseError(f"invalid coefficient '{text}' over {f}")
        if kind == "name":
            if text == self.var:
                return (f._from_int(0), f._from_int(1))
            gen = _field_generator(f, text)
            if gen is not None:
                return (gen,)
            raise ParseError(f"unknown symbol {text!r} over {f}")
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}")


def _field_generator(field, name):
    """The payload in ``field`` of the generator named ``name``, its own or
    that of a field below it in a tower, each level below wrapping it as
    ``(g,)``, as ``from_base`` does; None for any other name."""
    if name in (getattr(field, "var", None), getattr(field, "gen_name", None)):
        return field.gen().payload
    g = (isinstance(field, fields.ExtensionField)
         and _field_generator(field.base, name))
    return (g,) if g else None


def parse_poly(field, text, var="x"):
    """Parse a polynomial expression over ``field`` in the variable ``var``."""
    if not text.strip():
        raise ParseError("empty polynomial expression")
    parser = _Parser(field, _tokenize(text), var)
    try:
        node = parser.parse_expr()
    except RecursionError:  # the parser recurses once per nesting level
        raise ParseError("expression nested too deeply") from None
    kind, tok = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {tok!r}")
    return Poly._of(field, node)


def parse_element(field, text):
    """Parse a field element written in polynomial syntax."""
    p = parse_poly(field, text, var="\x00never")
    return p.coeff(0)


def format_poly(a, var="x"):
    """Deterministic text form, highest degree first, ``0`` for zero."""
    if a.is_zero():
        return "0"
    field, parts = a.field, []
    for i in range(a.degree, -1, -1):
        c = a.payload[i]
        if field._is_zero(c):
            continue
        cs = field.format_payload(c)
        if i == 0:
            term = f"({cs})" if _needs_parens(cs) else cs
            parts.append(term)
            continue
        xs = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            term = xs
        elif cs == "-1":
            term = f"-{xs}"
        else:
            if _needs_parens(cs):
                cs = f"({cs})"
            term = f"{cs}*{xs}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _needs_parens(s):
    # text that one pair wraps whole, such as "(a+1)", needs no second pair
    return ("+" in s[1:] or "-" in s[1:] or "/" in s or "*" in s) and not (
        s[0] == "(" and fields._closing_paren(s, 0) == len(s) - 1)
