"""Quotient rings K[X]/(P^n), their elements, and X-image morphisms.

A morphism between two such rings is stored as the pair (base automorphism,
image of the class of X); its action on a representative r is
``sigma^X(r)(q_image) mod target modulus``.  Well-definedness is certified
eagerly at construction time.
"""

from __future__ import annotations

import json

from . import fields as _fields
from .errors import (
    BadTarget,
    InvalidArgument,
    NotAMorphism,
    NotAUnit,
    NotIrreducible,
    NotMonic,
    NotWellDefined,
    ParseError,
    RingMismatch,
    UnsupportedField,
)
from .poly import (
    MAX_TABLE_WORK,
    Poly,
    apply_automorphism_to_poly,
    check_irreducible,
    check_power,
    format_poly,
    parse_poly,
)


class QuotientRing(_fields._Frozen):
    """K[X]/(P^n) for P monic irreducible, n >= 1.

    Irreducibility is verified over finite fields, holds for every linear
    P, and is caller-asserted (``assume_irreducible=True``) over Q and
    F_p(t) above degree 1.
    """

    __slots__ = ("field", "p", "n", "modulus")

    def __init__(self, p, n, assume_irreducible=False):
        if p.degree < 1:
            raise NotIrreducible("modulus base must have degree >= 1")
        if not p.is_monic():
            raise NotMonic(f"{p} is not monic")
        check_power(p, n)
        check_irreducible(p, assume_irreducible)
        object.__setattr__(self, "field", p.field)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", p ** n)

    @property
    def dimension(self):
        """Dimension over the base field."""
        return self.n * self.p.degree

    def element(self, rep):
        """Class of a polynomial (or int, or field element)."""
        if isinstance(rep, (int, _fields.FieldElement)):
            rep = Poly(self.field, (rep,))
        if rep.field != self.field:
            raise RingMismatch("representative over the wrong field")
        return QuotientElement(self, rep % self.modulus)

    def zero(self):
        return self.element(Poly.zero(self.field))

    def one(self):
        return self.element(Poly.one(self.field))

    def gen(self):
        """The class of X."""
        return self.element(Poly.x(self.field))

    def at_power(self, m):
        """K[X]/(P^m), same P."""
        if m == self.n:
            return self
        return QuotientRing(self.p, m, assume_irreducible=True)

    def order(self):
        return self.field.order() ** self.dimension

    def elements(self):
        """All elements (finite fields only), deterministic order."""
        import itertools
        # a tuple of D coefficient payloads is already reduced mod P^n
        field, trim = self.field, self.field._ptrim
        payloads = [c.payload for c in field.elements()]
        for tup in itertools.product(payloads, repeat=self.dimension):
            yield QuotientElement(self, Poly._of(field, trim(tup)))

    def random_element(self, rng):
        coeffs = [self.field.random_element(rng) for _ in range(self.dimension)]
        return self.element(Poly(self.field, coeffs))

    def __eq__(self, other):
        return (isinstance(other, QuotientRing)
                and other.p == self.p and other.n == self.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"{self.field}[x]/(({format_poly(self.p)})^{self.n})"


class QuotientElement(_fields._RingValue):
    """Element of a QuotientRing, representative reduced mod the modulus."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring, rep):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rep", rep)

    def _coerce(self, other):
        if isinstance(other, QuotientElement):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"elements of {self.ring} and {other.ring} combined")
            return other
        if isinstance(other, (int, _fields.FieldElement, Poly)):
            return self.ring.element(other)
        return None

    # a sum or negation of reduced representatives is reduced
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuotientElement(self.ring, self.rep + o.rep)

    def __neg__(self):
        return QuotientElement(self.ring, -self.rep)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.ring.field
        return QuotientElement(self.ring, Poly._of(f, f._pmulmod(
            self.rep.payload, o.rep.payload, self.ring.modulus.payload)))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return self.ring.element(self.rep.pow_mod(e, self.ring.modulus))

    def is_zero(self):
        return self.rep.is_zero()

    def is_unit(self):
        """Units of the local ring are exactly the classes coprime to P."""
        return not (self.rep % self.ring.p).is_zero()

    def invert(self):
        field = self.rep.field
        g, u = field._pgcdex(self.rep.payload, self.ring.modulus.payload)
        if len(g) != 1:
            raise NotAUnit(f"{self} is not a unit")
        return self.ring.element(Poly._of(field, u))

    def project(self, m):
        """Image in K[X]/(P^m) under the canonical projection, 1 <= m <= n."""
        if not 1 <= m <= self.ring.n:
            raise BadTarget(f"cannot project level {self.ring.n} to level {m}")
        return self.ring.at_power(m).element(self.rep)

    def __eq__(self, other):
        if isinstance(other, QuotientElement):
            return self.ring == other.ring and self.rep == other.rep
        if isinstance(other, (int, Poly)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __str__(self):
        return format_poly(self.rep)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


class StabilizingMorphism(_fields._Frozen):
    """Ring morphism between quotient rings given by (sigma, image of X).

    The constructor stores ``images``, the payloads of q^0..q^D mod the target
    modulus (D the source dimension, E the target's; it raises
    :class:`InvalidArgument` first when D*E*(deg q + 1) passes
    ``MAX_TABLE_WORK``), and applies them to verify the certificate
    ``sigma^X(P1^n1)(q) = 0 mod P2^n2``; it raises :class:`NotWellDefined`
    with the nonzero residue as witness when that fails.

    ``s_cert`` is the exact cofactor S_f of the residue morphism it induces:
    ``sigma^X(P1) o (q mod P2) = S_f * P2``.
    """

    __slots__ = ("source", "target", "sigma", "q_image", "images", "_s_cert")

    def __init__(self, source, target, sigma, q):
        if not q.field == source.field == target.field:
            raise RingMismatch("X-image, source and target fields differ")
        q = q % target.modulus
        # q^(i+1) = q^i * q mod P2^n2 is about E*(deg q + 1) products
        work = source.dimension * target.dimension * (q.degree + 1)
        if work > MAX_TABLE_WORK:
            raise InvalidArgument(
                f"a morphism of dimensions {source.dimension} -> "
                f"{target.dimension} with an X-image of degree {q.degree} "
                f"needs D*E*(deg q+1) = {work} products, past the work "
                f"bound {MAX_TABLE_WORK}")
        f, m = target.field, target.modulus.payload
        images = [(f._from_int(1),)]
        for _ in range(source.dimension):
            images.append(f._pmulmod(images[-1], q.payload, m))
        for name, value in (("source", source), ("target", target),
                            ("sigma", sigma), ("q_image", q),
                            ("images", tuple(images))):
            object.__setattr__(self, name, value)
        residue = Poly._of(f, self._apply(source.modulus.payload))
        if not residue.is_zero():
            raise NotWellDefined(
                f"x -> {format_poly(q)} does not map ({format_poly(source.p)})^"
                f"{source.n} into ({format_poly(target.p)})^{target.n}; "
                f"residue {format_poly(residue)}",
                witness=residue)

    @property
    def s_cert(self):
        """S_f, computed on the first read and kept."""
        if not hasattr(self, "_s_cert"):
            object.__setattr__(self, "_s_cert", _residue_cofactor(self))
        return self._s_cert

    def _apply(self, x):
        """sigma^X(x)(q) mod the target modulus, on payloads, deg x <= D:
        the one linear combination ``_pdot`` of the powers of q, which over
        Q and F_p(t) normalizes each output coefficient once."""
        f = self.target.field
        act = self.sigma.on(f)
        if act is not None:
            x = [act(c) for c in x]
        return f._pdot(x, self.images)

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring, _fields.IDENTITY, Poly.x(ring.field))

    def is_identity(self):
        return (self.source == self.target and self.sigma.is_identity
                and self.q_image == Poly.x(self.target.field))

    def __call__(self, a):
        if a.ring != self.source:
            raise RingMismatch(f"{a!r} is not in {self.source}")
        return QuotientElement(self.target, Poly._of(
            self.target.field, self._apply(a.rep.payload)))

    def compose(self, other):
        """self o other (apply ``other`` first)."""
        if other.target != self.source:
            raise RingMismatch("morphism composition: target/source mismatch")
        q = Poly._of(self.target.field, self._apply(other.q_image.payload))
        return StabilizingMorphism(other.source, self.target,
                                   self.sigma.compose(other.sigma), q)

    def __eq__(self, other):
        return (isinstance(other, StabilizingMorphism)
                and other.source == self.source
                and other.target == self.target
                and other.sigma == self.sigma
                and other.q_image == self.q_image)

    def __hash__(self):
        return hash((self.source, self.target, self.sigma, self.q_image))

    def __repr__(self):
        return (f"<morphism {self.source} -> {self.target}: "
                f"x -> {format_poly(self.q_image)}, sigma={self.sigma.label()}>")

    # -- JSON wire format ---------------------------------------------------
    def to_dict(self):
        return {
            "source": _ring_to_dict(self.source),
            "target": _ring_to_dict(self.target),
            "sigma": self.sigma.label(),
            "q_image": format_poly(self.q_image),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        _check_schema(data, _MORPHISM_SCHEMA, "morphism")
        source = _ring_from_dict(data["source"])
        target = _ring_from_dict(data["target"])
        sigma = _fields.FieldAutomorphism.parse(data["sigma"])
        q = parse_poly(target.field, data["q_image"])
        return cls(source, target, sigma, q)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _residue_cofactor(f):
    """S_f, the S with sigma^X(P1) o q = S * P2 for q = f.q_image mod P2;
    NotAMorphism names the remainder when P2 does not divide."""
    p2 = f.target.p
    q = f.q_image % p2
    s, rem = divmod(apply_automorphism_to_poly(f.sigma, f.source.p).compose(q),
                    p2)
    if not rem.is_zero():
        raise NotAMorphism(
            f"x -> {format_poly(q)} is not a morphism: remainder "
            f"{format_poly(rem)}", witness=rem)
    return s


def _ring_to_dict(ring):
    field = ring.field
    # parse_field verifies an extension's modulus, which over Q it cannot
    if isinstance(field, _fields.ExtensionField) and not field.is_finite():
        raise UnsupportedField(
            f"{field} has no field descriptor: parse_field cannot verify "
            "the irreducibility of an extension of Q")
    return {"field": _fields.format_field(field),
            "p": format_poly(ring.p),
            "n": ring.n}


_MORPHISM_SCHEMA = {"source": dict, "target": dict, "sigma": str,
                    "q_image": str}
_RING_SCHEMA = {"field": str, "p": str, "n": int}
_JSON_TYPE_NAMES = {dict: "object", str: "string", int: "integer"}


def _check_schema(data, schema, what):
    """ParseError unless ``data`` is a JSON object with every key of the
    schema holding a value of its type."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be a JSON object, "
                         f"got {type(data).__name__}")
    for key, kind in schema.items():
        value = data.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParseError(f"{what} needs {key!r} as a JSON "
                             f"{_JSON_TYPE_NAMES[kind]}")


def _ring_from_dict(data):
    _check_schema(data, _RING_SCHEMA, "ring")
    field = _fields.parse_field(data["field"])
    p = parse_poly(field, data["p"])
    # serialized rings originate from validated rings; over infinite fields
    # irreducibility remains caller-asserted
    return QuotientRing(p, data["n"],
                        assume_irreducible=not field.is_finite())
