"""Independent oracles for constructed morphisms: exact matrices, kernels,
and exhaustive morphism-law checks on small rings.

A morphism between quotient rings is linear over the base field when its
base automorphism is the identity (or acts trivially, as on prime fields);
a genuine Frobenius twist over an extension field is verified over the
prime subfield, where it becomes linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidArgument, TooLarge, UnsupportedAutomorphism
from .fields import ExtensionField, FieldElement, PrimeField
from .poly import MAX_TABLE_WORK, Poly


@dataclass(frozen=True)
class Matrix:
    """Rectangular matrix over one field, row-major."""

    field: object
    rows: tuple

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def from_columns(field, columns):
        nrows = len(columns[0])
        rows = tuple(tuple(col[r] for col in columns) for r in range(nrows))
        return Matrix(field=field, rows=rows)


def kernel_basis(m):
    """Basis of the null space by exact Gaussian elimination; empty list
    iff the matrix is injective."""
    rows, pivots = _row_echelon(m)
    ncols = m.ncols
    field = m.field
    zero, one = field.zero(), field.one()
    pivot_cols = {c: r for r, c in enumerate(pivots)}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        # back-substitute pivot coordinates (rows are reduced echelon)
        for c, r in pivot_cols.items():
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis


def _row_echelon(m):
    """Reduced row echelon form; returns (rows, pivot column list).

    Eliminates on unboxed payloads with the field's scalar ops."""
    field = m.field
    rows = [[x.payload for x in row] for row in m.rows]
    nrows, ncols = len(rows), m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows)
                      if not field._is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field._inv(rows[r][c])
        rows[r] = [field._mul(x, inv) for x in rows[r]]
        for i in range(nrows):
            if i != r and not field._is_zero(rows[i][c]):
                f = field._neg(rows[i][c])
                rows[i] = [field._add(x, field._mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [[FieldElement(field, x) for x in row] for row in rows], pivots


def morphism_matrix(f):
    """Matrix of the morphism on the monomial basis of the source.

    Linear morphisms give a matrix over the base field K; Frobenius-twisted
    morphisms over an extension of F_p give a matrix over F_p on the basis
    a^j * X^i.
    """
    field = f.source.field
    if f.sigma.is_identity or isinstance(field, PrimeField):
        scalars, entry_field = [field.one()], field
    elif isinstance(field, ExtensionField) and isinstance(field.base,
                                                          PrimeField):
        scalars = [f.sigma.apply(field.gen() ** j)
                   for j in range(field.degree)]
        entry_field = field.base
    else:
        raise UnsupportedAutomorphism(
            f"cannot linearize sigma = {f.sigma.label()} over {field}")
    # one row and one column per coordinate over entry_field
    ncols = len(scalars) * f.source.dimension
    nrows = len(scalars) * f.target.dimension
    work = ncols * nrows * min(ncols, nrows)
    if work > MAX_TABLE_WORK:
        raise InvalidArgument(
            f"eliminating the {nrows} x {ncols} matrix of a morphism needs "
            f"D'*E'*min(D', E') = {work} products, past the work bound "
            f"{MAX_TABLE_WORK}")
    # f(s * X^i) = sigma(s) * q^i, X fastest
    columns = [_flatten(Poly._of(field, img) * s, f.target.dimension,
                        entry_field)
               for s in scalars for img in f.images[:f.source.dimension]]
    return Matrix.from_columns(entry_field, columns)


def _flatten(rep, dimension, entry_field):
    """Coordinates over entry_field of a representative on the first
    ``dimension`` monomials, each coefficient split into prime-field
    coordinates when entry_field is the prime subfield of its field."""
    coeffs = [rep.coeff(k) for k in range(dimension)]
    if rep.field == entry_field:
        return coeffs
    # an extension payload is a trimmed tuple of prime-field payloads
    d = rep.field.degree
    return [FieldElement(entry_field, x) for c in coeffs
            for x in c.payload + (0,) * (d - len(c.payload))]


def certify_isomorphism(f):
    """True iff the morphism is injective with equal source/target
    dimensions (then bijective)."""
    m = morphism_matrix(f)
    return m.nrows == m.ncols and not kernel_basis(m)


def kernel_dimension(f):
    return len(kernel_basis(morphism_matrix(f)))


@dataclass(frozen=True)
class ExhaustiveCheckReport:
    passed: bool
    n_pairs: int
    witness: object = None

    def __bool__(self):
        return self.passed


_EXHAUSTIVE_CAP = 2 ** 10


def exhaustive_morphism_check(f):
    """Brute-force the morphism law f(a+b) = f(a)+f(b), f(ab) = f(a)f(b)
    over all pairs of a small finite source ring, on payloads through the
    field's polynomial kernel; ``f`` is applied once to each element."""
    ring = f.source
    if not ring.field.is_finite():
        raise TooLarge(f"cannot enumerate {ring}")
    if ring.order() > _EXHAUSTIVE_CAP:
        raise TooLarge(
            f"{ring} has {ring.order()} elements (cap {_EXHAUSTIVE_CAP})")
    field = ring.field
    padd, pmul, pdivmod = field._padd, field._pmul, field._pdivmod
    m1, m2 = ring.modulus.payload, f.target.modulus.payload
    # (element, payload, payload of its image); reduced payloads are
    # canonical, and a sum of two needs no reduction
    table = [(a, a.rep.payload, f(a).rep.payload) for a in ring.elements()]
    images = {x: fx for _, x, fx in table}
    pairs = itertools.product(table, repeat=2)
    for n, ((a, x, fx), (b, y, fy)) in enumerate(pairs, start=1):
        if padd(fx, fy) != images[padd(x, y)]:
            return ExhaustiveCheckReport(False, n, (a, b, "add"))
        if (pdivmod(pmul(fx, fy), m2)[1]
                != images[pdivmod(pmul(x, y), m1)[1]]):
            return ExhaustiveCheckReport(False, n, (a, b, "mul"))
    return ExhaustiveCheckReport(True, len(table) ** 2)
