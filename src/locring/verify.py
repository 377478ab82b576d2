"""Independent oracles for constructed morphisms: exact matrices, kernels,
and the morphism law on small finite rings, proved from sums of a ring
element and a basis element over F_p and from products of two basis
elements rather than from all pairs.

A morphism between quotient rings is linear over the base field K when its
base automorphism fixes K (the identity, any power on a prime field, frob^e
on F_{p^k} when k divides e); one that moves some element of K is verified
over the prime subfield F_p of K, where it becomes linear, whether K is a
simple extension of F_p or a tower of extensions.

A :class:`Matrix` holds payloads of its field, not ``FieldElement``s: its
columns are read from the morphism's stored table of powers, elimination
runs in the field's scalar kernel, and only ``kernel_basis`` boxes, the
vectors it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidArgument, TooLarge
from .fields import FieldElement, PrimeField
from .poly import MAX_TABLE_WORK


@dataclass(frozen=True)
class Matrix:
    """Rectangular matrix over one field, row-major; each entry is a
    payload of ``field``."""

    field: object
    rows: tuple

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0


def kernel_basis(m):
    """Basis of the null space by exact Gaussian elimination, as lists of
    ``FieldElement``s; empty iff the matrix is injective."""
    rows, pivots = _row_echelon(m)
    field = m.field
    zero, one = field._from_int(0), field._from_int(1)
    basis = []
    for fc in sorted(set(range(m.ncols)) - set(pivots)):
        v = [zero] * m.ncols
        v[fc] = one
        # back-substitute pivot coordinates (rows are reduced echelon)
        for r, c in enumerate(pivots):
            v[c] = field._neg(rows[r][fc])
        basis.append([FieldElement(field, x) for x in v])
    return basis


def _row_echelon(m):
    """Reduced row echelon form of the payload rows; returns (rows, pivot
    column list).

    When column c is reached, every row from the current one down is zero
    left of c, so each row operation starts at c."""
    field = m.field
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    rows = [list(row) for row in m.rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, nrows) if not is_zero(rows[i][c])),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field._inv(rows[r][c])
        top = [mul(x, inv) for x in rows[r][c:]]
        rows[r][c:] = top
        for i in range(nrows):
            if i != r and not is_zero(rows[i][c]):
                g = neg(rows[i][c])
                rows[i][c:] = [add(x, mul(g, y))
                               for x, y in zip(rows[i][c:], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def morphism_matrix(f):
    """Matrix of the morphism on the monomial basis of the source.

    A morphism whose sigma fixes the base field K gives a matrix over K; one
    whose sigma moves some element of the finite field K gives a matrix over
    F_p on the basis s * X^i, s over the F_p-basis ``_prime_basis`` of K, so
    its kernel dimension is over F_p.  Column i (or j*D + i) holds the
    coordinates of f(X^i) = q^i (or of f(s_j * X^i) = sigma(s_j) * q^i),
    read from ``f.images``; over F_p each coefficient is flattened one tower
    level at a time into its coordinates, in the order of the basis.
    """
    field = f.source.field
    act = f.sigma.on(field)  # None: the morphism is linear over field
    one = field._from_int(1)
    scalars = ([one] if act is None
               else [act(s) for s in _prime_basis(field.base, field.degree)])
    # one row and one column per coordinate over the entry field
    k = len(scalars)
    ncols = k * f.source.dimension
    nrows = k * f.target.dimension
    work = ncols * nrows * min(ncols, nrows)
    if work > MAX_TABLE_WORK:
        raise InvalidArgument(
            f"eliminating the {nrows} x {ncols} matrix of a morphism needs "
            f"D'*E'*min(D', E') = {work} products, past the work bound "
            f"{MAX_TABLE_WORK}")
    images = f.images[:f.source.dimension]
    pad = (field._from_int(0),) * f.target.dimension
    columns = []
    for s in scalars:
        for img in images:
            if s != one:
                img = tuple([field._mul(c, s) for c in img])
            columns.append(img + pad[len(img):])
    entry_field = field
    while act is not None and not isinstance(entry_field, PrimeField):
        # an extension payload is a trimmed tuple of base payloads
        zero, degree = entry_field.base._from_int(0), entry_field.degree
        columns = [[x for c in col for x in c + (zero,) * (degree - len(c))]
                   for col in columns]
        entry_field = entry_field.base
    return Matrix(entry_field, tuple(zip(*columns)))


def certify_isomorphism(f):
    """True iff the morphism's matrix is square of full rank (then the
    morphism is bijective)."""
    m = morphism_matrix(f)
    return m.nrows == m.ncols == len(_row_echelon(m)[1])


def kernel_dimension(f):
    m = morphism_matrix(f)
    return m.ncols - len(_row_echelon(m)[1])


@dataclass(frozen=True)
class ExhaustiveCheckReport:
    passed: bool
    n_pairs: int
    witness: object = None

    def __bool__(self):
        return self.passed


_EXHAUSTIVE_CAP = 2 ** 10


def _prime_basis(field, degree):
    """Payloads of s * X^i, i < degree and s over a basis of the finite
    ``field`` over F_p: a basis over F_p of field[X]/(m), deg m = degree;
    an extension base[a]/(m) is that space over its base."""
    sub = ([1] if isinstance(field, PrimeField)
           else _prime_basis(field.base, field.degree))
    zero = field._from_int(0)
    return [(zero,) * i + (s,) for i in range(degree) for s in sub]


def exhaustive_morphism_check(f):
    """The morphism law f(a+b) = f(a)+f(b), f(ab) = f(a)f(b) on all pairs of
    a small finite source ring R, on payloads through the field's
    polynomial kernel; ``f`` is applied once to each element.

    It is proved in two stages, with B the F_p-basis ``_prime_basis`` of R
    and D = |B| = log_p |R|.  Additivity on the |R| * D pairs of R x B
    makes f additive, so F_p-linear.  Then (a, b) -> f(ab) - f(a)f(b) is
    F_p-bilinear and symmetric, so it vanishes on R x R once it vanishes
    on the D(D+1)/2 pairs {b, b'} of B, b = b' included.  Only when a stage
    fails is R x R scanned, in order, for the first failing pair, so the
    report is that of all pairs."""
    ring = f.source
    if not ring.field.is_finite():
        raise TooLarge(f"cannot enumerate {ring}")
    if ring.order() > _EXHAUSTIVE_CAP:
        raise TooLarge(
            f"{ring} has {ring.order()} elements (cap {_EXHAUSTIVE_CAP})")
    field = ring.field
    padd, pmulmod = field._padd, field._pmulmod
    m1, m2 = ring.modulus.payload, f.target.modulus.payload
    # (element, payload, payload of its image); reduced payloads are
    # canonical, and a sum of two needs no reduction
    table = [(a, a.rep.payload, f(a).rep.payload) for a in ring.elements()]
    images = {x: fx for _, x, fx in table}

    def adds(x, fx, y, fy):
        return padd(fx, fy) == images[padd(x, y)]

    def muls(x, fx, y, fy):
        return pmulmod(fx, fy, m2) == images[pmulmod(x, y, m1)]

    basis = [(y, images[y]) for y in _prime_basis(field, ring.dimension)]
    if not (all(adds(x, fx, *e) for _, x, fx in table for e in basis)
            and all(muls(*d, *e) for d, e in
                    itertools.combinations_with_replacement(basis, 2))):
        pairs = itertools.product(table, repeat=2)
        for n, ((a, x, fx), (b, y, fy)) in enumerate(pairs, start=1):
            if not adds(x, fx, y, fy):
                return ExhaustiveCheckReport(False, n, (a, b, "add"))
            if not muls(x, fx, y, fy):
                return ExhaustiveCheckReport(False, n, (a, b, "mul"))
    return ExhaustiveCheckReport(True, len(table) ** 2)
