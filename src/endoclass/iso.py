"""Change of basis for 2-dimensional algebras and isomorphism search.

An invertible 2x2 matrix X = ((x, y), (z, w)) lifts to the 4x4 matrix
of pairwise entry products

    lift(X) = ( x^2  y^2  xy  xy )
              ( z^2  w^2  zw  zw )
              ( xz   yw   xw  yz )
              ( xz   yw   yz  xw )

and X -> lift(X) is a group homomorphism GL2 -> GL4.  A change of
basis acts on structure matrices by A -> lift(X)^(-1) * A * X; two
structure matrices present isomorphic algebras exactly when some
X in GL2 carries one to the other, and such an X is called a
transformation matrix for the isomorphism.

The search returns the lexicographically least witness in (x, y, z, w)
element-code order, so results are reproducible.  When the target is
an S-form, every witness rewrites the source on a basis {x, x^2} for
one of its at most q^2 - 1 straight generators x.  The source is
rewritten once per line through 0 by `algebra.straight_bases`, q + 1
rewrites, and a multiple lam*x scales that rewrite's parameters by
powers of lam.
`_landings` solves for the lam that carries a rewrite onto one target,
from the target's b or d, so each rewrite costs at most one scaling, or
q - 1 in the rare case b = d = 0.  `sform_witness` takes the least of
its X.  `sform_orbit` takes the params of one S-form, builds the plain
set of its orbit for the isomorphism partition, expanding each scaling
class of rewrites once, and counts its automorphisms with `_landings`.
Any other target falls back to enumerating all (q^2-1)(q^2-q)
invertible matrices in lexicographic order; `apply_transform_codes`
scores each X by the products of X^(-1)'s rows, the new basis, read in
new coordinates through X^T.  All of these run on integer codes.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .algebra import SParams, StructureMatrix, _gauss_jordan, _product, straight_bases
from .fields import Field, FieldElement, FieldMismatchError, FieldTables, _ElementRecord


class SingularTransformError(ValueError):
    """The 2x2 matrix is not invertible."""


# Transform's fields; a NamedTuple body may not define the `__new__` that checks them
class _Entries(NamedTuple):
    x: FieldElement
    y: FieldElement
    z: FieldElement
    w: FieldElement


class Transform(_Entries, _ElementRecord):
    """An element ((x, y), (z, w)) of GL2 over some field."""

    __slots__ = ()

    def __new__(cls, x, y, z, w):
        self = super().__new__(cls, x, y, z, w)
        if y.field != x.field or z.field != x.field or w.field != x.field:
            raise FieldMismatchError("transform entries must lie in one field")
        if not self.det():
            raise SingularTransformError(f"{self} is singular")
        return self

    # so `_replace` and the conversions of `_ElementRecord` validate too
    _make = classmethod(lambda cls, entries: cls(*entries))

    def det(self) -> FieldElement:
        return self.x * self.w - self.y * self.z

    def entries(self):
        return tuple(self)

    @classmethod
    def identity(cls, field: Field) -> "Transform":
        one, zero = field.one(), field.zero()
        return cls(one, zero, zero, one)

    def inverse(self) -> "Transform":
        di = self.det().inverse()
        return Transform(self.w * di, -self.y * di, -self.z * di, self.x * di)

    def __matmul__(self, other: "Transform") -> "Transform":
        if other.field != self.field:
            raise FieldMismatchError("cannot compose transforms over different fields")
        return Transform(self.x * other.x + self.y * other.z,
                         self.x * other.y + self.y * other.w,
                         self.z * other.x + self.w * other.z,
                         self.z * other.y + self.w * other.w)

    def __str__(self):
        return f"(({self.x}, {self.y}), ({self.z}, {self.w}))"


class LiftedTransform:
    """4x4 lift of a Transform; invertible by construction."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)

    def __eq__(self, other):
        return (isinstance(other, LiftedTransform)
                and self.field == other.field and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"LiftedTransform({self.entries})"

    @classmethod
    def identity(cls, field: Field) -> "LiftedTransform":
        one, zero = field.one(), field.zero()
        return cls(field, tuple(tuple(one if i == j else zero for j in range(4))
                                for i in range(4)))

    def __matmul__(self, other: "LiftedTransform") -> "LiftedTransform":
        if other.field != self.field:
            raise FieldMismatchError("cannot compose lifts over different fields")
        a, b = self.entries, other.entries
        return LiftedTransform(self.field, tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(1, 4)), a[i][0] * b[0][j])
                  for j in range(4))
            for i in range(4)))

    def inverse(self) -> "LiftedTransform":
        """Inverse by Gauss-Jordan elimination over the field."""
        one, zero = self.field.one(), self.field.zero()
        aug = [list(row) + [one if j == i else zero for j in range(4)]
               for i, row in enumerate(self.entries)]
        if _gauss_jordan(aug, 4) < 4:
            raise SingularTransformError("lifted matrix is singular")
        return LiftedTransform(self.field, tuple(tuple(row[4:]) for row in aug))


def lift(X: Transform) -> LiftedTransform:
    """The 4x4 matrix of pairwise entry products of X."""
    a, b, c, d = X
    return LiftedTransform(X.field, (
        (a * a, b * b, a * b, a * b),
        (c * c, d * d, c * d, c * d),
        (a * c, b * d, a * d, b * c),
        (a * c, b * d, b * c, a * d),
    ))


def transform(A: StructureMatrix, X: Transform) -> StructureMatrix:
    """Structure matrix of the same algebra after the change of basis X:
    lift(X)^(-1) * A * X, with lift(X)^(-1) = lift(X^(-1))."""
    if X.field != A.field:
        raise FieldMismatchError("transform and matrix must share a field")
    Linv = lift(X.inverse()).entries
    rows = A.rows
    out = []
    for i in range(4):
        me = sum((Linv[i][j] * rows[j][0] for j in range(1, 4)), Linv[i][0] * rows[0][0])
        mf = sum((Linv[i][j] * rows[j][1] for j in range(1, 4)), Linv[i][0] * rows[0][1])
        out.append((me * X.x + mf * X.z, me * X.y + mf * X.w))
    return StructureMatrix(A.field, out)


def check_iso_system(S: SParams, S2: SParams, X: Transform) -> bool:
    """Does X witness an isomorphism carrying S onto S2?

    Evaluates the eight polynomial equations equivalent to
    transform(S.matrix, X) == S2.matrix for straight-form algebras.
    """
    if S.field != S2.field or X.field != S.field:
        raise FieldMismatchError("check_iso_system needs one common field")
    p, q, a, b, c, d = S
    p2, q2, a2, b2, c2, d2 = S2
    x, y, z, w = X
    if p2 * y * y + (a2 + c2) * x * y != z:
        return False
    if x * x + q2 * y * y + (b2 + d2) * x * y != w:
        return False
    if p2 * w * w + (a2 + c2) * z * w != p * x + q * z:
        return False
    if z * z + q2 * w * w + (b2 + d2) * z * w != p * y + q * w:
        return False
    if p2 * y * w + a2 * x * w + c2 * y * z != a * x + b * z:
        return False
    if x * z + q2 * y * w + b2 * x * w + d2 * y * z != a * y + b * w:
        return False
    if p2 * y * w + a2 * y * z + c2 * x * w != c * x + d * z:
        return False
    if x * z + q2 * y * w + b2 * y * z + d2 * x * w != c * y + d * w:
        return False
    return True


# ---------------------------------------------------------------------------
# coded search kernel
# ---------------------------------------------------------------------------

def gl2_lifted(field: Field):
    """(x, y, z, w) codes of all of GL2, in lexicographic order.

    It yields no lifts, but keeps its name: perfbench/tracer.py wraps
    `iso.gl2_lifted` by name."""
    mul = field.tables().mul
    return (X for X in itertools.product(range(field.order()), repeat=4)
            if mul[X[0]][X[3]] != mul[X[1]][X[2]])


def apply_transform_codes(t: FieldTables, m, x: int, y: int, z: int, w: int):
    """Structure codes m after the change of basis X = ((x, y), (z, w)).

    The new basis is the rows e', f' of X^(-1); their products e'e', f'f',
    e'f', f'e' are read in the new coordinates through X^T."""
    add, mul, neg = t.add, t.mul, t.neg
    di = t.inv[add[mul[x][w]][mul[neg[y]][z]]]
    e, f = (mul[w][di], mul[neg[y]][di]), (mul[neg[z]][di], mul[x][di])
    out = ()
    for ce, cf in (_product(t, m, e, e), _product(t, m, f, f),
                   _product(t, m, e, f), _product(t, m, f, e)):
        out += (add[mul[ce][x]][mul[cf][z]], add[mul[ce][y]][mul[cf][w]])
    return out


def _landings(t: FieldTables, bases, target):
    """X codes of every multiple lam*x of a base in `bases` (from
    `straight_bases`) that lands on the S-form with (p, q, a, b, c, d)
    codes `target`.

    lam*x rewrites onto S(lam^3 p, lam^2 q, lam^2 a, lam b, lam^2 c, lam d)
    by X diag(1/lam, 1/lam^2), so the only candidate is lam = B/b when
    b != 0 and lam = D/d when d != 0.  A base with b = d = 0 can land only
    if B = D = 0, and then every lam is tried; such bases are rare.
    """
    n, mul, inv = t.q, t.mul, t.inv
    B, D = target[3], target[5]
    for x, y, z, w, (p, q, a, b, c, d) in bases:
        if b or d:
            k, K = (b, B) if b else (d, D)
            lams = (mul[K][inv[k]],) if K else ()
        elif B or D:
            continue
        else:
            lams = range(1, n)
        for lam in lams:
            m1 = mul[lam]
            m2 = mul[m1[lam]]
            if (mul[m2[lam]][p], m2[q], m2[a], m1[b], m2[c], m1[d]) == target:
                i1 = mul[inv[lam]]
                i2 = mul[i1[inv[lam]]]
                yield (i1[x], i2[y], i1[z], i2[w])


def sform_orbit(t: FieldTables, params):
    """The S-forms isomorphic to the S-form with (p, q, a, b, c, d) codes
    `params`.

    Returns (orbit, generators, automorphisms): `orbit` is the set of
    (p, q, a, b, c, d) codes of those S-forms, `generators` counts the
    straight generators of S(params) and `automorphisms` those that
    carry it onto itself.

    The scalings of one base's params form its scaling class.  A base
    whose params are already in the set lies in a class that is already
    expanded and is skipped; every other base adds its q - 1 scalings,
    so each S-form is added once.
    """
    n, mul = t.q, t.mul
    bases = list(straight_bases(t, (0, 1) + params))
    scales = [(mul[lam], mul[mul[lam][lam]], mul[mul[mul[lam][lam]][lam]])
              for lam in range(1, n)]
    orbit: set[tuple] = set()
    for *_, base in bases:
        if base in orbit:
            continue
        p, q, a, b, c, d = base
        orbit.update((m3[p], m2[q], m2[a], m1[b], m2[c], m1[d]) for m1, m2, m3 in scales)
    return orbit, (n - 1) * len(bases), sum(1 for _ in _landings(t, bases, params))


def sform_witness(t: FieldTables, m, target):
    """The lexicographically least X codes carrying the algebra with
    structure codes m onto the S-form with (p, q, a, b, c, d) codes
    `target`, or None: at most one scaling per line through 0 for almost
    every m, so a call costs O(q)."""
    return min(_landings(t, straight_bases(t, m), target), default=None)


def are_isomorphic(A: StructureMatrix, A2: StructureMatrix):
    """Lexicographically least X in GL2 carrying A onto A2, or None.

    When A2 is an S-form the pair is decided by `sform_witness`: q + 1
    rewrites of A and, for almost every rewrite, at most one scaling.
    Any other A2 is searched for over all of GL2."""
    if A.field != A2.field:
        raise FieldMismatchError("can only compare algebras over one field")
    t = A.field.tables()
    src = A.codes()
    target = A2.codes()
    if target[:2] == (0, 1):
        found = sform_witness(t, src, target[2:])
    else:
        found = next((X for X in gl2_lifted(A.field)
                      if apply_transform_codes(t, src, *X) == target), None)
    return None if found is None else Transform.from_codes(A.field, found)
