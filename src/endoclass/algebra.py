"""Structure matrices of 2-dimensional algebras and their basic theory.

A 2-dimensional algebra on a basis {e, f} is determined by the 4x2
structure matrix whose rows give the coordinates of e*e, f*f, e*f and
f*e (in that order).  The straight normal form S(p,q,a,b,c,d) is the
presentation

    e*e = f,  f*f = p e + q f,  e*f = a e + b f,  f*e = c e + d f.

An algebra is endo-commutative when squaring preserves products,
x^2 y^2 = (x y)^2 for all x and y; it is curled when x^2 is always a
scalar multiple of x, and straight otherwise.  The exhaustive checks
below run on integer element codes through the field's lookup tables,
so full scans over q^4 element pairs stay cheap.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .fields import Field, FieldElement, FieldMismatchError, FieldTables, _ElementRecord

ROW_LABELS = ("e*e", "f*f", "e*f", "f*e")


class NotEndoCommutative(ValueError):
    """Raised when an operation defined only on endo-commutative algebras
    receives one that fails the defining identity."""


class AlgebraElement(NamedTuple):
    """u*e + v*f."""

    u: FieldElement
    v: FieldElement


def element(field: Field, u, v) -> AlgebraElement:
    u = u if isinstance(u, FieldElement) else field.from_int(u)
    v = v if isinstance(v, FieldElement) else field.from_int(v)
    return AlgebraElement(u, v)


def basis(field: Field) -> tuple[AlgebraElement, AlgebraElement]:
    """The distinguished basis (e, f)."""
    zero, one = field.zero(), field.one()
    return AlgebraElement(one, zero), AlgebraElement(zero, one)


class StructureMatrix:
    """4x2 matrix of structure constants, rows (e*e, f*f, e*f, f*e)."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 2 for r in rows):
            raise ValueError("a structure matrix needs 4 rows of 2 entries")
        for row in rows:
            for entry in row:
                if not isinstance(entry, FieldElement) or entry.field != field:
                    raise FieldMismatchError("structure matrix entries must lie in the owner field")
        self.field = field
        self.rows = rows

    @classmethod
    def zero(cls, field: Field) -> "StructureMatrix":
        z = field.zero()
        return cls(field, ((z, z),) * 4)

    @classmethod
    def from_ints(cls, field: Field, rows) -> "StructureMatrix":
        return cls(field, tuple(tuple(field.from_int(v) for v in row) for row in rows))

    def __eq__(self, other):
        return (isinstance(other, StructureMatrix)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        rows = ", ".join(f"{lbl}=({r[0]},{r[1]})" for lbl, r in zip(ROW_LABELS, self.rows))
        return f"StructureMatrix[{self.field.spec_string()}: {rows}]"

    def codes(self) -> tuple[int, ...]:
        """Flat 8-tuple of element codes (finite fields only)."""
        enc = self.field.code_of
        return tuple(enc(entry) for row in self.rows for entry in row)

    @classmethod
    def from_codes(cls, field: Field, codes) -> "StructureMatrix":
        dec = field.element_of_code
        it = [dec(c) for c in codes]
        return cls(field, ((it[0], it[1]), (it[2], it[3]), (it[4], it[5]), (it[6], it[7])))

    def to_json(self) -> dict:
        fmt = self.field.format
        return {"field": self.field.spec_string(),
                "rows": [[fmt(entry) for entry in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "StructureMatrix":
        from .fields import field_from_spec
        if field is None:
            field = field_from_spec(obj["field"])
        return cls(field, tuple(tuple(field.parse(s) for s in row) for row in obj["rows"]))


# SParams's fields; a NamedTuple class statement takes no other base
class _SParamsFields(NamedTuple):
    p: FieldElement
    q: FieldElement
    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement


class SParams(_SParamsFields, _ElementRecord):
    """The 6-tuple (p, q, a, b, c, d) of a straight-form algebra."""

    __slots__ = ()

    def astuple(self):
        return tuple(self)

    def to_structure_matrix(self) -> StructureMatrix:
        zero, one = self.field.zero(), self.field.one()
        return StructureMatrix(self.field, ((zero, one), (self.p, self.q),
                                            (self.a, self.b), (self.c, self.d)))

    def __str__(self):
        return "S(" + ", ".join(map(str, self)) + ")"


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def multiply(A: StructureMatrix, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear product of x and y in the algebra defined by A."""
    for el in (x.u, x.v, y.u, y.v):
        if el.field != A.field:
            raise FieldMismatchError("algebra elements must lie in the matrix's field")
    (r1e, r1f), (r2e, r2f), (r3e, r3f), (r4e, r4f) = A.rows
    uu, vv, uv, vu = x.u * y.u, x.v * y.v, x.u * y.v, x.v * y.u
    return AlgebraElement(uu * r1e + vv * r2e + uv * r3e + vu * r4e,
                          uu * r1f + vv * r2f + uv * r3f + vu * r4f)


# ---------------------------------------------------------------------------
# endo-commutativity
# ---------------------------------------------------------------------------

def _square(t: FieldTables, m: tuple[int, ...], u: int, v: int) -> tuple[int, int]:
    """Coordinates of (u e + v f)^2."""
    add, mul = t.add, t.mul
    r1e, r1f, r2e, r2f, r3e, r3f, r4e, r4f = m
    uu, vv, uv = mul[u][u], mul[v][v], mul[u][v]
    return (add[add[mul[uu][r1e]][mul[vv][r2e]]][add[mul[uv][r3e]][mul[uv][r4e]]],
            add[add[mul[uu][r1f]][mul[vv][r2f]]][add[mul[uv][r3f]][mul[uv][r4f]]])


def _product(t: FieldTables, m: tuple[int, ...], x, y) -> tuple[int, int]:
    """Coordinates of x*y for the points x = (u1, v1) and y = (u2, v2)."""
    add, mul = t.add, t.mul
    r1e, r1f, r2e, r2f, r3e, r3f, r4e, r4f = m
    (u1, v1), (u2, v2) = x, y
    uu, vv, uv, vu = mul[u1][u2], mul[v1][v2], mul[u1][v2], mul[v1][u2]
    return (add[add[mul[uu][r1e]][mul[vv][r2e]]][add[mul[uv][r3e]][mul[vu][r4e]]],
            add[add[mul[uu][r1f]][mul[vv][r2f]]][add[mul[uv][r3f]][mul[vu][r4f]]])


def _ec_definitional_codes(t: FieldTables, m: tuple[int, ...]) -> bool:
    """x^2 y^2 = (x y)^2 for every pair of points x, y."""
    points = [(u, v) for u in range(t.q) for v in range(t.q)]
    squares = {x: _product(t, m, x, x) for x in points}
    return all(squares[_product(t, m, x, y)] == _product(t, m, squares[x], squares[y])
               for x in points for y in points)


def is_endo_commutative_definitional(A: StructureMatrix) -> bool:
    """Exhaustive check of x^2 y^2 = (x y)^2 over all q^4 element pairs."""
    return _ec_definitional_codes(A.field.tables(), A.codes())


def is_endo_commutative_straight(S: SParams) -> bool:
    """Closed-form endo-commutativity condition on (p,q,a,b,c,d).

    Works over any supported field; this is the polynomial system
    equivalent to the defining identity for straight-form algebras.
    """
    p, q, a, b, c, d = S
    if p * q + p * c != p * b * b + a * a * b + a * b * c:
        return False
    if p * (c - a) != (b - d) * (p * (b + d) - q * (a + c)):
        return False
    if p * d + c * c != p * b + a * a:
        return False
    if q * q + p * d != a * a + q * b * b + a * b * b + a * b * d:
        return False
    if q * d + c * d != q * b + a * b:
        return False
    return True


def _ec_straight_codes(t: FieldTables, pc, qc, ac, bc, cc, dc) -> bool:
    """Table-driven version of the closed-form condition, for scans: the
    two sides of each equation as `is_endo_commutative_straight` writes
    them, with x - y read as x + (-y)."""
    add, mul, neg = t.add, t.mul, t.neg
    aa = mul[ac][ac]
    ab = mul[ac][bc]
    if add[mul[pc][qc]][mul[pc][cc]] != add[mul[pc][mul[bc][bc]]][add[mul[aa][bc]][mul[ab][cc]]]:
        return False
    if (mul[pc][add[cc][neg[ac]]]
            != mul[add[bc][neg[dc]]][add[mul[pc][add[bc][dc]]][neg[mul[qc][add[ac][cc]]]]]):
        return False
    if add[mul[pc][dc]][mul[cc][cc]] != add[mul[pc][bc]][aa]:
        return False
    bb = mul[bc][bc]
    if add[mul[qc][qc]][mul[pc][dc]] != add[add[aa][mul[qc][bb]]][add[mul[ac][bb]][mul[ab][dc]]]:
        return False
    if add[mul[qc][dc]][mul[cc][dc]] != add[mul[qc][bc]][ab]:
        return False
    return True


# ---------------------------------------------------------------------------
# curled / straight
# ---------------------------------------------------------------------------

def straight_rewrite(t: FieldTables, m: tuple[int, ...], u: int, v: int):
    """The algebra with structure codes m rewritten on the basis {x, x^2}
    for x = u e + v f, as codes (x, y, z, w, params): the transform
    X = ((x, y), (z, w)) carries m onto the S-form whose (p, q, a, b, c, d)
    codes are params.  None when {x, x^2} is not a basis (x = 0 or x^2
    in the span of x).
    """
    add, mul, inv = t.add, t.mul, t.inv
    r1e, r1f, r2e, r2f, r3e, r3f, r4e, r4f = m
    s, s2 = _square(t, m, u, v)
    nv, ns = t.neg[v], t.neg[s]
    det = add[mul[u][s2]][mul[nv][s]]
    if not det:
        return None
    di = inv[det]

    def coords(ce, cf):
        # old coordinates (ce, cf) in the basis {x, x^2}
        return (mul[add[mul[ce][s2]][mul[cf][ns]]][di],
                mul[add[mul[u][cf]][mul[nv][ce]]][di])

    p_, q_ = coords(*_square(t, m, s, s2))  # x^2 * x^2
    # x * x^2 and x^2 * x share their e*e and f*f terms
    us, vs2, us2, vs = mul[u][s], mul[v][s2], mul[u][s2], mul[v][s]
    se = add[mul[us][r1e]][mul[vs2][r2e]]
    sf = add[mul[us][r1f]][mul[vs2][r2f]]
    a_, b_ = coords(add[se][add[mul[us2][r3e]][mul[vs][r4e]]],  # x * x^2
                    add[sf][add[mul[us2][r3f]][mul[vs][r4f]]])
    c_, d_ = coords(add[se][add[mul[vs][r3e]][mul[us2][r4e]]],  # x^2 * x
                    add[sf][add[mul[vs][r3f]][mul[us2][r4f]]])
    # M = ((u, s), (v, s2)) has the new basis x, x^2 as columns;
    # X = (M^-1)^T has the old basis in new coordinates as rows
    return (mul[s2][di], mul[nv][di], mul[ns][di], mul[u][di],
            (p_, q_, a_, b_, c_, d_))


def straight_bases(t: FieldTables, m: tuple[int, ...]):
    """The `straight_rewrite` codes (x, y, z, w, params) of the algebra
    with structure codes m, one per line through 0 on which {x, x^2} is
    a basis: x = u e + v f for (u, v) = (1, 0), (0, 1), then (u, 1) for
    u = 1 .. q-1.

    Whether x works depends only on its line, and a multiple lam*x
    rewrites m onto S(lam^3 p, lam^2 q, lam^2 a, lam b, lam^2 c, lam d)
    by X diag(1/lam, 1/lam^2), so these at most q + 1 rewrites carry
    every straight generator.  Each point is the first of its line in
    the order (u, v) with u cycling fastest.
    """
    for u, v in [(1, 0), (0, 1)] + [(u, 1) for u in range(1, t.q)]:
        rewritten = straight_rewrite(t, m, u, v)
        if rewritten is not None:
            yield rewritten


def is_curled(A: StructureMatrix) -> bool:
    """True iff x^2 lies in the span of x for every element x, that is,
    iff no x gives a straight basis {x, x^2}: at most q + 1 rewrites."""
    return next(straight_bases(A.field.tables(), A.codes()), None) is None


def to_straight_form(A: StructureMatrix):
    """Straight normal form of A: (SParams, basis-change Transform), or
    None when A is curled.

    Takes the first of `straight_bases`: the first straight x among
    e, f, e+f, 2e+f, ....  The returned transform X satisfies
    transform(A, X) == params.to_structure_matrix().
    """
    from .iso import Transform

    for *xc, params in straight_bases(A.field.tables(), A.codes()):
        return SParams.from_codes(A.field, params), Transform.from_codes(A.field, xc)
    return None


# ---------------------------------------------------------------------------
# rank and type taxonomy
# ---------------------------------------------------------------------------

def rank(A: StructureMatrix) -> int:
    """Gaussian-elimination rank of the 4x2 matrix, in {0, 1, 2}."""
    return _gauss_jordan([list(r) for r in A.rows], 2)


def _gauss_jordan(rows, ncols: int) -> int:
    """Bring the first `ncols` columns of `rows` (lists of field elements,
    changed in place) to reduced row echelon form; return the rank."""
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = rows[rk][col].inverse()
        rows[rk] = [v * inv for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[rk])]
        rk += 1
    return rk


class AlgebraType(Enum):
    """Rank-2 taxonomy by the vanishing pattern of (p, a, c)."""

    I_001 = "I.001"
    I_010 = "I.010"
    I_100 = "I.100"
    II_1 = "II1"
    II_2 = "II2"
    II_3 = "II3"
    III = "III"
    NOT_RANK_2 = "not-rank-2"


_TYPE_BY_PATTERN = {
    (False, False, False): AlgebraType.NOT_RANK_2,
    (False, False, True): AlgebraType.I_001,
    (False, True, False): AlgebraType.I_010,
    (True, False, False): AlgebraType.I_100,
    (False, True, True): AlgebraType.II_1,
    (True, False, True): AlgebraType.II_2,
    (True, True, False): AlgebraType.II_3,
    (True, True, True): AlgebraType.III,
}


def type_of(S: SParams) -> AlgebraType:
    """Type bucket of an endo-commutative straight-form algebra.

    Raises NotEndoCommutative on non-EC input: the taxonomy is only
    defined inside the endo-commutative family.
    """
    if not is_endo_commutative_straight(S):
        raise NotEndoCommutative(f"{S} is not endo-commutative")
    return pattern_type(S)


def pattern_type(S: SParams) -> AlgebraType:
    """The type of S read from the zero pattern of (p, a, c), for an
    S-form already known to be endo-commutative."""
    return _TYPE_BY_PATTERN[(bool(S.p), bool(S.a), bool(S.c))]


def ii1_subclass(S: SParams) -> int:
    """Four-way split of type II1 on (b, q, d): 1 if b=0; 2 if b!=0, q=0;
    3 if b,q!=0, d=0; 4 otherwise."""
    if type_of(S) is not AlgebraType.II_1:
        raise ValueError(f"{S} is not of type II1")
    return _ii1_stratum(S)


def _ii1_stratum(S: SParams) -> int:
    """The (b, q, d) rule of `ii1_subclass`, for S already known to be an
    endo-commutative type-II1 S-form."""
    if not S.b:
        return 1
    if not S.q:
        return 2
    if not S.d:
        return 3
    return 4


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

def _combo_str(ce: FieldElement, cf: FieldElement) -> str:
    terms = []
    for coef, sym in ((ce, "e"), (cf, "f")):
        if not coef:
            continue
        cs = str(coef)
        if cs == "1":
            terms.append(sym)
        elif cs == "-1":
            terms.append("-" + sym)
        elif any(ch in cs[1:] for ch in "+-") or "/" in cs:
            terms.append(f"({cs}){sym}")
        else:
            terms.append(f"{cs}{sym}")
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def multiplication_table_text(A: StructureMatrix) -> str:
    """Render the 2x2 multiplication table ((e*e, e*f), (f*e, f*f))."""
    (r1, r2, r3, r4) = A.rows
    tl, tr = _combo_str(*r1), _combo_str(*r3)
    bl, br = _combo_str(*r4), _combo_str(*r2)
    w1, w2 = max(len(tl), len(bl)), max(len(tr), len(br))
    return (f"( {tl.ljust(w1)}  {tr.ljust(w2)} )\n"
            f"( {bl.ljust(w1)}  {br.ljust(w2)} )")
