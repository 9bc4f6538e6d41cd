"""Shared test helpers: element shortcuts, a scan that must not start,
reference implementations that the library's kernels are checked
against (the definitional product and endo-commutativity check, the
4x4 lift algebra, the straight-rewrite kernel written through
`_product`, the type-II1 strata of the scan), and the catalog of
closed-form isomorphism witnesses between parametrized S-form
families."""

from typing import NamedTuple

from endoclass import (AlgebraType, FieldMismatchError, LiftedTransform, RelationId,
                       SingularTransformError, SParams, Transform, field_from_spec,
                       is_endo_commutative_straight, is_square, related)
from endoclass.algebra import _gauss_jordan, _product, pattern_type, straight_rewrite
from endoclass.classify import _by_stratum, _scan
from endoclass.fields import MAX_ORDER, MAX_PRIME, FieldElement, _is_prime

SMALL_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16", "F17"]
PRIMES = [p for p in range(2, MAX_PRIME + 1) if _is_prime(p)]
# the (p, k) of every prime-power shorthand, F4 to F256
SHORTHANDS = [(p, k) for p in PRIMES for k in range(2, 9) if p**k <= MAX_ORDER]
# every supported finite field by its shorthand, F2 to F256
FINITE_SPECS = [f"F{n}" for n in sorted(PRIMES + [p**k for p, k in SHORTHANDS])]
# presentations by a modulus that is not the shorthand's
OTHER_MODULI = ["F5^1/x+2", "F2^4/x^4+x^3+x^2+x+1", "F3^2/x^2+2x+2"]


def F(spec):
    return field_from_spec(spec)


def el(field, v):
    """Field element from an int, an element string, or an element."""
    if isinstance(v, int):
        return field.from_int(v)
    if isinstance(v, str):
        return field.parse(v)
    return v


def sp(field, *vals):
    return SParams(*(el(field, v) for v in vals))


def tr(field, *vals):
    return Transform(*(el(field, v) for v in vals))


def units(field):
    return [e for e in field.elements() if e]


def random_element(field, rng):
    """A seeded random element; of small height over Q and F2(X)."""
    if field.spec_string() == "Q":
        return field.parse(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")
    if field.spec_string() == "F2(X)":
        return field.from_polys(rng.randrange(32), rng.randrange(1, 32))
    return field.element_of_code(rng.randrange(field.order()))


def random_transform(field, rng):
    """A seeded random element of GL2 over a finite field."""
    q = field.order()
    while True:
        x, y, z, w = (field.element_of_code(rng.randrange(q)) for _ in range(4))
        if x * w != y * z:
            return Transform(x, y, z, w)


# ---------------------------------------------------------------------------
# the definitional product and endo-commutativity
# ---------------------------------------------------------------------------

class AlgebraElement(NamedTuple):
    """u*e + v*f."""

    u: FieldElement
    v: FieldElement


def element(field, u, v):
    u = u if isinstance(u, FieldElement) else field.from_int(u)
    v = v if isinstance(v, FieldElement) else field.from_int(v)
    return AlgebraElement(u, v)


def basis(field):
    """The distinguished basis (e, f)."""
    zero, one = field.zero(), field.one()
    return AlgebraElement(one, zero), AlgebraElement(zero, one)


def multiply(A, x, y):
    """Bilinear product of x and y in the algebra defined by the
    structure matrix A, over FieldElements."""
    for entry in (x.u, x.v, y.u, y.v):
        if entry.field != A.field:
            raise FieldMismatchError("algebra elements must lie in the matrix's field")
    (r1e, r1f), (r2e, r2f), (r3e, r3f), (r4e, r4f) = A.rows
    uu, vv, uv, vu = x.u * y.u, x.v * y.v, x.u * y.v, x.v * y.u
    return AlgebraElement(uu * r1e + vv * r2e + uv * r3e + vu * r4e,
                          uu * r1f + vv * r2f + uv * r3f + vu * r4f)


def _ec_definitional_codes(t, m):
    """x^2 y^2 = (x y)^2 for every pair of points x, y."""
    points = [(u, v) for u in range(t.q) for v in range(t.q)]
    squares = {x: _product(t, m, x, x) for x in points}
    return all(squares[_product(t, m, x, y)] == _product(t, m, squares[x], squares[y])
               for x in points for y in points)


def is_endo_commutative_definitional(A):
    """Exhaustive check of x^2 y^2 = (x y)^2 over all q^4 element pairs
    of the structure matrix A, on codes (finite fields only)."""
    return _ec_definitional_codes(A.field.tables(), A.codes())


def is_type(S, tp):
    """S is an endo-commutative S-form of type bucket tp."""
    return is_endo_commutative_straight(S) and pattern_type(S) is tp


# ---------------------------------------------------------------------------
# the 4x4 lift algebra
# ---------------------------------------------------------------------------

def lifted_identity(field):
    one, zero = field.one(), field.zero()
    return LiftedTransform(field, tuple(tuple(one if i == j else zero for j in range(4))
                                        for i in range(4)))


def lifted_product(L, M):
    """The matrix product L M of two lifts over one field."""
    if M.field != L.field:
        raise FieldMismatchError("cannot compose lifts over different fields")
    a, b = L.entries, M.entries
    return LiftedTransform(L.field, tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, 4)), a[i][0] * b[0][j])
              for j in range(4))
        for i in range(4)))


def lifted_inverse(L):
    """The inverse of a 4x4 lift by Gauss-Jordan elimination over the field."""
    one, zero = L.field.one(), L.field.zero()
    aug = [list(row) + [one if j == i else zero for j in range(4)]
           for i, row in enumerate(L.entries)]
    if _gauss_jordan(aug, 4) < 4:
        raise SingularTransformError("lifted matrix is singular")
    return LiftedTransform(L.field, tuple(tuple(row[4:]) for row in aug))


# ---------------------------------------------------------------------------
# the type-II1 strata
# ---------------------------------------------------------------------------

def scan_strata(field):
    """The type-II1 S-forms of the direct scan, split by `_by_stratum`."""
    return _by_stratum([SParams.from_codes(field, codes)
                        for codes in _scan(field, (AlgebraType.II_1,))])


def _poly_from_code(code, p, length):
    """The first `length` base-p digits of code, little-endian: the
    coefficient tuple of the element with that code."""
    digits = []
    for _ in range(length):
        code, r = divmod(code, p)
        digits.append(r)
    return tuple(digits)


def poly_mul(a, b, p):
    """The product of two little-endian coefficient tuples over F_p."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def straight_rewrite_reference(t, m, u, v):
    """`algebra.straight_rewrite` as it read through `_product`: x*x,
    x^2*x^2 as two products, x*x^2 and x^2*x sharing their e*e and f*f
    terms, and a closure that reads old coordinates in the basis
    {x, x^2}.  The kernel expands these products in place."""
    add, mul, inv = t.add, t.mul, t.inv
    r1e, r1f, r2e, r2f, r3e, r3f, r4e, r4f = m
    s, s2 = _product(t, m, (u, v), (u, v))
    nv, ns = t.neg[v], t.neg[s]
    det = add[mul[u][s2]][mul[nv][s]]
    if not det:
        return None
    di = inv[det]

    def coords(ce, cf):
        return (mul[add[mul[ce][s2]][mul[cf][ns]]][di],
                mul[add[mul[u][cf]][mul[nv][ce]]][di])

    p_, q_ = coords(*_product(t, m, (s, s2), (s, s2)))
    us, vs2, us2, vs = mul[u][s], mul[v][s2], mul[u][s2], mul[v][s]
    se = add[mul[us][r1e]][mul[vs2][r2e]]
    sf = add[mul[us][r1f]][mul[vs2][r2f]]
    a_, b_ = coords(add[se][add[mul[us2][r3e]][mul[vs][r4e]]],
                    add[sf][add[mul[us2][r3f]][mul[vs][r4f]]])
    c_, d_ = coords(add[se][add[mul[vs][r3e]][mul[us2][r4e]]],
                    add[sf][add[mul[vs][r3f]][mul[us2][r4f]]])
    return (mul[s2][di], mul[nv][di], mul[ns][di], mul[u][di],
            (p_, q_, a_, b_, c_, d_))


def line_points(q):
    """The first point of each line through 0, in `straight_bases` order."""
    return [(1, 0), (0, 1)] + [(u, 1) for u in range(1, q)]


def kernel_mismatch(t, m, points):
    """The first point (u, v) of `points` on which `straight_rewrite` and
    `straight_rewrite_reference` differ for structure codes m, or None."""
    return next(((u, v) for u, v in points
                 if straight_rewrite(t, m, u, v) != straight_rewrite_reference(t, m, u, v)),
                None)


def random_structure_codes(t, rng):
    """Seeded structure codes over the field of tables t: arbitrary
    8-tuples, most of them not endo-commutative, and algebras with
    det = 0 lines: curled ones (det = 0 on every line), the zero algebra,
    and e*e = e, f*f = f, where x^2 = (u^2, v^2) gives det = 0 on the
    lines of e, f and e + f only."""
    q, add, neg = t.q, t.add, t.neg
    out = [tuple(rng.randrange(q) for _ in range(8)) for _ in range(12)]
    for _ in range(3):
        # x^2 = (alpha u + beta v) x: e*e = alpha e, f*f = beta f, e*f + f*e = beta e + alpha f
        alpha, beta, r, s = (rng.randrange(q) for _ in range(4))
        out.append((alpha, 0, 0, beta, r, s, add[beta][neg[r]], add[alpha][neg[s]]))
    out += [(0,) * 8, (1, 0, 0, 1, 0, 0, 0, 0)]
    return out


class ScanStarted(Exception):
    """Raised at the first tuple a scan visits under `forbid_scan`."""


def forbid_scan(monkeypatch):
    """Make every scan raise ScanStarted at its first tuple: an admitted
    field shows at once, and a missed size guard fails instead of
    scanning for hours."""
    import endoclass.classify as classify

    def started(*codes):
        raise ScanStarted
    monkeypatch.setattr(classify, "_ec_straight_codes", started)


# ---------------------------------------------------------------------------
# closed-form witness catalog
#
# Each entry yields (lhs, rhs, X) triples over the given field where X is
# asserted to carry lhs onto rhs.  Entries mirror the explicit
# transformation matrices used in the classification arguments.
# ---------------------------------------------------------------------------

def wit_sub1_disc_zero_to_base(field):
    """S(0,a,a,0,-a,d) with 4a = d^2  ->  S(0,1,1,0,-1,2) via ((1,(d-2)/2),(0,a))."""
    two = field.from_int(2)
    four = field.from_int(4)
    for a in units(field):
        for d in units(field):
            if four * a != d * d:
                continue
            yield (SParams(field.zero(), a, a, field.zero(), -a, d),
                   sp(field, 0, 1, 1, 0, -1, 2),
                   Transform(field.one(), (d - two) / two, field.zero(), a))


def wit_sub1_same_disc(field):
    """Same nonzero 4a - d^2 stratum via ((1,(d-d')/2a'),(0,a/a'))."""
    four = field.from_int(4)
    two = field.from_int(2)
    for a in units(field):
        for d in units(field):
            t = four * a - d * d
            if not t:
                continue
            for a2 in units(field):
                for d2 in units(field):
                    if four * a2 - d2 * d2 != t:
                        continue
                    yield (SParams(field.zero(), a, a, field.zero(), -a, d),
                           SParams(field.zero(), a2, a2, field.zero(), -a2, d2),
                           Transform(field.one(), (d - d2) / (two * a2),
                                     field.zero(), a / a2))


def wit_sub1_alpha_shift(field):
    """S(0,(t0+1)/4,...,1) -> S(0,(α²-1)/4,...,α) with t0 = -α², via ((α,-2),(0,-1))."""
    one = field.one()
    quarter = field.from_int(4).inverse()
    for alpha in units(field):
        if alpha == one or alpha == -one:
            continue
        t0 = -(alpha * alpha)
        a = (t0 + one) * quarter
        a2 = (alpha * alpha - one) * quarter
        yield (SParams(field.zero(), a, a, field.zero(), -a, one),
               SParams(field.zero(), a2, a2, field.zero(), -a2, alpha),
               Transform(alpha, field.from_int(-2), field.zero(), -one))


def wit_sub1_sign_scale(field):
    """S(0,εa,a,0,δa,0) -> S(0,εa',a',0,δa',0) when a/a' is a square."""
    for a in units(field):
        for a2 in units(field):
            ok, x0 = is_square(field, a / a2)
            if not ok:
                continue
            for eps in (1, -1):
                for delta in (1, -1):
                    e, dl = field.from_int(eps), field.from_int(delta)
                    yield (SParams(field.zero(), e * a, a, field.zero(), dl * a, field.zero()),
                           SParams(field.zero(), e * a2, a2, field.zero(), dl * a2, field.zero()),
                           Transform(x0, field.zero(), field.zero(), a / a2))


def wit_sub1_to_sub3_bridge(field):
    """S(0,(t+1)/4,(t+1)/4,0,-(t+1)/4,1) -> S(0,t,t,0,-t,0)
    via ((1/2, 1/2t), (0, (1+t)/4t))."""
    one = field.one()
    two = field.from_int(2)
    four = field.from_int(4)
    quarter = four.inverse()
    for t in units(field):
        if t == -one:
            continue
        a = (t + one) * quarter
        yield (SParams(field.zero(), a, a, field.zero(), -a, one),
               SParams(field.zero(), t, t, field.zero(), -t, field.zero()),
               Transform(two.inverse(), (two * t).inverse(),
                         field.zero(), (one + t) / (four * t)))


def wit_sub3_to_normal(field):
    """S(0,-a,a,b,-a,0) -> S(0,-t,t,t,-t,0) with t = b²/a via ((b/t,0),(0,a/t))."""
    for a in units(field):
        for b in units(field):
            t = b * b / a
            yield (SParams(field.zero(), -a, a, b, -a, field.zero()),
                   SParams(field.zero(), -t, t, t, -t, field.zero()),
                   Transform(b / t, field.zero(), field.zero(), a / t))


def wit_sub3_related(field):
    """Related sub-3 normal forms: t ~5 t' via ((tα/t', t(α-1)/2t'), (0, t/t'))."""
    one = field.one()
    two = field.from_int(2)
    four = field.from_int(4)
    minus4 = -four
    for t in units(field):
        if t == minus4:
            continue
        for t2 in units(field):
            if t2 == minus4:
                continue
            ok, alpha = is_square(field, (t2 * (four + t)) / (t * (four + t2)))
            if not ok:
                continue
            yield (SParams(field.zero(), -t, t, t, -t, field.zero()),
                   SParams(field.zero(), -t2, t2, t2, -t2, field.zero()),
                   Transform(t * alpha / t2, t * (alpha - one) / (two * t2),
                             field.zero(), t / t2))


def wit_sub1_family_to_sub3(field):
    """S(0,-t,t,0,-t,0) -> S(0,-t',t',t',-t',0) when t / (t'(4+t')) is a
    square α², via ((2α, α), (0, t/t'))."""
    four = field.from_int(4)
    two = field.from_int(2)
    minus4 = -four
    for t2 in units(field):
        if t2 == minus4:
            continue
        for t in units(field):
            ok, alpha = is_square(field, t / (t2 * (four + t2)))
            if not ok:
                continue
            yield (SParams(field.zero(), -t, t, field.zero(), -t, field.zero()),
                   SParams(field.zero(), -t2, t2, t2, -t2, field.zero()),
                   Transform(two * alpha, alpha, field.zero(), t / t2))


def wit_sub4_to_normal(field):
    """Char != 2 subclass 4 to its normal form S_t, t = d/b, via ((b,0),(0,b²))."""
    one = field.one()
    quarter = field.from_int(4).inverse()
    for b in units(field):
        for d in units(field):
            if d == b or d == -b:
                continue
            a = (d * d - b * b) * quarter
            t = d / b
            tt = t * t
            yield (SParams(field.zero(), (b + d) * (b + d) * quarter, a, b, -a, d),
                   SParams(field.zero(), (one + t) * (one + t) * quarter,
                           (tt - one) * quarter, one, (one - tt) * quarter, t),
                   Transform(b, field.zero(), field.zero(), b * b))


CHAR_NOT2_CATALOG = (
    ("sub1 square-discriminant-zero to base", wit_sub1_disc_zero_to_base),
    ("sub1 equal nonzero discriminant", wit_sub1_same_disc),
    ("sub1 alpha shift", wit_sub1_alpha_shift),
    ("sub1 sign/scale family", wit_sub1_sign_scale),
    ("sub1 bridge into sub3 normal forms", wit_sub1_to_sub3_bridge),
    ("sub3 to normal form", wit_sub3_to_normal),
    ("sub3 related normal forms", wit_sub3_related),
    ("sub1 family absorbed into sub3", wit_sub1_family_to_sub3),
    ("sub4 to normal form", wit_sub4_to_normal),
)


def wit_c2_sub1_to_normal(field):
    """Char 2: S(0,a,a,0,a,d) -> S(0,t,t,0,t,1), t = a/d², via ((d,0),(0,a/t))."""
    one = field.one()
    for a in units(field):
        for d in units(field):
            t = a / (d * d)
            yield (SParams(field.zero(), a, a, field.zero(), a, d),
                   SParams(field.zero(), t, t, field.zero(), t, one),
                   Transform(d, field.zero(), field.zero(), a / t))


def wit_c2_sub1_related(field):
    """Char 2: t ~2 t' normal forms via ((1, α/t'), (0, t/t'))."""
    one = field.one()
    for t in units(field):
        for t2 in units(field):
            ok, alpha = related(RelationId.SIM2, field, t, t2)
            if not ok:
                continue
            yield (SParams(field.zero(), t, t, field.zero(), t, one),
                   SParams(field.zero(), t2, t2, field.zero(), t2, one),
                   Transform(one, alpha / t2, field.zero(), t / t2))


def wit_c2_sub12_related(field):
    """Char 2: a ~3 a' forms S(0,a,a,0,a,0) via ((x0, y0/a'), (0, a/a'))."""
    for a in units(field):
        for a2 in units(field):
            ok, wit = related(RelationId.SIM3, field, a, a2)
            if not ok:
                continue
            x0, y0 = wit
            yield (SParams(field.zero(), a, a, field.zero(), a, field.zero()),
                   SParams(field.zero(), a2, a2, field.zero(), a2, field.zero()),
                   Transform(x0, y0 / a2, field.zero(), a / a2))


def wit_c2_sub3_related(field):
    """Char 2: t ~4 t' forms S(0,t,t,t,t,0) via ((t/t', tα/t'), (0, t/t'))."""
    for t in units(field):
        for t2 in units(field):
            ok, alpha = related(RelationId.SIM4, field, t, t2)
            if not ok:
                continue
            yield (SParams(field.zero(), t, t, t, t, field.zero()),
                   SParams(field.zero(), t2, t2, t2, t2, field.zero()),
                   Transform(t / t2, t * alpha / t2, field.zero(), t / t2))


def wit_c2_sub4_to_normal(field):
    """Char 2 subclass 4 to its normal form, t = q/a, via ((b,0),(0,a(1+t²)/t))."""
    one = field.one()
    for q in units(field):
        for a in units(field):
            for b in units(field):
                if q * q + a * a + q * b * b:
                    continue
                t = q / a
                den_inv = (one + t * t).inverse()
                yield (SParams(field.zero(), q, a, b, a, b),
                       SParams(field.zero(), t * t * den_inv, t * den_inv, one,
                               t * den_inv, one),
                       Transform(b, field.zero(), field.zero(),
                                 a * (one + t * t) / t))


CHAR2_CATALOG = (
    ("char2 sub1 to normal form", wit_c2_sub1_to_normal),
    ("char2 sub1 related normal forms", wit_c2_sub1_related),
    ("char2 sub1/2 related forms", wit_c2_sub12_related),
    ("char2 sub3 related normal forms", wit_c2_sub3_related),
    ("char2 sub4 to normal form", wit_c2_sub4_to_normal),
)
