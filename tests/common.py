"""Shared test helpers: element shortcuts, a scan that must not start,
and the catalog of closed-form isomorphism witnesses between
parametrized S-form families."""

from endoclass import (RelationId, SParams, Transform, field_from_spec,
                       is_square, related)

SMALL_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16", "F17"]


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
