"""Equivalence relations on the nonzero elements of a field.

Five relations drive the classification of type-II1 algebras:

  sim1  (any field)      t ~ t'  iff  t/t' is a nonzero square
  sim2  (char 2)         t ~ t'  iff  t + t' = x^2 + x for some x
  sim3  (char 2)         t ~ t'  iff  t'x^2 + y^2 + t = 0, x != 0
  sim4  (char 2)         t ~ t'  iff  1/t + 1/t' = x^2 + x for some x
  sim5  (char != 2)      t ~ t'  iff  t'(4+t) / (t(4+t')) is a nonzero
                         square; carrier is K* minus {-4}

Decisions come with witnesses: a square root for sim1/sim5, a solution
of x^2 + x = target for sim2/sim4, and a pair (x, y) with
t'x^2 + y^2 + t = 0 for sim3.  Over F2(X), sim3 is decided by the
two-class rule (a reduced fraction is equivalent to X when the product
numerator*denominator has a term of odd degree, to 1 otherwise) with a
witness assembled from the constructive steps; sim2/sim4 over F2(X)
are exposed only as a bounded refutation search.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

from . import gf2x
from .fields import (Field, FieldElement, InfiniteFieldError,
                     RationalFunctionField2, is_square)


class RelationId(Enum):
    SIM1 = "sim1"
    SIM2 = "sim2"
    SIM3 = "sim3"
    SIM4 = "sim4"
    SIM5 = "sim5"


class CarrierError(ValueError):
    """An argument lies outside the relation's carrier."""


class UnsupportedRelation(ValueError):
    """The (relation, field) combination has no decision procedure here."""


def _check_supported(rel: RelationId, field: Field) -> None:
    char = field.characteristic()
    if rel is RelationId.SIM1:
        return
    if rel is RelationId.SIM5:
        if char == 2:
            raise UnsupportedRelation("sim5 needs characteristic != 2")
        return
    # sim2 / sim3 / sim4
    if char != 2:
        raise UnsupportedRelation(f"{rel.value} needs characteristic 2")
    if isinstance(field, RationalFunctionField2):
        if rel is RelationId.SIM3:
            return
        raise UnsupportedRelation(
            f"{rel.value} over F2(X) is undecidable here; use bounded_refutation_search")


def _check_carrier(rel: RelationId, field: Field, t: FieldElement) -> None:
    if t.field != field:
        raise CarrierError("element does not belong to the given field")
    if not t:
        raise CarrierError(f"{rel.value} is a relation on nonzero elements")
    if rel is RelationId.SIM5 and t == -4:
        raise CarrierError("sim5 excludes -4 from its carrier")


def carrier_elements(rel: RelationId, field: Field) -> list[FieldElement]:
    """The relation's carrier in enumeration order (finite fields)."""
    return [el for el in field.elements() if el and not (rel is RelationId.SIM5 and el == -4)]


# ---------------------------------------------------------------------------
# sim3 over F2(X): two classes with constructive witnesses
# ---------------------------------------------------------------------------

def _f2x_sim3_is_x_class(t: FieldElement) -> bool:
    num, den = t.payload
    return gf2x.has_odd_term(gf2x.mul(num, den))


def _sim3_compose(x1, y1, x2, y2):
    # chain t ~ u (via x1,y1) and u ~ v (via x2,y2) into t ~ v
    return x2 * x1, y2 * x1 + y1


def _f2x_sim3_witness_to_rep(field: RationalFunctionField2, t: FieldElement):
    """(x, y) with rep * x^2 + y^2 + t = 0, rep being t's class (1 or X)."""
    num, den = t.payload
    u = gf2x.mul(num, den)
    # t ~ u via x = 1/den, y = 0:  u/den^2 + t = 0
    x1 = field.element((1, den))
    y1 = field.zero()
    odd, even = gf2x.odd_even_split(u)
    if odd:
        # u ~ X via X*s^2 + r^2 + u = 0 where odd = X*s^2 and even = r^2
        x2 = field.element((gf2x.sqrt(odd >> 1), 1))
        y2 = field.element((gf2x.sqrt(even), 1))
    else:
        # u ~ 1 via 1*r^2 + 0 + u = 0
        x2 = field.element((gf2x.sqrt(even), 1))
        y2 = field.zero()
    return _sim3_compose(x1, y1, x2, y2)


def _f2x_sim3_related(field, t, t2):
    in_x = _f2x_sim3_is_x_class(t)
    if in_x != _f2x_sim3_is_x_class(t2):
        return False, None
    xa, ya = _f2x_sim3_witness_to_rep(field, t)
    xb, yb = _f2x_sim3_witness_to_rep(field, t2)
    # invert t2 ~ rep into rep ~ t2, then chain through the representative
    xs, ys = xb.inverse(), yb / xb
    x, y = _sim3_compose(xa, ya, xs, ys)
    return True, (x, y)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def related(rel: RelationId, field: Field, t: FieldElement, t2: FieldElement):
    """Decide t ~ t', returning (bool, witness or None).  Over a finite
    field: on codes, in one pass over them at most."""
    _check_supported(rel, field)
    _check_carrier(rel, field, t)
    _check_carrier(rel, field, t2)
    if not field.is_finite:
        if rel is RelationId.SIM1:
            return is_square(field, t / t2)
        if rel is RelationId.SIM5:
            four = field.from_int(4)
            return is_square(field, (t2 * (four + t)) / (t * (four + t2)))
        return _f2x_sim3_related(field, t, t2)  # the one case left: sim3 over F2(X)

    tables, t, t2 = field.tables(), t.payload, t2.payload
    add, mul, inv = tables.add, tables.mul, tables.inv
    if rel in (RelationId.SIM2, RelationId.SIM4):
        target = add[t][t2] if rel is RelationId.SIM2 else add[inv[t]][inv[t2]]
        for x, square in enumerate(tables.square):
            if add[square][x] == target:
                return True, field.element(x)
        return False, None
    if rel is RelationId.SIM5:  # t ~ t' iff t'(4+t) / (t(4+t')) is a square
        four = field._from_int_payload(4)
        t, t2 = mul[t2][add[four][t]], mul[t][add[four][t2]]
    root = tables.square_root(mul[t][inv[t2]])
    if root is None:
        return False, None
    if rel is RelationId.SIM3:
        # characteristic 2: squaring is bijective, so t/t' always has a root
        return True, (field.element(root), field.zero())
    return True, field.element(root)


# ---------------------------------------------------------------------------
# complete representative systems
# ---------------------------------------------------------------------------

class RepSystem(NamedTuple):
    """A complete representative system for one relation over one field.

    `representatives` holds exactly one element per equivalence class,
    chosen greedily in enumeration order.  For finite fields the full
    class map `assign` is materialized, from each carrier code to the
    code of its representative; for F2(X)/sim3 the function `rule` maps
    an element to its representative.
    """

    relation: RelationId
    field: Field
    representatives: tuple[FieldElement, ...]
    assign: Optional[dict[int, int]] = None
    rule: Optional[Callable] = None

    def __repr__(self):  # the class map and the rule stay out of it
        return (f"RepSystem(relation={self.relation!r}, field={self.field!r}, "
                f"representatives={self.representatives!r})")

    def representative_of(self, t: FieldElement) -> FieldElement:
        if self.assign is not None:
            rep = self.assign.get(t.payload) if t.field == self.field else None
            if rep is None:
                raise CarrierError(f"{t} is not in the carrier")
            return self.field.element(rep)
        if not t:
            raise CarrierError("0 is not in the carrier")
        return self.rule(t)

    def classes(self) -> dict[FieldElement, list[FieldElement]]:
        return self._classes(self.field.element)

    def _classes(self, decode) -> dict:
        """Each representative's class in enumeration order, decoded."""
        if self.assign is None:
            raise InfiniteFieldError("class lists exist only over finite fields")
        out = {decode(rep.payload): [] for rep in self.representatives}
        for code, rep in self.assign.items():
            out[decode(rep)].append(decode(code))
        return out

    def to_json(self) -> dict:
        fmt = self.field.format
        obj = {"relation": self.relation.value,
               "field": self.field.spec_string(),
               "representatives": [fmt(r) for r in self.representatives]}
        if self.assign is not None:
            obj["classes"] = self._classes(self.field.element_strings().__getitem__)
        return obj


def _class_test(rel: RelationId, field: Field):
    """(op, g, image) with r ~ t iff op[g[r]][g[t]] is in image, on the
    codes of a finite field.  The image, built in one pass, holds the
    nonzero squares (sim1, sim3, sim5) or the values x^2 + x (sim2, sim4).
    The keys r + t (sim2) and 1/r + 1/t (sim4) are what `related` tests;
    r*t (sim1, sim3) and r(4+r)t(4+t) (sim5) are its r/t and
    t(4+r)/(r(4+t)) times a nonzero square, t^2 or (r(4+t))^2.
    """
    tables = field.tables()
    add, mul, codes = tables.add, tables.mul, range(tables.q)
    if rel in (RelationId.SIM2, RelationId.SIM4):
        image = {add[square][x] for x, square in enumerate(tables.square)}
        return add, (codes if rel is RelationId.SIM2 else tables.inv), image
    image = set(tables.square[1:])
    if rel is RelationId.SIM5:
        four = field._from_int_payload(4)
        return mul, [mul[x][add[four][x]] for x in codes], image
    return mul, codes, image


def rep_system(rel: RelationId, field: Field) -> RepSystem:
    """Greedy partition of the carrier in enumeration order.

    Each element joins the first representative it is related to, or
    becomes a representative itself; each test is one set lookup, so a
    field costs O(q·classes) lookups.
    """
    _check_supported(rel, field)
    if isinstance(field, RationalFunctionField2):
        if rel is not RelationId.SIM3:
            raise InfiniteFieldError(
                f"no representative system for {rel.value} over {field.spec_string()}")
        one = field.one()
        gen_x = field.element((2, 1))
        return RepSystem(rel, field, (one, gen_x),
                         rule=lambda t: gen_x if _f2x_sim3_is_x_class(t) else one)
    op, g, image = _class_test(rel, field)
    # the carrier is every nonzero code but that of -4 under sim5
    excluded = field._from_int_payload(-4) if rel is RelationId.SIM5 else 0
    reps, assign = [], {}  # reps: (code, its row of op)
    for code in range(1, field.order()):
        if code == excluded:
            continue
        key = g[code]
        for rep, row in reps:
            if row[key] in image:
                assign[code] = rep
                break
        else:
            reps.append((code, op[key]))
            assign[code] = code
    return RepSystem(rel, field, tuple(field.element(rep) for rep, _ in reps), assign=assign)


# ---------------------------------------------------------------------------
# bounded refutation search over F2(X)
# ---------------------------------------------------------------------------

# the largest degree bound N accepted by bounded_refutation_search: the
# search tries 2^(N+1) denominators, so its cost doubles with each step
# of N; negative answers at N = 14 took 0.05-0.8 s in measurement, the
# most for targets of degree 4000
MAX_DEGREE_BOUND = 14


def _least_solution(den: int, rhs: int) -> Optional[int]:
    """The least num with num^2 + den*num = rhs in GF(2)[X], or None.

    The map is GF(2)-linear with kernel {0, den}.  With k = deg den, the
    image of X^i has leading term X^(i+k) for i < k and X^(2i) for i > k,
    all distinct, so back substitution from the top finds the one
    solution without the X^k term: the lesser of the pair {num, num + den}.
    Its degree is below k or at most deg(rhs) / 2.
    """
    k = gf2x.deg(den)
    num = 0
    while rhs:
        top = gf2x.deg(rhs)
        if k <= top < 2 * k:
            i = top - k
        elif top > 2 * k and top % 2 == 0:
            i = top // 2
        else:
            return None
        num |= 1 << i
        rhs ^= (1 << (2 * i)) ^ (den << i)
    return num


def bounded_refutation_search(field: Field, rel: RelationId,
                              t: FieldElement, t2: FieldElement,
                              degree_bound: int):
    """Search x = num/den with deg num, deg den <= degree_bound solving
    x^2 + x = t + t' (sim2) or = 1/t + 1/t' (sim4) over F2(X).

    Returns the witness element or None; a None answer is sound only up
    to the bound (the relation may still hold with larger witnesses).
    The witness is the first hit with den ascending, then num ascending.
    For one den, num^2 + den*num = target*den^2 is GF(2)-linear in num,
    so its least solution comes from one back substitution.  A target
    with an odd pole order at infinity is answered at once: x^2 + x has
    an even pole order there (twice that of x) or none, so no x of any
    degree solves it.
    """
    if not isinstance(field, RationalFunctionField2):
        raise UnsupportedRelation("bounded refutation search is specific to F2(X)")
    if rel not in (RelationId.SIM2, RelationId.SIM4):
        raise UnsupportedRelation("bounded refutation search covers sim2 and sim4 only")
    if not t or not t2:
        raise CarrierError(f"{rel.value} is a relation on nonzero elements")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if degree_bound > MAX_DEGREE_BOUND:
        raise ValueError(f"degree bound {degree_bound} exceeds the supported "
                         f"maximum {MAX_DEGREE_BOUND}")

    if rel is RelationId.SIM2:
        target = t + t2
    else:
        target = t.inverse() + t2.inverse()
    tn, td = target.payload
    pole = gf2x.deg(tn) - gf2x.deg(td)
    if pole > 0 and pole % 2:
        return None
    for den in range(1, 1 << (degree_bound + 1)):
        # num^2 + den*num has degree <= 2N: a larger quotient has no solution
        # within the bound, and skipping it keeps huge targets cheap
        if gf2x.deg(tn) + 2 * gf2x.deg(den) - gf2x.deg(td) > 2 * degree_bound:
            continue
        rhs, rem = gf2x.divmod_(gf2x.mul(tn, gf2x.mul(den, den)), td)
        if rem:
            continue
        num = _least_solution(den, rhs)
        if num is not None:
            return field.element(field._reduce(num, den))
    return None
