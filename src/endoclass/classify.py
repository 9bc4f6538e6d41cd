"""Exhaustive classification of type-II1 endo-commutative straight algebras.

The pipeline over a finite field K:

  1. scan all S(0, q, a, b, c, d) with a, c != 0 through the closed-form
     endo-commutativity system (q^3 (q-1)^2 tuples, integer-coded),
  2. partition the survivors into isomorphism classes by the orbit of
     the enumeration-least unassigned member (an isomorphism onto an
     S-form is fixed by where it sends x; one x per projective point is
     rewritten and its q - 1 multiples follow by scaling), checking
     orbit-stabilizer counts on the way; the orbits are plain sets of
     codes, and no witness is built for a member,
  3. build the predicted family catalog (two shapes for characteristic
     != 2, two for characteristic 2, each parametrized by complete
     representative systems of the relations in `equiv`),
  4. verify that catalog and partition match member for member, and
     solve for one witness per matched predicted member.

One scan serves every type bucket: a type fixes which of p, a and c
are zero, so each bucket visits q^3 tuples times q - 1 per nonzero
coordinate, and none for I.001 and I.010, which equation E3 rules out.
The scan refuses a field on which it would visit more than
MAX_SCAN_TUPLES tuples, so the admitted fields follow from that one
number (type II1 and `verify`: q <= 49; III: q <= 25; I: q <= 128).

The subclass inventory cross-validates the closed form of the four
(b, q, d)-strata against the direct scan: `_ii1_closed_form` writes the
whole type-II1 set on codes in O(q^2) steps over every finite field,
and the scan visits q^3 (q-1)^2 tuples under the guard.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .algebra import (SParams, _TYPE_BY_PATTERN, _ec_straight_codes, _ii1_stratum,
                      is_endo_commutative_straight, pattern_type, AlgebraType)
from .equiv import RelationId, rep_system
from .fields import Field, FieldElement, FieldTables
from .iso import Transform, sform_orbit, sform_witness

# the type-II1 scan over F49, about 73 s at 270-290 ns per tuple
MAX_SCAN_TUPLES = 49**3 * 48**2

_TYPE_ALIASES = {
    "I": (AlgebraType.I_001, AlgebraType.I_010, AlgebraType.I_100),
    **{tp.value: (tp,) for tp in AlgebraType if tp is not AlgebraType.NOT_RANK_2},
}


class OversizedFieldError(ValueError):
    """The scan would visit more tuples than the size guard admits."""


def _scan(field: Field, types) -> list[tuple[int, ...]]:
    """Codes of the endo-commutative S(p, q, a, b, c, d) whose type is in
    `types`, in lexicographic order.

    Each type's (p, a, c) pattern restricts those coordinates to the
    zero code or to the nonzero codes.  Refused before any work when the
    tuples to visit exceed MAX_SCAN_TUPLES.
    """
    t = field.tables()  # raises InfiniteFieldError
    q = t.q
    # with p = 0, E3 (pd + c^2 = pb + a^2) reads a^2 = c^2: a and c vanish
    # together, so the patterns of I.001 and I.010 hold no algebra
    patterns = [pat for pat, tp in _TYPE_BY_PATTERN.items()
                if tp in types and (pat[0] or pat[1] == pat[2])]
    visits = sum(q**3 * (q - 1) ** sum(pat) for pat in patterns)
    if visits > MAX_SCAN_TUPLES:
        raise OversizedFieldError(
            f"the type-{'/'.join(tp.value for tp in types)} scan over {field.spec_string()} "
            f"would visit {visits:,} tuples, more than the guard of {MAX_SCAN_TUPLES:,}")
    full = range(q)
    out = []
    for p_nz, a_nz, c_nz in patterns:
        ps, as_, cs = (range(1, q) if nz else range(1) for nz in (p_nz, a_nz, c_nz))
        for pc, qc, ac, bc, cc, dc in product(ps, full, as_, full, cs, full):
            if _ec_straight_codes(t, pc, qc, ac, bc, cc, dc):
                out.append((pc, qc, ac, bc, cc, dc))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# type-II1 enumeration and subclass inventory
# ---------------------------------------------------------------------------

def enumerate_type_ii1(field: Field) -> list[SParams]:
    """All endo-commutative S(0, q, a, b, c, d) with a, c != 0, in
    lexicographic (q, a, b, c, d) code order."""
    return [SParams.from_codes(field, codes) for codes in _scan(field, (AlgebraType.II_1,))]


class SubclassInventory(NamedTuple):
    """The four (b, q, d)-strata of the type-II1 family, produced twice:
    from the closed-form parametrizations and from the direct scan."""

    field: Field
    closed_form: dict[int, list[SParams]]
    direct_scan: dict[int, list[SParams]]
    scan_all: list[SParams]


def _ii1_closed_form(t: FieldTables) -> list[tuple[int, ...]]:
    """Codes of every endo-commutative type-II1 S-form, sorted and free of
    duplicates, from the closed form of its four (b, q, d)-strata: O(q^2).

    With p = 0 and a, c != 0 the five equations of `_ec_straight_codes`
    read
      E1: ab(a + c) = 0,              E2: q(a + c)(b - d) = 0,
      E3: a^2 = c^2,                  E4: q^2 = a^2 + qb^2 + ab^2 + abd,
      E5: q(d - b) = ab - cd.
    E3 gives c = +-a.  For c = a != -a (odd characteristic), E1 forces
    b = 0, E4 gives q = +-a, and E2, with q != 0, forces d = 0.  For
    c = -a, E1 and E2 hold, E5 reads q(d - b) = a(b + d), and:
      - b = 0 (stratum 1): E4 gives q = +-a and E5 gives d(q - a) = 0,
        so q = a with any d, or q = -a with d = 0.  With the c = a
        solutions: (0, a, a, 0, -a, d) for every d, and
        (0, eps a, a, 0, delta a, 0) for eps, delta = +-1;
      - b != 0, q = 0 (stratum 2): E5 gives a(b + d) = 0, so d = -b,
        and then E4 reads a^2 = 0: empty;
      - b, q != 0, d = 0 (stratum 3): E5 gives q = -a, and E4 then
        holds: (0, -a, a, b, -a, 0);
      - b, q, d != 0 (stratum 4), odd characteristic: d = b or d = -b
        makes E5 give 2ab = 0 or 2bq = 0, so d != +-b and q = ak with
        k = (b + d)/(d - b).  E4 becomes a(k^2 - 1) = b^2(k + 1) + bd,
        and k^2 - 1 = 4bd/(d - b)^2 != 0, so a = (d^2 - b^2)/4 and
        q = (b + d)^2/4: (0, (b+d)^2/4, (d^2-b^2)/4, b, -(d^2-b^2)/4, d);
      - b, q, d != 0, characteristic 2: E5 reads (q + a)(b + d) = 0, and
        q = a turns E4 into abd = 0, so d = b, q != a and E4 reads
        a^2 = q(q + b^2).  Squaring is one-to-one, so a is the square
        root of q(q + b^2), nonzero exactly when q != b^2:
        (0, q, a, b, a, b).
    """
    n, add, mul, neg = t.q, t.add, t.mul, t.neg
    units = range(1, n)
    signs = {1, neg[1]}
    out = {(0, a, a, 0, neg[a], d) for a in units for d in range(n)}
    out.update((0, mul[eps][a], a, 0, mul[delta][a], 0)
               for a in units for eps in signs for delta in signs)
    out.update((0, neg[a], a, b, neg[a], 0) for a in units for b in units)
    if t.p == 2:
        for b in units:
            bb = mul[b][b]
            for q in units:
                a = t.square_root(mul[q][add[q][bb]])
                if a:
                    out.add((0, q, a, b, a, b))
    else:
        quarter = t.inv[add[add[1][1]][add[1][1]]]
        for b in units:
            for d in units:
                if d != b and d != neg[b]:
                    a = mul[add[mul[d][d]][neg[mul[b][b]]]][quarter]
                    s = add[b][d]
                    out.add((0, mul[mul[s][s]][quarter], a, b, neg[a], d))
    return sorted(out)


def _by_stratum(algebras) -> dict[int, list[SParams]]:
    """Type-II1 S-forms split by their (b, q, d) stratum, in input order."""
    strata: dict[int, list[SParams]] = {1: [], 2: [], 3: [], 4: []}
    for sp in algebras:
        strata[_ii1_stratum(sp)].append(sp)
    return strata


def enumerate_subclasses(field: Field) -> SubclassInventory:
    """Both productions of the four subclasses (closed form and scan)."""
    scan = [SParams.from_codes(field, codes) for codes in _scan(field, (AlgebraType.II_1,))]
    closed = [SParams.from_codes(field, codes) for codes in _ii1_closed_form(field.tables())]
    return SubclassInventory(field, _by_stratum(closed), _by_stratum(scan), scan)


# ---------------------------------------------------------------------------
# isomorphism classes
# ---------------------------------------------------------------------------

class IsoClass(NamedTuple):
    """One isomorphism class: members lists the partitioned algebras in
    its orbit in input order, so the representative, the
    enumeration-least member, is the first.

    generators counts the straight generators of the representative and
    automorphisms those carrying it onto itself; outside lists the
    S-forms of its orbit that are absent from the partitioned list (for
    the type-II1 scan: presentations of other types).
    """

    members: list[SParams]
    member_indices: list[int]
    generators: int
    automorphisms: int
    outside: list[SParams]

    @property
    def representative(self) -> SParams:
        return self.members[0]

    def to_json(self, index: int) -> dict:
        return {"index": index,
                "representative": self.representative.to_json(),
                "size": len(self.members),
                "members": [m.to_json() for m in self.members]}


def iso_classes(algebras) -> list[IsoClass]:
    """Partition S-form algebras into isomorphism classes.

    Each class is the orbit of its enumeration-least member, the seed,
    found by one `sform_orbit` scan of the seed's params.  The seed is
    its class's first member: x = e rewrites it onto itself, and an
    earlier member of its orbit would have put the seed in that
    member's class.  `are_isomorphic(seed, member)` gives the least
    witness of a member on demand.
    """
    algebras = list(algebras)
    if not algebras:
        return []
    field = algebras[0].field
    for sp in algebras:
        if sp.field != field:
            raise ValueError("all algebras must live over one field")
    t = field.tables()
    positions: dict[tuple, list[int]] = {}
    for i, sp in enumerate(algebras):
        positions.setdefault(sp.codes(), []).append(i)

    assigned = [False] * len(algebras)
    out = []
    for i, seed in enumerate(algebras):
        if assigned[i]:
            continue
        orbit, generators, automorphisms = sform_orbit(t, seed.codes())
        hits = sorted(j for params in orbit for j in positions.get(params, ()))
        for j in hits:
            assigned[j] = True
        out.append(IsoClass(
            members=[algebras[j] for j in hits],
            member_indices=hits,
            generators=generators,
            automorphisms=automorphisms,
            outside=[SParams.from_codes(field, params)
                     for params in sorted(orbit) if params not in positions]))
    return out


# ---------------------------------------------------------------------------
# predicted families
# ---------------------------------------------------------------------------

class FamilyLabel(NamedTuple):
    """Which family a predicted class representative comes from."""

    tag: str  # S1..S4 for characteristic != 2, S1'..S4' for characteristic 2
    t: FieldElement | None = None
    eps: int | None = None
    delta: int | None = None

    def _params(self) -> list[tuple[str, FieldElement | int]]:
        """(name, value) of each parameter the label carries, in order."""
        return [(name, v) for name, v in (("t", self.t), ("eps", self.eps), ("delta", self.delta))
                if v is not None]

    def __str__(self):
        parts = [f"{name}={v}" if name == "t" else f"{name}={v:+d}"
                 for name, v in self._params()]
        return self.tag + (f"({', '.join(parts)})" if parts else "")

    def to_json(self) -> dict:
        return {"tag": self.tag, **{name: str(v) if name == "t" else v
                                    for name, v in self._params()}}


def theorem_families(field: Field) -> list[tuple[FamilyLabel, SParams]]:
    """The predicted isomorphism-class representatives over a finite field.

    Characteristic != 2: S(0,1,1,0,-1,2); S(0,4,-4,-4,4,0);
    S(0, eps*t, t, 0, delta*t, 0) for t in a complete representative
    system of sim1 and eps, delta = +-1; and
    S(0, (1+t)^2/4, (t^2-1)/4, 1, (1-t^2)/4, t) for t in K* minus {1,-1}.

    Characteristic 2: S(0,t,t,0,t,1) for t over sim2 representatives;
    S(0,t,t,0,t,0) over sim3; S(0,t,t,t,t,0) over sim4; and
    S(0, t^2/(1+t^2), t/(1+t^2), 1, t/(1+t^2), 1) for t in K* minus {1}.
    """
    elements = field.elements()  # raises InfiniteFieldError on Q and F2(X)
    zero, one = field.zero(), field.one()
    out: list[tuple[FamilyLabel, SParams]] = []
    if field.characteristic() != 2:
        out.append((FamilyLabel("S1"), SParams.from_ints(field, 0, 1, 1, 0, -1, 2)))
        out.append((FamilyLabel("S2"), SParams.from_ints(field, 0, 4, -4, -4, 4, 0)))
        for t in rep_system(RelationId.SIM1, field).representatives:
            for eps in (1, -1):
                for delta in (1, -1):
                    e, dl = field.from_int(eps), field.from_int(delta)
                    out.append((FamilyLabel("S3", t=t, eps=eps, delta=delta),
                                SParams(zero, e * t, t, zero, dl * t, zero)))
        quarter = field.from_int(4).inverse()
        minus_one = -one
        for t in elements:
            if not t or t == one or t == minus_one:
                continue
            tt = t * t
            out.append((FamilyLabel("S4", t=t),
                        SParams(zero, (one + t) * (one + t) * quarter,
                                (tt - one) * quarter, one,
                                (one - tt) * quarter, t)))
    else:
        for t in rep_system(RelationId.SIM2, field).representatives:
            out.append((FamilyLabel("S1'", t=t), SParams(zero, t, t, zero, t, one)))
        for t in rep_system(RelationId.SIM3, field).representatives:
            out.append((FamilyLabel("S2'", t=t), SParams(zero, t, t, zero, t, zero)))
        for t in rep_system(RelationId.SIM4, field).representatives:
            out.append((FamilyLabel("S3'", t=t), SParams(zero, t, t, t, t, zero)))
        for t in elements:
            if not t or t == one:
                continue
            den_inv = (one + t * t).inverse()  # 1+t^2 = (1+t)^2 != 0 since t != 1
            out.append((FamilyLabel("S4'", t=t),
                        SParams(zero, t * t * den_inv, t * den_inv, one,
                                t * den_inv, one)))
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class MatchEntry(NamedTuple):
    label: FamilyLabel
    params: SParams
    class_index: int | None
    witness: Transform | None  # carries the class representative onto params


class ClassificationReport(NamedTuple):
    """Outcome of matching the predicted families against the exhaustive
    isomorphism partition of the type-II1 scan."""

    field: Field
    predicted: list[tuple[FamilyLabel, SParams]]
    classes: list[IsoClass]
    matching: list[MatchEntry]
    failures: list[str]

    @property
    def verdict(self) -> bool:
        return not self.failures

    @property
    def counts(self) -> dict:
        return {"algebras": sum(len(c.members) for c in self.classes),
                "classes": len(self.classes),
                "predicted": len(self.predicted)}

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.spec_string(),
            "verdict": "pass" if self.verdict else "fail",
            "counts": self.counts,
            "predicted": [{"label": label.to_json(), "params": sp.to_json()}
                          for label, sp in self.predicted],
            "classes": [c.to_json(i) for i, c in enumerate(self.classes)],
            "matching": [{"label": m.label.to_json(),
                          "params": m.params.to_json(),
                          "class": m.class_index,
                          "witness": m.witness.to_json() if m.witness else None}
                         for m in self.matching],
            "failures": list(self.failures),
        }

    def summary_text(self) -> str:
        lines = [f"field {self.field.spec_string()}: "
                 f"{self.counts['algebras']} type-II1 algebras, "
                 f"{self.counts['classes']} isomorphism classes, "
                 f"{self.counts['predicted']} predicted families",
                 f"verdict: {'pass' if self.verdict else 'fail'}",
                 "",
                 f"{'family':<28} {'representative':<28} {'size':>4}  witness"]
        by_class = {m.class_index: m for m in self.matching if m.class_index is not None}
        for i, cls in enumerate(self.classes):
            m = by_class.get(i)
            label = str(m.label) if m else "(unmatched)"
            wit = str(m.witness) if m and m.witness else "-"
            lines.append(f"{label:<28} {str(cls.representative):<28} "
                         f"{len(cls.members):>4}  {wit}")
        for f in self.failures:
            lines.append(f"FAIL: {f}")
        return "\n".join(lines)


def verify_classification(field: Field) -> ClassificationReport:
    """Check the predicted families against the brute-force partition.

    Passes iff (a) every predicted member is an endo-commutative
    type-II1 straight algebra, (b) predicted members are pairwise
    non-isomorphic, (c) the exhaustive partition has exactly as many
    classes as predicted members, (d) every class contains exactly
    one predicted member, and (e) every orbit passes the
    orbit-stabilizer check: its S-forms times the automorphisms of the
    representative number its straight generators, and none of its
    type-II1 S-forms is missing from the scan.  (b) is witnessed by the
    exhausted orbit scans underlying (d).
    """
    scan = enumerate_type_ii1(field)  # first: it refuses oversized fields
    failures: list[str] = []
    predicted = theorem_families(field)

    for label, sp in predicted:
        if not is_endo_commutative_straight(sp):
            failures.append(f"predicted {label} = {sp} is not endo-commutative")
        elif pattern_type(sp) is not AlgebraType.II_1:
            failures.append(f"predicted {label} = {sp} is not of type II1")

    classes = iso_classes(scan)

    for ci, cls in enumerate(classes):
        orbit = len(cls.members) + len(cls.outside)
        if orbit * cls.automorphisms != cls.generators:
            failures.append(
                f"orbit-stabilizer check: class {ci} has {orbit} S-forms and "
                f"{cls.automorphisms} automorphisms but {cls.generators} straight generators")
        for sp in cls.outside:
            if pattern_type(sp) is AlgebraType.II_1:
                failures.append(
                    f"orbit-stabilizer check: class {ci} reaches the type-II1 "
                    f"S-form {sp}, which is absent from the scan")

    member_to_class = {sp.codes(): ci for ci, cls in enumerate(classes) for sp in cls.members}

    t = field.tables()
    matching: list[MatchEntry] = []
    seen_class: dict[int, FamilyLabel] = {}
    for label, sp in predicted:
        ci = member_to_class.get(sp.codes())
        if ci is None:
            failures.append(f"predicted {label} = {sp} is absent from the type-II1 scan")
            matching.append(MatchEntry(label, sp, None, None))
            continue
        if ci in seen_class:
            failures.append(
                f"predicted {label} and {seen_class[ci]} fall in the same class {ci}")
        seen_class[ci] = label
        # sp lies in the orbit of the representative, so a witness exists
        xc = sform_witness(t, (0, 1) + classes[ci].representative.codes(), sp.codes())
        matching.append(MatchEntry(label, sp, ci, Transform.from_codes(field, xc)))

    if len(classes) != len(predicted):
        failures.append(
            f"{len(classes)} computed classes vs {len(predicted)} predicted families")
    for ci in range(len(classes)):
        if ci not in seen_class:
            failures.append(
                f"class {ci} (representative {classes[ci].representative}) "
                f"matches no predicted family")

    return ClassificationReport(field, predicted, classes, matching, failures)


# ---------------------------------------------------------------------------
# general type enumeration (CLI support)
# ---------------------------------------------------------------------------

def enumerate_type(field: Field, type_name: str, subclass: int | None = None) -> list[SParams]:
    """Endo-commutative S-forms of one type bucket, in lexicographic code
    order.

    Every bucket runs the same scan over its (p, a, c) pattern, guarded
    by the tuples it visits (II1, II2 and II3: q <= 49; III: q <= 25;
    I and I.100: q <= 128; I.001 and I.010 are empty by E3 and visit
    none).  `subclass` filters II1 by its (b, q, d) stratum.
    """
    if type_name not in _TYPE_ALIASES:
        raise ValueError(f"unknown type {type_name!r}; expected one of {sorted(_TYPE_ALIASES)}")
    if subclass is not None and type_name != "II1":
        raise ValueError("--subclass only applies to type II1")
    if subclass not in (None, 1, 2, 3, 4):
        raise ValueError("subclass must be 1..4")
    if type_name != "II1":
        return [SParams.from_codes(field, codes)
                for codes in _scan(field, _TYPE_ALIASES[type_name])]
    scan = enumerate_type_ii1(field)
    return scan if subclass is None else _by_stratum(scan)[subclass]
