"""Exhaustive classification of type-II1 endo-commutative straight algebras.

The pipeline over a finite field K:

  1. write every endo-commutative S(0, q, a, b, c, d) with a, c != 0
     from the closed form of its four (b, q, d)-strata
     (`_ii1_closed_form`, O(q^2) steps, integer-coded),
  2. partition them into isomorphism classes by the orbit of
     the enumeration-least unassigned member (an isomorphism onto an
     S-form is fixed by where it sends x; one x per projective point is
     rewritten and its q - 1 multiples follow by scaling), checking
     orbit-stabilizer counts on the way; the orbits are plain sets of
     codes, and no witness is built for a member,
  3. build the predicted family catalog on codes (`theorem_families`):
     each of the four families of a characteristic evaluates one row
     of the closed form (`_ii1_rows`) at a parameter from a complete
     representative system of a relation in `equiv`, or from K* minus
     {1, -1}; labels and S-forms are decoded at the end,
  4. verify that catalog and partition match member for member, and
     solve for one witness per matched predicted member.

The S-forms stay code tuples from the closed form through the
partition, its checks and the matching; `SParams` are decoded only where
a caller reads them (`enumerate_type_ii1`'s items, `IsoClass.members`,
`outside` and `representative`, failure texts and the summary).

One scan serves every type bucket of `enumerate_type`: a type fixes
which of p, a and c are zero, so each bucket visits q^3 tuples times
q - 1 per nonzero coordinate, and none for I.001 and I.010, which
equation E3 rules out.  The scan refuses a field on which it would visit
more than MAX_SCAN_TUPLES tuples, so the admitted fields follow from
that one number (type II1: q <= 49; III: q <= 25; I: q <= 128).  The
closed form scans nothing, so `enumerate_type_ii1`, and with it
`verify` and `classes`, admits every supported finite field.

`_by_stratum` splits type-II1 S-forms by their (b, q, d) stratum, for
`enumerate --subclass`; the tests compare the strata of the closed form,
written in O(q^2) steps, with those of the scan over q^3 (q-1)^2 tuples.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    zero code or to the nonzero codes.  A scan that would visit more
    than MAX_SCAN_TUPLES tuples raises OversizedFieldError before any
    work.
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

def _decoded(field: Field, codes) -> list[SParams]:
    """The `SParams` of each code tuple in `codes`, sharing the field's
    q elements."""
    elements = field.elements()
    return [SParams._make(map(elements.__getitem__, c)) for c in codes]


class _CodedSForms(Sequence):
    """S-forms over one finite field held as their (p, q, a, b, c, d)
    code tuples `codes`: a read-only sequence of `SParams`, decoded as
    they are read."""

    __slots__ = ("field", "codes")

    def __init__(self, field: Field, codes: list[tuple[int, ...]]):
        self.field, self.codes = field, codes

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _decoded(self.field, self.codes[i])
        return SParams.from_codes(self.field, self.codes[i])

    def __iter__(self):
        return iter(_decoded(self.field, self.codes))


def _coded(algebras) -> tuple[Field | None, list[tuple[int, ...]]]:
    """(field, code tuples) of S-forms given as `enumerate_type_ii1`
    returns them or as `SParams` over one field (None for no S-form)."""
    if isinstance(algebras, _CodedSForms):
        return algebras.field, algebras.codes
    algebras = list(algebras)
    if not algebras:
        return None, []
    field = algebras[0].field
    if any(sp.field != field for sp in algebras):
        raise ValueError("all algebras must live over one field")
    return field, [sp.codes() for sp in algebras]


def enumerate_type_ii1(field: Field) -> Sequence[SParams]:
    """All endo-commutative S(0, q, a, b, c, d) with a, c != 0, in
    lexicographic (q, a, b, c, d) code order, from `_ii1_closed_form`,
    on every finite field: a sequence of `SParams` that holds their
    codes and decodes each S-form when it is read.
    """
    return _CodedSForms(field, _ii1_closed_form(field.tables()))  # raises InfiniteFieldError


def _ii1_rows(t: FieldTables):
    """The rows of the type-II1 closed form, each a map of the codes of
    its free parameters (`_ii1_closed_form` derives them):
      row1(a, d)            = (0, a, a, 0, -a, d),
      signed(a, eps, delta) = (0, eps a, a, 0, delta a, 0), eps, delta = +-1,
      row3(a, b)            = (0, -a, a, b, -a, 0),
      row4(b, d)            = (0, (b+d)^2/4, (d^2-b^2)/4, b, -(d^2-b^2)/4, d)
                              in odd characteristic,
      row4(b, q)            = (0, q, a, b, a, b), a the square root of
                              q(q + b^2), in characteristic 2.
    For nonzero parameters, row 4 is of type II1 exactly when its a is
    nonzero: d != +-b, or q != b^2.
    """
    add, mul, neg = t.add, t.mul, t.neg
    sign = {1: 1, -1: neg[1]}

    def row1(a, d):
        return (0, a, a, 0, neg[a], d)

    def signed(a, eps, delta):
        return (0, mul[sign[eps]][a], a, 0, mul[sign[delta]][a], 0)

    def row3(a, b):
        return (0, neg[a], a, b, neg[a], 0)

    if t.p == 2:
        def row4(b, q):
            a = t.square_root(mul[q][add[q][mul[b][b]]])
            return (0, q, a, b, a, b)
    else:
        quarter = t.inv[add[add[1][1]][add[1][1]]]

        def row4(b, d):
            a, s = mul[add[mul[d][d]][neg[mul[b][b]]]][quarter], add[b][d]
            return (0, mul[mul[s][s]][quarter], a, b, neg[a], d)

    return row1, signed, row3, row4


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
    These are the rows of `_ii1_rows`, taken over every nonzero a and b
    and every d; row 4 keeps the parameters (b, d) or (b, q) that give
    a nonzero a.
    """
    row1, signed, row3, row4 = _ii1_rows(t)
    units = range(1, t.q)
    out = {row1(a, d) for a in units for d in range(t.q)}
    out.update(signed(a, eps, delta) for a in units for eps in (1, -1) for delta in (1, -1))
    out.update(row3(a, b) for a in units for b in units)
    out.update(row for b in units for x in units if (row := row4(b, x))[2])
    return sorted(out)


def _by_stratum(algebras) -> dict[int, list[SParams]]:
    """Type-II1 S-forms split by their (b, q, d) stratum, in input order."""
    strata: dict[int, list[SParams]] = {1: [], 2: [], 3: [], 4: []}
    for sp in algebras:
        strata[_ii1_stratum(sp)].append(sp)
    return strata


# ---------------------------------------------------------------------------
# isomorphism classes
# ---------------------------------------------------------------------------

class IsoClass(NamedTuple):
    """One isomorphism class over `field`, held as codes: member_codes
    lists the (p, q, a, b, c, d) codes of the partitioned algebras in
    its orbit in input order, so the representative, the
    enumeration-least member, is the first, and member_indices their
    positions in the input.

    generators counts the straight generators of the representative and
    automorphisms those carrying it onto itself; outside_codes lists, in
    code order, the S-forms of its orbit that are absent from the
    partitioned list (for the type-II1 list: presentations of other
    types).  `members`, `outside` and `representative` decode them.
    """

    field: Field
    member_codes: list[tuple[int, ...]]
    member_indices: list[int]
    generators: int
    automorphisms: int
    outside_codes: list[tuple[int, ...]]

    @property
    def members(self) -> list[SParams]:
        return _decoded(self.field, self.member_codes)

    @property
    def outside(self) -> list[SParams]:
        return _decoded(self.field, self.outside_codes)

    @property
    def representative(self) -> SParams:
        return SParams.from_codes(self.field, self.member_codes[0])

    def to_json(self, index: int) -> dict:
        return {"index": index,
                "representative": self.representative.to_json(),
                "size": len(self.member_codes),
                "members": [m.to_json() for m in self.members]}


def iso_classes(algebras) -> list[IsoClass]:
    """Partition S-form algebras, as `enumerate_type_ii1` returns them or
    as `SParams` over one field, into isomorphism classes.

    Each class is the orbit of its enumeration-least member, the seed,
    found by one `sform_orbit` scan of the seed's params.  The seed is
    its class's first member: x = e rewrites it onto itself, and an
    earlier member of its orbit would have put the seed in that
    member's class.  `are_isomorphic(seed, member)` gives the least
    witness of a member on demand.
    """
    field, codes = _coded(algebras)
    if not codes:
        return []
    t = field.tables()
    # each S-form's first position; the later positions of a repeated
    # input, by first position, only when one occurs (the type-II1 list
    # has none), since a list per S-form doubles the map on F256
    first: dict[tuple, int] = {}
    repeats: dict[int, list[int]] = {}
    for i, params in enumerate(codes):
        j = first.setdefault(params, i)
        if j != i:
            repeats.setdefault(j, []).append(i)

    assigned = [False] * len(codes)
    out = []
    for i, seed in enumerate(codes):
        if assigned[i]:
            continue
        orbit, generators, automorphisms = sform_orbit(t, seed)
        hits = [j for j in map(first.get, orbit) if j is not None]
        if repeats:
            hits += [k for j in hits for k in repeats.get(j, ())]
        hits.sort()
        for j in hits:
            assigned[j] = True
        out.append(IsoClass(
            field=field,
            member_codes=[codes[j] for j in hits],
            member_indices=hits,
            generators=generators,
            automorphisms=automorphisms,
            outside_codes=sorted(params for params in orbit if params not in first)))
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

    Each family evaluates one row of `_ii1_rows` at its parameter t, on
    codes: t runs over a complete representative system of a relation
    in `equiv`, or over K* minus {1, -1}.  Labels and S-forms are
    decoded at the end.

    Characteristic != 2:
      S1 = S(0,1,1,0,-1,2)                    row1 at (a, d) = (1, 2);
      S2 = S(0,4,-4,-4,4,0)                   row3 at (a, b) = (-4, -4);
      S3(t, eps, delta) = S(0, eps*t, t, 0, delta*t, 0), the signed row
        at a = t, for t over sim1 representatives and eps, delta = +-1;
      S4(t) = S(0, (1+t)^2/4, (t^2-1)/4, 1, (1-t^2)/4, t), row4 at
        (b, d) = (1, t), for t in K* minus {1, -1}.

    Characteristic 2:
      S1'(t) = S(0,t,t,0,t,1) over sim2 representatives, row1 at (t, 1);
      S2'(t) = S(0,t,t,0,t,0) over sim3, row1 at (t, 0);
      S3'(t) = S(0,t,t,t,t,0) over sim4, row3 at (t, t);
      S4'(t) = S(0, t^2/(1+t^2), t/(1+t^2), 1, t/(1+t^2), 1), row4 at
        (b, q) = (1, t^2/(1+t^2)), for t in K* minus {1}.
    """
    t = field.tables()  # raises InfiniteFieldError on Q and F2(X)
    row1, signed, row3, row4 = _ii1_rows(t)

    def reps(rel):
        return [(field.code_of(r),) for r in rep_system(rel, field).representatives]

    others = [(x,) for x in range(2, t.q) if x != t.neg[1]]  # K* minus {1, -1}
    if t.p != 2:
        two, minus_four = field._from_int_payload(2), field._from_int_payload(-4)
        table = [("S1", [()], lambda: row1(1, two)),
                 ("S2", [()], lambda: row3(minus_four, minus_four)),
                 ("S3", [(x, eps, delta) for (x,) in reps(RelationId.SIM1)
                         for eps in (1, -1) for delta in (1, -1)], signed),
                 ("S4", others, lambda x: row4(1, x))]
    else:
        mul, square = t.mul, t.square
        table = [("S1'", reps(RelationId.SIM2), lambda x: row1(x, 1)),
                 ("S2'", reps(RelationId.SIM3), lambda x: row1(x, 0)),
                 ("S3'", reps(RelationId.SIM4), lambda x: row3(x, x)),
                 # 1 + t^2 = (1 + t)^2 != 0 since t != 1
                 ("S4'", others,
                  lambda x: row4(1, mul[square[x]][t.inv[t.add[1][square[x]]]]))]

    def label(tag, x=None, *signs):
        return FamilyLabel(tag, None if x is None else field.element_of_code(x), *signs)

    return [(label(tag, *args), SParams.from_codes(field, row(*args)))
            for tag, params, row in table for args in params]


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
    isomorphism partition of the type-II1 list."""

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
        return {"algebras": sum(len(c.member_codes) for c in self.classes),
                "classes": len(self.classes),
                "predicted": len(self.predicted)}

    def to_json_dict(self) -> dict:
        return {**self._json_without_classes(),
                "classes": [c.to_json(i) for i, c in enumerate(self.classes)]}

    def _json_without_classes(self) -> dict:
        """Every key of `to_json_dict` but "classes", which the CLI
        formats from the codes of the classes."""
        return {
            "field": self.field.spec_string(),
            "verdict": "pass" if self.verdict else "fail",
            "counts": self.counts,
            "predicted": [{"label": label.to_json(), "params": sp.to_json()}
                          for label, sp in self.predicted],
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
                         f"{len(cls.member_codes):>4}  {wit}")
        for f in self.failures:
            lines.append(f"FAIL: {f}")
        return "\n".join(lines)


def verify_classification(field: Field) -> ClassificationReport:
    """Check the predicted families against the brute-force partition.

    Passes iff (a) every predicted member is an endo-commutative
    type-II1 straight algebra, (b) predicted members are pairwise
    non-isomorphic, (c) the exhaustive partition has exactly as many
    classes as predicted members, (d) every class contains exactly
    one predicted member, (e) every orbit passes the
    orbit-stabilizer check: its S-forms times the automorphisms of the
    representative number its straight generators, and none of its
    type-II1 S-forms is missing from the partitioned list, and (f) that
    list, written by `enumerate_type_ii1` from the closed form, holds
    N(q) S-forms: (q-1)(3q-1) for odd q and 3(q-1)^2 for even q, and
    (g) the partition has C(q) classes: q + 7 for odd q, q + 3 for even
    q >= 4 and 3 for q = 2.  (b) is witnessed by the exhausted orbit
    scans underlying (d).  The checks read the codes of the list and of
    the classes; a failure text decodes the S-forms it names.
    """
    algebras = enumerate_type_ii1(field)  # first: it refuses Q and F2(X)
    failures: list[str] = []
    predicted = theorem_families(field)
    q = field.order()
    count = (q - 1) * (3 * q - 1) if q % 2 else 3 * (q - 1) ** 2
    if len(algebras) != count:
        failures.append(f"count check: {len(algebras)} type-II1 algebras, "
                        f"but N({q}) = {count}")

    for label, sp in predicted:
        if not is_endo_commutative_straight(sp):
            failures.append(f"predicted {label} = {sp} is not endo-commutative")
        elif pattern_type(sp) is not AlgebraType.II_1:
            failures.append(f"predicted {label} = {sp} is not of type II1")

    classes = iso_classes(algebras)
    families = q + 7 if q % 2 else q + 3 if q > 2 else 3
    if len(classes) != families:
        failures.append(f"class count check: {len(classes)} isomorphism classes, "
                        f"but C({q}) = {families}")

    for ci, cls in enumerate(classes):
        orbit = len(cls.member_codes) + len(cls.outside_codes)
        if orbit * cls.automorphisms != cls.generators:
            failures.append(
                f"orbit-stabilizer check: class {ci} has {orbit} S-forms and "
                f"{cls.automorphisms} automorphisms but {cls.generators} straight generators")
        for codes in cls.outside_codes:
            if _TYPE_BY_PATTERN[(codes[0] != 0, codes[2] != 0, codes[4] != 0)] \
                    is AlgebraType.II_1:
                failures.append(
                    f"orbit-stabilizer check: class {ci} reaches the type-II1 "
                    f"S-form {SParams.from_codes(field, codes)}, "
                    f"which is absent from the type-II1 list")

    member_to_class = {codes: ci for ci, cls in enumerate(classes) for codes in cls.member_codes}

    t = field.tables()
    matching: list[MatchEntry] = []
    seen_class: dict[int, FamilyLabel] = {}
    for label, sp in predicted:
        codes = sp.codes()
        ci = member_to_class.get(codes)
        if ci is None:
            where = ("is in no computed class" if codes in _coded(algebras)[1]
                     else "is absent from the type-II1 list")
            failures.append(f"predicted {label} = {sp} {where}")
            matching.append(MatchEntry(label, sp, None, None))
            continue
        if ci in seen_class:
            failures.append(
                f"predicted {label} and {seen_class[ci]} fall in the same class {ci}")
        seen_class[ci] = label
        # sp lies in the orbit of the representative, so a witness exists
        xc = sform_witness(t, (0, 1) + classes[ci].member_codes[0], codes)
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
    scan = [SParams.from_codes(field, codes) for codes in _scan(field, _TYPE_ALIASES[type_name])]
    return scan if subclass is None else _by_stratum(scan)[subclass]
