import pytest

from endoclass import (AlgebraType, FamilyLabel, FieldDescriptor, FieldError,
                       InfiniteFieldError, OversizedFieldError, SParams, are_isomorphic,
                       check_iso_system, enumerate_subclasses, enumerate_type,
                       enumerate_type_ii1, field_from_spec, field_make, ii1_subclass,
                       is_endo_commutative_straight, iso_classes, theorem_families, transform,
                       type_of, verify_classification)

from endoclass.algebra import _TYPE_BY_PATTERN, _ec_straight_codes
from endoclass.classify import _ii1_closed_form
from endoclass.cli import main

from common import (CHAR2_CATALOG, FINITE_SPECS, SMALL_FIELDS, ScanStarted, _poly_from_code,
                    forbid_scan, sp)

F2 = field_from_spec("F2")
F3 = field_from_spec("F3")
F4 = field_from_spec("F4")
F5 = field_from_spec("F5")


# ---------------------------------------------------------------------------
# subclass inventories
# ---------------------------------------------------------------------------

SUBCLASS_COUNTS = {
    # per-stratum sizes derived from the closed-form parametrizations:
    # |1| = |K*|^2 + |K*| * #signs^2, |3| = |K*|^2, |4| as counted
    "F2": {1: 2, 2: 0, 3: 1, 4: 0},
    "F3": {1: 12, 2: 0, 3: 4, 4: 0},
    "F4": {1: 12, 2: 0, 3: 9, 4: 6},
    "F5": {1: 32, 2: 0, 3: 16, 4: 8},
}


@pytest.mark.parametrize("spec", SMALL_FIELDS + ["F5^1/x+2"])
def test_inventory_closed_form_equals_scan(spec):
    inv = enumerate_subclasses(field_from_spec(spec))
    for k in (1, 2, 3, 4):
        closed = [s.codes() for s in inv.closed_form[k]]
        scanned = [s.codes() for s in inv.direct_scan[k]]
        assert closed == scanned, f"subclass {k}"
        if spec in SUBCLASS_COUNTS:
            assert len(closed) == SUBCLASS_COUNTS[spec][k]


def test_ii1_closed_form_beyond_the_scan():
    # past the scan guard: each tuple passes the closed-form system and
    # has the II1 pattern, every predicted family member is there, and
    # the count fits (q-1)(3q-1) for odd q and 3(q-1)^2 for even q, an
    # observation on every field up to 256, not a result of the paper
    for spec in ("F49", "F64", "F81", "F97", "F125", "F128", "F243", "F256"):
        field = field_from_spec(spec)
        t, q = field.tables(), field.order()
        closed = _ii1_closed_form(t)
        assert closed == sorted(set(closed)), spec
        for codes in closed:
            assert _ec_straight_codes(t, *codes), (spec, codes)
            assert _TYPE_BY_PATTERN[(codes[0] != 0, codes[2] != 0, codes[4] != 0)] \
                is AlgebraType.II_1, (spec, codes)
        assert len(closed) == ((q - 1) * (3 * q - 1) if q % 2 else 3 * (q - 1) ** 2), spec
        members = {sp_.codes() for _, sp_ in theorem_families(field)}
        assert members <= set(closed), spec


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5"])
def test_inventory_partitions_the_scan(spec):
    inv = enumerate_subclasses(field_from_spec(spec))
    all_codes = [s.codes() for s in inv.scan_all]
    assert len(set(all_codes)) == len(all_codes)
    union = sorted(c for k in (1, 2, 3, 4) for c in
                   (s.codes() for s in inv.direct_scan[k]))
    assert union == sorted(all_codes)


def test_inventory_scans_the_direct_side(monkeypatch):
    # the direct side is a real scan, never the closed form again
    forbid_scan(monkeypatch)
    with pytest.raises(ScanStarted):
        enumerate_subclasses(F5)


def test_subclass_two_is_empty_everywhere():
    for spec in ("F2", "F3", "F4", "F5", "F7", "F8", "F9"):
        inv = enumerate_subclasses(field_from_spec(spec))
        assert inv.direct_scan[2] == []


def test_scan_members_are_type_ii1():
    for s in enumerate_type_ii1(F4):
        assert type_of(s) is AlgebraType.II_1
        assert ii1_subclass(s) in (1, 3, 4)


# ---------------------------------------------------------------------------
# predicted families
# ---------------------------------------------------------------------------

def test_family_counts():
    assert len(theorem_families(F2)) == 3
    assert len(theorem_families(F3)) == 10
    assert len(theorem_families(F4)) == 7
    assert len(theorem_families(F5)) == 12
    # q + 7 for odd q: S1, S2, 4 sign pairs times 2 sim1 classes of S3,
    # and q - 3 of S4; q + 3 for even q >= 4: 2 sim2 classes, 1 sim3
    # class, 2 sim4 classes and q - 2 of S4'
    for spec in FINITE_SPECS:
        field = field_from_spec(spec)
        q = field.order()
        assert len(theorem_families(field)) == (q + 7 if q % 2 else q + 3 if q > 2 else 3), spec


def test_family_members_f2():
    members = {str(label): sp_.codes() for label, sp_ in theorem_families(F2)}
    assert members == {
        "S1'(t=1)": (0, 1, 1, 0, 1, 1),
        "S2'(t=1)": (0, 1, 1, 0, 1, 0),
        "S3'(t=1)": (0, 1, 1, 1, 1, 0),
    }


def test_family_members_are_ec_type_ii1():
    for field in (F2, F3, F4, F5):
        for label, s in theorem_families(field):
            assert is_endo_commutative_straight(s), str(label)
            assert type_of(s) is AlgebraType.II_1, str(label)


def test_family_labels_carry_parameters():
    labels = [str(label) for label, _ in theorem_families(F5)]
    assert "S1" in labels and "S2" in labels
    assert any(l.startswith("S3(t=1, eps=+1, delta=-1)") for l in labels)
    assert any(l.startswith("S4(t=2)") for l in labels)


# ---------------------------------------------------------------------------
# iso_classes
# ---------------------------------------------------------------------------

def test_iso_classes_of_nothing_is_empty():
    assert iso_classes([]) == []


def test_iso_classes_needs_one_field():
    with pytest.raises(ValueError, match="^all algebras must live over one field$"):
        iso_classes([sp(F3, 0, 1, 1, 0, -1, 1), sp(F5, 0, 1, 1, 0, -1, 1)])


def test_iso_classes_singleton():
    classes = iso_classes([sp(F5, 0, 1, 1, 0, -1, 2)])
    assert len(classes) == 1 and len(classes[0].members) == 1


def test_iso_classes_merges_equal_discriminant_pair():
    # both have 4a - d^2 = 0, so they collapse onto one class
    classes = iso_classes([sp(F5, 0, 1, 1, 0, -1, 2), sp(F5, 0, 4, 4, 0, -4, 4)])
    assert len(classes) == 1
    cls = classes[0]
    assert cls.representative == sp(F5, 0, 1, 1, 0, -1, 2)
    rep = cls.representative.to_structure_matrix()
    for member in cls.members:
        wit = are_isomorphic(rep, member.to_structure_matrix())
        assert transform(rep, wit) == member.to_structure_matrix()


def test_iso_classes_distinguishes_discriminant_strata():
    # 4*4 - 3^2 = 2 != 0 over F5, so this pair does NOT merge
    classes = iso_classes([sp(F5, 0, 1, 1, 0, -1, 2), sp(F5, 0, 4, 4, 0, -4, 3)])
    assert len(classes) == 2


def test_iso_classes_distinguishes_families():
    classes = iso_classes([sp(F5, 0, 1, 1, 0, -1, 2), sp(F5, 0, 4, -4, -4, 4, 0)])
    assert len(classes) == 2


def test_iso_classes_handles_duplicates():
    a = sp(F5, 0, 1, 1, 0, -1, 2)
    classes = iso_classes([a, a])
    assert len(classes) == 1 and len(classes[0].members) == 2


def test_iso_classes_keep_the_input_order():
    algebras = list(enumerate_type_ii1(F3))[::-1]
    for cls in iso_classes(algebras):
        assert cls.member_indices == sorted(cls.member_indices)
        assert cls.members == [algebras[j] for j in cls.member_indices]


def test_iso_classes_representative_is_enumeration_least():
    scan = enumerate_type_ii1(F3)
    for cls in iso_classes(scan):
        assert cls.member_indices[0] == min(cls.member_indices)
        assert cls.representative == cls.members[0]


# ---------------------------------------------------------------------------
# closed-form witnesses, characteristic 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["F2", "F4", "F8"])
def test_char2_witness_catalog(spec):
    field = field_from_spec(spec)
    total = 0
    for name, gen in CHAR2_CATALOG:
        for lhs, rhs, X in gen(field):
            assert check_iso_system(lhs, rhs, X), f"{name} over {spec}: {lhs} -> {rhs}"
            total += 1
    assert total > 0


def test_bridge_witness_f5():
    # S(0,(t+1)/4,(t+1)/4,0,-(t+1)/4,1) onto S(0,t,t,0,-t,0) for every
    # t != 0, -1, including the check_iso_system consistency route
    from common import wit_sub1_to_sub3_bridge
    count = 0
    for lhs, rhs, X in wit_sub1_to_sub3_bridge(F5):
        assert check_iso_system(lhs, rhs, X)
        assert transform(lhs.to_structure_matrix(), X) == rhs.to_structure_matrix()
        count += 1
    assert count == 3  # t in {1, 2, 3}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_f2():
    report = verify_classification(F2)
    assert report.verdict
    assert report.counts == {"algebras": 3, "classes": 3, "predicted": 3}


def test_verify_f3_structure():
    report = verify_classification(F3)
    assert report.verdict
    assert report.counts["classes"] == 10
    # matching is a bijection
    class_indices = [m.class_index for m in report.matching]
    assert sorted(class_indices) == list(range(10))
    # witnesses carry representatives onto predicted members
    for m in report.matching:
        rep = report.classes[m.class_index].representative
        assert transform(rep.to_structure_matrix(), m.witness) == \
            m.params.to_structure_matrix()
    js = report.to_json_dict()
    assert js["verdict"] == "pass"
    assert js["counts"]["classes"] == 10
    assert "10 isomorphism classes" in report.summary_text()


def test_verify_cross_family_members_stay_apart():
    # the base family member is isomorphic to no sign/scale family member
    base = sp(F3, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    for label, s in theorem_families(F3):
        if label.tag == "S3":
            assert are_isomorphic(base, s.to_structure_matrix()) is None


def test_verify_orbit_stabilizer_catches_a_dropped_member(monkeypatch):
    import endoclass.classify as classify
    full = enumerate_type_ii1(F5)
    predicted = {s.codes() for _, s in theorem_families(F5)}
    dropped = next(s for s in full if s.codes() not in predicted)
    monkeypatch.setattr(classify, "enumerate_type_ii1",
                        lambda field: [s for s in full if s != dropped])
    report = verify_classification(F5)
    assert not report.verdict
    assert any("orbit-stabilizer" in f and str(dropped) in f for f in report.failures)


def test_verify_count_check_catches_a_dropped_sform(monkeypatch):
    import endoclass.classify as classify
    closed = classify._ii1_closed_form
    monkeypatch.setattr(classify, "_ii1_closed_form", lambda t: closed(t)[1:])
    report = verify_classification(F5)
    assert not report.verdict
    # N(5) = 4 * 14
    assert "count check: 55 type-II1 algebras, but N(5) = 56" in report.failures


def test_verify_class_count_check_catches_a_dropped_class(monkeypatch):
    import endoclass.classify as classify
    partition = classify.iso_classes
    monkeypatch.setattr(classify, "iso_classes", lambda algebras: partition(algebras)[:-1])
    report = verify_classification(F5)
    assert not report.verdict
    # C(5) = 5 + 7
    assert "class count check: 11 isomorphism classes, but C(5) = 12" in report.failures
    # the family of the dropped class is in the type-II1 list, but in no class
    assert ("predicted S3(t=2, eps=-1, delta=+1) = S(0, 3, 2, 0, 2, 0) is in no computed class"
            in report.failures)


@pytest.mark.parametrize("spec, moduli", [("F4", 1), ("F8", 2), ("F9", 3), ("F16", 3),
                                          ("F25", 10), ("F27", 8)])
def test_verify_passes_under_every_modulus(spec, moduli):
    # every monic irreducible modulus of the order, by Gauss's count; the
    # table build refuses the reducible ones
    descriptor = field_from_spec(spec).descriptor
    p, k = descriptor.p, descriptor.k
    fields = []
    for code in range(p**k):
        modulus = _poly_from_code(code, p, k) + (1,)
        try:
            fields.append(field_make(FieldDescriptor.extension(p, k, modulus)))
        except FieldError:
            pass
    assert len(fields) == moduli
    for field in fields:
        report = verify_classification(field)
        assert report.verdict, (field.spec_string(), report.failures)


def verify_f3_with_families(monkeypatch, edit):
    """Failures of verify over F3 when `edit` rewrites the predicted list."""
    import endoclass.classify as classify
    families = classify.theorem_families
    monkeypatch.setattr(classify, "theorem_families", lambda field: edit(families(field)))
    report = verify_classification(F3)
    assert not report.verdict
    return report.failures


def test_verify_catches_a_missing_family(monkeypatch):
    failures = verify_f3_with_families(monkeypatch, lambda fams: fams[:-1])
    assert "10 computed classes vs 9 predicted families" in failures
    assert ("class 3 (representative S(0, 1, 2, 0, 1, 0)) matches no predicted family"
            in failures)


def test_verify_catches_two_labels_in_one_class(monkeypatch):
    label, member = theorem_families(F3)[0]
    cls = next(c for c in iso_classes(enumerate_type_ii1(F3))
               if member.codes() in {s.codes() for s in c.members})
    other = next(s for s in cls.members if s.codes() != member.codes())
    failures = verify_f3_with_families(
        monkeypatch, lambda fams: fams + [(FamilyLabel("extra"), other)])
    assert any(f.startswith(f"predicted extra and {label} fall in the same class")
               for f in failures)


def test_verify_catches_a_family_that_is_not_endo_commutative(monkeypatch):
    bad = sp(F3, 1, 1, 1, 1, 1, 1)
    assert not is_endo_commutative_straight(bad)
    failures = verify_f3_with_families(
        monkeypatch, lambda fams: fams + [(FamilyLabel("extra"), bad)])
    assert f"predicted extra = {bad} is not endo-commutative" in failures


def test_verify_catches_a_family_of_another_type(monkeypatch):
    other = enumerate_type(F3, "III")[0]
    failures = verify_f3_with_families(
        monkeypatch, lambda fams: fams + [(FamilyLabel("extra"), other)])
    assert f"predicted extra = {other} is not of type II1" in failures


def test_verify_catches_a_family_absent_from_the_scan(monkeypatch):
    # the type-II1 pattern (p = 0, a and c nonzero), but not endo-commutative
    absent = sp(F3, 0, 1, 1, 0, 1, 1)
    assert absent.codes() not in {s.codes() for s in enumerate_type_ii1(F3)}
    failures = verify_f3_with_families(
        monkeypatch, lambda fams: fams + [(FamilyLabel("extra"), absent)])
    assert f"predicted extra = {absent} is absent from the type-II1 list" in failures


def test_verify_catches_a_wrong_automorphism_count(monkeypatch):
    import endoclass.classify as classify
    orbit = classify.sform_orbit

    def one_more_automorphism(t, m):
        least, generators, automorphisms = orbit(t, m)
        return least, generators, automorphisms + 1
    monkeypatch.setattr(classify, "sform_orbit", one_more_automorphism)
    report = verify_classification(F3)
    assert not report.verdict
    counts = [f for f in report.failures if f.startswith("orbit-stabilizer check: class ")
              and "automorphisms but" in f]
    assert len(counts) == len(report.classes) == 10


def test_verify_solves_one_witness_per_matched_family(monkeypatch):
    import endoclass.classify as classify
    solve = classify.sform_witness
    calls = []

    def counted(t, m, target):
        calls.append(target)
        return solve(t, m, target)
    monkeypatch.setattr(classify, "sform_witness", counted)
    F9 = field_from_spec("F9")
    report = verify_classification(F9)
    assert report.verdict
    assert all(m.class_index is not None and m.witness for m in report.matching)
    assert calls == [sp.codes() for _, sp in theorem_families(F9)]


def test_orbit_stabilizer_counts_f5():
    # |orbit| * |Aut(rep)| = number of straight generators, where the
    # orbit also holds the S-forms of other types outside the II1 scan
    classes = iso_classes(enumerate_type_ii1(F5))
    assert any(c.outside for c in classes)
    for c in classes:
        assert (len(c.members) + len(c.outside)) * c.automorphisms == c.generators
        assert all(type_of(s) is not AlgebraType.II_1 for s in c.outside)


def test_verify_f16_char2_pattern():
    # q+3 pattern for characteristic 2 beyond the acceptance fields
    report = verify_classification(field_from_spec("F16"))
    assert report.verdict
    assert report.counts["classes"] == 19


def test_family_tables_render_as_published_shapes():
    from endoclass import multiplication_table_text
    Q = field_from_spec("Q")
    base = sp(Q, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    assert multiplication_table_text(base).split() == ["(", "f", "e", ")",
                                                       "(", "-e+2f", "f", ")"]
    second = sp(Q, 0, 4, -4, -4, 4, 0).to_structure_matrix()
    assert multiplication_table_text(second).split() == ["(", "f", "-4e-4f", ")",
                                                         "(", "4e", "4f", ")"]
    # S(0, t, t, 0, t, 1) over F4 with t = w reads (f, we / we+f, wf)
    w = F4.generator()
    c2 = sp(F4, 0, w, w, 0, w, 1).to_structure_matrix()
    assert multiplication_table_text(c2).split() == ["(", "f", "we", ")",
                                                     "(", "we+f", "wf", ")"]


# ---------------------------------------------------------------------------
# guards and general type enumeration
# ---------------------------------------------------------------------------

def test_oversized_guard(monkeypatch):
    # verify reads the closed form: it ignores ENDOCLASS_MAX_Q, and passes
    # on F53, past the scan's tuple bound, without a scan
    monkeypatch.setenv("ENDOCLASS_MAX_Q", "3")
    assert verify_classification(F5).verdict
    forbid_scan(monkeypatch)
    assert verify_classification(field_from_spec("F53")).verdict


def test_type_ii1_list_reads_as_a_list_of_sparams():
    # held as codes, read as SParams: length, items, slices and iteration
    listed = [SParams.from_codes(F5, c) for c in _ii1_closed_form(F5.tables())]
    algebras = enumerate_type_ii1(F5)
    assert len(algebras) == len(listed) == 56
    assert list(algebras) == listed
    assert [algebras[i] for i in range(-len(listed), len(listed))] == listed + listed
    assert algebras[3:40:7] == listed[3:40:7] and algebras[::-1] == listed[::-1]
    with pytest.raises(IndexError):
        algebras[len(listed)]


def test_enumerate_type_ii1_subclass_filter():
    sub3 = enumerate_type(F4, "II1", subclass=3)
    assert len(sub3) == 9
    assert all(ii1_subclass(s) == 3 for s in sub3)


def test_enumerate_type_full_scan_buckets():
    assert len(enumerate_type(F3, "I")) == 2
    assert len(enumerate_type(F3, "II2")) == 4
    assert len(enumerate_type(F3, "II3")) == 4
    assert len(enumerate_type(F3, "III")) == 8


def test_enumerate_type_validation():
    with pytest.raises(ValueError):
        enumerate_type(F3, "IV")
    with pytest.raises(ValueError):
        enumerate_type(F3, "III", subclass=1)
    with pytest.raises(OversizedFieldError):
        enumerate_type(field_from_spec("F27"), "III")  # the smallest III field beyond the bound


@pytest.mark.parametrize("type_name, admitted, refused", [
    # each bucket's largest admitted and smallest refused field; I counts
    # only the tuples of I.100
    ("II1", "F49", "F53"), ("II2", "F49", "F53"), ("II3", "F49", "F53"),
    ("III", "F25", "F27"), ("I", "F128", "F169"), ("I.100", "F128", "F169"),
])
def test_scan_guard_follows_the_tuple_bound(monkeypatch, type_name, admitted, refused):
    forbid_scan(monkeypatch)
    with pytest.raises(ScanStarted):
        enumerate_type(field_from_spec(admitted), type_name)
    with pytest.raises(OversizedFieldError, match="tuples"):
        enumerate_type(field_from_spec(refused), type_name)


@pytest.mark.parametrize("type_name", ["I.001", "I.010"])
def test_e3_empty_buckets_visit_no_tuple(monkeypatch, type_name):
    # with p = 0, E3 reads a^2 = c^2: these buckets are admitted on the
    # largest supported field and hold nothing
    forbid_scan(monkeypatch)
    assert enumerate_type(field_from_spec("F256"), type_name) == []


def test_scan_guard_covers_the_ii1_scan_and_verify(monkeypatch, capsys):
    forbid_scan(monkeypatch)
    F53 = field_from_spec("F53")
    # past the scan's bound: the type-II1 list, verify and classes read the
    # closed form and start no scan; N(53) = 52 * 158
    assert len(enumerate_type_ii1(F53)) == 8216
    assert verify_classification(F53).verdict
    assert verify_classification(field_from_spec("F49")).verdict
    assert main(["classes", "--field", "F49", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("56 classes over F7^2/")
    with pytest.raises(ValueError, match="subclass"):
        enumerate_type(field_from_spec("F17"), "II1", subclass=5)  # refused before the scan


@pytest.mark.parametrize("spec", ["Q", "F2(X)"])
def test_scan_partition_and_catalog_need_a_finite_field(spec):
    field = field_from_spec(spec)
    for call in (enumerate_type_ii1, theorem_families, verify_classification,
                 lambda f: enumerate_type(f, "III"),
                 lambda f: iso_classes([sp(f, 0, 1, 1, 0, -1, 0)])):
        with pytest.raises(InfiniteFieldError):
            call(field)
