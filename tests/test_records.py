"""The record types: immutable, compared and hashed by their fields, with a
`Name(field=...)` repr, a Transform that refuses a singular or
mixed-field matrix however it is built, and the conversions that SParams
and Transform share."""

import pytest

from endoclass import (AlgebraElement, FamilyLabel, FieldElement, FieldMismatchError,
                       InfiniteFieldError, RelationId, SingularTransformError, SParams, Transform,
                       field_from_spec, rep_system)

F3 = field_from_spec("F3")
F5 = field_from_spec("F5")


# each frozen record type: a builder over a field, and the name of its first field
KINDS = {
    "SParams": (lambda f: SParams.from_ints(f, 0, 1, 1, 0, -1, 2), "p"),
    "Transform": (lambda f: Transform.from_ints(f, 1, 2, 0, 1), "x"),
    "FamilyLabel": (lambda f: FamilyLabel("S3", t=f.from_int(2), eps=1, delta=-1), "tag"),
    "AlgebraElement": (lambda f: AlgebraElement(f.from_int(1), f.from_int(3)), "u"),
}


def build(kind, field):
    """A fresh record of the given kind, built from scratch each call."""
    return KINDS[kind][0](field)


@pytest.mark.parametrize("kind", KINDS)
def test_records_refuse_attribute_assignment(kind):
    record = build(kind, F5)
    with pytest.raises(AttributeError):
        setattr(record, KINDS[kind][1], F5.zero())
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == build(kind, F5)


@pytest.mark.parametrize("kind", KINDS)
def test_equal_fields_give_equal_records_and_hashes(kind):
    a, b = build(kind, F5), build(kind, F5)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build(kind, F3)


def test_reprs_name_each_field():
    assert repr(FamilyLabel("S1")) == "FamilyLabel(tag='S1', t=None, eps=None, delta=None)"
    one, two = F3.one(), F3.from_int(2)
    assert repr(Transform(one, two, F3.zero(), one)) == (
        f"Transform(x={one!r}, y={two!r}, z={F3.zero()!r}, w={one!r})")
    system = rep_system(RelationId.SIM1, F3)
    assert repr(system) == (f"RepSystem(relation={RelationId.SIM1!r}, field={F3!r}, "
                            f"representatives={system.representatives!r})")


def test_str_keeps_its_own_format():
    assert str(build("SParams", F5)) == "S(0, 1, 1, 0, 4, 2)"
    assert str(build("Transform", F5)) == "((1, 2), (0, 1))"
    assert str(build("FamilyLabel", F5)) == "S3(t=2, eps=+1, delta=-1)"


def test_transform_refuses_a_singular_matrix_however_built(monkeypatch):
    with pytest.raises(SingularTransformError, match=r"^\(\(1, 1\), \(1, 1\)\) is singular$"):
        Transform(F5.one(), F5.one(), F5.one(), F5.one())
    with pytest.raises(SingularTransformError):
        Transform.from_ints(F5, 2, 4, 1, 2)
    with pytest.raises(SingularTransformError):
        Transform.from_codes(F5, (1, 1, 1, 1))
    with pytest.raises(SingularTransformError):
        Transform.from_json(F5, {"x": "1", "y": "2", "z": "2", "w": "4"})
    # an inverse whose 1/det comes out 0 is all zeros, and the constructor says so
    monkeypatch.setattr(FieldElement, "inverse", lambda self: self.field.zero())
    with pytest.raises(SingularTransformError):
        Transform.identity(F5).inverse()


def test_transform_refuses_entries_of_two_fields():
    one5, one3, zero5 = F5.one(), F3.one(), F5.zero()
    for entries in [(one5, zero5, zero5, one3), (one3, zero5, zero5, one5),
                    (one5, one3, zero5, one5), (one5, zero5, one3, one5)]:
        with pytest.raises(FieldMismatchError, match="^transform entries must lie in one field$"):
            Transform(*entries)
    with pytest.raises(FieldMismatchError):
        Transform.from_ints(F5, 1, 0, 0, one3)
    with pytest.raises(FieldMismatchError, match="^cannot compose transforms over different"):
        Transform.identity(F5) @ Transform.identity(F3)


def test_valid_transforms_survive_every_route():
    t = Transform.from_ints(F5, 1, 2, 3, 4)
    assert Transform.from_codes(F5, t.codes()) == t
    assert Transform.from_json(F5, t.to_json()) == t
    assert t @ t.inverse() == Transform.identity(F5)
    assert type(t.inverse()) is Transform and type(t @ t) is Transform
    assert t.entries() == (t.x, t.y, t.z, t.w)


def test_the_tuple_routes_check_too():
    identity = Transform.identity(F5)
    assert identity._replace(x=F5.one()) == identity and tuple(identity) == identity.entries()
    with pytest.raises(SingularTransformError):
        identity._replace(x=F5.zero())
    with pytest.raises(FieldMismatchError):
        identity._replace(w=F3.one())
    with pytest.raises(SingularTransformError):
        Transform._make((F5.zero(),) * 4)
    # composing with a matrix that skipped the checks builds a checked one
    unchecked = tuple.__new__(Transform, (F5.one(),) * 4)
    with pytest.raises(SingularTransformError):
        identity @ unchecked


# the values each record of field elements is built from: ints, and None for an element
ELEMENT_RECORDS = {SParams: (0, None, 1, -1, None, 2), Transform: (None, 1, 0, 1)}
# a field spec and an element of it that is not an int
FIELD_ELEMENTS = [("F5", "3"), ("F9", "w+1"), ("Q", "-2/3"), ("F2(X)", "(X^2+1)/(X)")]


@pytest.mark.parametrize("spec,text", FIELD_ELEMENTS)
@pytest.mark.parametrize("cls", ELEMENT_RECORDS, ids=lambda cls: cls.__name__)
def test_element_records_convert_both_ways(cls, spec, text):
    f = field_from_spec(spec)
    e = f.parse(text)
    values = [e if v is None else v for v in ELEMENT_RECORDS[cls]]
    r = cls.from_ints(f, *values)
    assert type(r) is cls and r.field == f
    assert all(x is v if v is e else x == f.from_int(v) for x, v in zip(r, values))
    assert list(r.to_json()) == list(r._fields)
    assert type(r).from_json(f, r.to_json()) == r
    if f.is_finite:
        assert cls.from_codes(f, r.codes()) == r
    else:
        with pytest.raises(InfiniteFieldError):
            r.codes()


def test_from_ints_takes_one_value_per_field():
    with pytest.raises(TypeError):
        SParams.from_ints(F5, 1, 2)
    with pytest.raises(TypeError):
        Transform.from_ints(F5, 1, 2, 3)


def test_from_json_reads_a_number_as_its_string():
    assert (SParams.from_json(F5, {"p": 0, "q": 1, "a": 1, "b": 0, "c": 4, "d": 7})
            == SParams.from_ints(F5, 0, 1, 1, 0, 4, 2))
    assert Transform.from_json(F5, {"x": 1, "y": 2, "z": 0, "w": 1}) == build("Transform", F5)
