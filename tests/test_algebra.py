import random
import re

import pytest

from endoclass import (AlgebraType, FieldMismatchError, InfiniteFieldError,
                       NotEndoCommutative, SParams, StructureMatrix, Transform,
                       basis, element, field_from_spec, ii1_subclass, is_curled,
                       is_endo_commutative_definitional,
                       is_endo_commutative_straight, multiplication_table_text,
                       multiply, rank, to_straight_form, transform, type_of)

from endoclass.algebra import pattern_type

from common import el, sp

F2 = field_from_spec("F2")
F3 = field_from_spec("F3")
F4 = field_from_spec("F4")
F5 = field_from_spec("F5")
Q = field_from_spec("Q")


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_multiply_reproduces_table_rows():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    e, f = basis(F5)
    assert multiply(A, e, e) == element(F5, 0, 1)    # e^2 = f
    assert multiply(A, e, f) == element(F5, 1, 0)    # ef = e
    assert multiply(A, f, e) == element(F5, -1, 2)   # fe = -e+2f
    assert multiply(A, f, f) == element(F5, 0, 1)    # f^2 = f


def test_multiply_zero_is_zero():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    zero = element(F5, 0, 0)
    for y in (element(F5, 2, 3), element(F5, 0, 1)):
        assert multiply(A, zero, y) == zero
        assert multiply(A, y, zero) == zero


def test_multiply_char2_table():
    t = F4.generator()
    A = SParams(F4.zero(), t, t, F4.zero(), t, F4.one()).to_structure_matrix()
    e, f = basis(F4)
    assert multiply(A, f, e) == element(F4, t, F4.one())  # fe = te + f


def test_multiply_field_mismatch():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    with pytest.raises(FieldMismatchError):
        multiply(A, element(F3, 1, 0), element(F3, 0, 1))


def test_structure_matrix_rejects_a_wrong_shape_and_a_foreign_entry():
    one, zero = F5.one(), F5.zero()
    with pytest.raises(ValueError, match="^a structure matrix needs 4 rows of 2 entries$"):
        StructureMatrix(F5, ((one, zero),) * 3)
    with pytest.raises(FieldMismatchError,
                       match="^structure matrix entries must lie in the owner field$"):
        StructureMatrix(F5, ((one, zero),) * 3 + ((one, F3.one()),))


def test_multiply_bilinear_randomized():
    rng = random.Random(7)
    A = StructureMatrix.from_ints(
        F5, [[rng.randrange(5) for _ in range(2)] for _ in range(4)])
    for _ in range(50):
        alpha, beta = F5.from_int(rng.randrange(5)), F5.from_int(rng.randrange(5))
        x = element(F5, rng.randrange(5), rng.randrange(5))
        x2 = element(F5, rng.randrange(5), rng.randrange(5))
        y = element(F5, rng.randrange(5), rng.randrange(5))
        combo = element(F5, alpha * x.u + beta * x2.u, alpha * x.v + beta * x2.v)
        lhs = multiply(A, combo, y)
        p1, p2 = multiply(A, x, y), multiply(A, x2, y)
        assert lhs.u == alpha * p1.u + beta * p2.u
        assert lhs.v == alpha * p1.v + beta * p2.v


# ---------------------------------------------------------------------------
# endo-commutativity
# ---------------------------------------------------------------------------

def test_ec_definitional_examples():
    assert is_endo_commutative_definitional(sp(F3, 0, 1, 1, 0, -1, 2).to_structure_matrix())
    assert is_endo_commutative_definitional(StructureMatrix.zero(F3))
    assert not is_endo_commutative_definitional(sp(F3, 0, 0, 1, 1, 1, 0).to_structure_matrix())


def test_ec_definitional_needs_finite_field():
    with pytest.raises(InfiniteFieldError):
        is_endo_commutative_definitional(StructureMatrix.zero(Q))


def test_ec_closed_form_examples():
    assert is_endo_commutative_straight(sp(Q, 0, 1, 1, 0, -1, 2))
    assert is_endo_commutative_straight(sp(Q, 0, 0, 0, 0, 0, 0))
    assert is_endo_commutative_straight(sp(F5, 0, -1, 1, 1, -1, 0))
    f2x = field_from_spec("F2(X)")
    X = f2x.parse("X")
    assert is_endo_commutative_straight(
        SParams(f2x.zero(), X, X, f2x.zero(), X, f2x.one()))


def test_ec_closed_form_equals_definitional_exhaustive_f2():
    for codes in range(2**6):
        vals = [(codes >> i) & 1 for i in range(6)]
        S = sp(F2, *vals)
        assert is_endo_commutative_straight(S) == \
            is_endo_commutative_definitional(S.to_structure_matrix())


def test_ec_closed_form_equals_definitional_random_f5():
    rng = random.Random(11)
    for _ in range(10_000):
        S = sp(F5, *(rng.randrange(5) for _ in range(6)))
        assert is_endo_commutative_straight(S) == \
            is_endo_commutative_definitional(S.to_structure_matrix())


def _naive_ec_definitional(A):
    # independent slow route: multiply() over FieldElements, all pairs
    field = A.field
    els = [element(field, u, v) for u in field.elements() for v in field.elements()]
    for x in els:
        x2 = multiply(A, x, x)
        for y in els:
            xy = multiply(A, x, y)
            if multiply(A, x2, multiply(A, y, y)) != multiply(A, xy, xy):
                return False
    return True


def test_coded_definitional_matches_naive_route():
    # the table-driven scan is the oracle elsewhere; pin it against a
    # plain FieldElement implementation
    for codes in range(2**8):
        rows = [[(codes >> i) & 1 for i in (2 * j, 2 * j + 1)] for j in range(4)]
        A = StructureMatrix.from_ints(F2, rows)
        assert is_endo_commutative_definitional(A) == _naive_ec_definitional(A)
    rng = random.Random(2024)
    for _ in range(40):
        A = StructureMatrix.from_ints(
            F4, [[rng.randrange(4) for _ in range(2)] for _ in range(4)])
        assert is_endo_commutative_definitional(A) == _naive_ec_definitional(A)


# ---------------------------------------------------------------------------
# curled / straight
# ---------------------------------------------------------------------------

def test_sform_is_never_curled():
    assert not is_curled(sp(F3, 0, 1, 1, 0, -1, 2).to_structure_matrix())
    assert not is_curled(sp(F3, 1, 2, 0, 1, 2, 0).to_structure_matrix())


def test_zero_algebra_is_curled():
    assert is_curled(StructureMatrix.zero(F3))


def test_split_idempotents_curledness_depends_on_field():
    # e^2=e, f^2=f, ef=fe=0: every x in F2^2 has x^2 = x, but over F3 the
    # element e+2f squares to e+f, independent of it
    rows = ((1, 0), (0, 1), (0, 0), (0, 0))
    assert is_curled(StructureMatrix.from_ints(F2, rows))
    assert not is_curled(StructureMatrix.from_ints(F3, rows))


def _curled_by_definition(A):
    """u (x^2)_f - v (x^2)_e = 0 for every x = u e + v f, through `multiply`."""
    for u in A.field.elements():
        for v in A.field.elements():
            x = element(A.field, u, v)
            x2 = multiply(A, x, x)
            if u * x2.v - v * x2.u:
                return False
    return True


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "F7"])
def test_is_curled_matches_the_definition(spec):
    field = field_from_spec(spec)
    q = field.order()
    rng = random.Random(q)

    def rand():
        return field.element_of_code(rng.randrange(q))

    def curled():
        # x^2 = phi(x) x for the linear form phi(e) = al, phi(f) = be
        al, be, r, s = rand(), rand(), rand(), rand()
        z = field.zero()
        return StructureMatrix(field, ((al, z), (z, be), (r, s), (be - r, al - s)))

    matrices = [StructureMatrix.zero(field)]
    matrices += [curled() for _ in range(20)]
    matrices += [StructureMatrix(field, [[rand(), rand()] for _ in range(4)])
                 for _ in range(40)]
    verdicts = [is_curled(A) for A in matrices]
    assert verdicts == [_curled_by_definition(A) for A in matrices]
    assert verdicts[0] and all(verdicts[1:21])
    assert not all(verdicts[21:])


def test_is_curled_rewrites_once_per_line(monkeypatch):
    import endoclass.algebra as algebra
    calls = []
    rewrite = algebra.straight_rewrite

    def counting_rewrite(*args):
        calls.append(args[2:])
        return rewrite(*args)
    monkeypatch.setattr(algebra, "straight_rewrite", counting_rewrite)
    assert is_curled(StructureMatrix.zero(field_from_spec("F256")))
    assert 0 < len(calls) <= 256 + 1


def test_to_straight_form_identity_on_sforms():
    S = sp(F5, 0, 1, 1, 0, -1, 2)
    params, X = to_straight_form(S.to_structure_matrix())
    assert params == S
    assert X == Transform.identity(F5)


def test_to_straight_form_round_trip():
    A = StructureMatrix.from_ints(F3, ((1, 0), (1, 1), (0, 0), (0, 0)))
    params, X = to_straight_form(A)
    assert transform(A, X) == params.to_structure_matrix()


def test_to_straight_form_random_round_trip():
    rng = random.Random(3)
    found = 0
    for _ in range(60):
        A = StructureMatrix.from_ints(
            F5, [[rng.randrange(5) for _ in range(2)] for _ in range(4)])
        res = to_straight_form(A)
        if res is None:
            assert is_curled(A)
            continue
        params, X = res
        found += 1
        assert transform(A, X) == params.to_structure_matrix()
        assert params.to_structure_matrix().rows[0] == (F5.zero(), F5.one())
    assert found > 30


def test_to_straight_form_curled_returns_none():
    assert to_straight_form(StructureMatrix.zero(F3)) is None


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert rank(sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()) == 2
    assert rank(StructureMatrix.zero(F5)) == 0
    only_e2 = StructureMatrix.from_ints(F5, ((0, 1), (0, 0), (0, 0), (0, 0)))
    assert rank(only_e2) == 1


def test_rank_matches_pac_pattern_for_sforms():
    # an S-form has rank 2 iff one of p, a, c is nonzero
    for codes in range(3**6):
        vals = []
        c = codes
        for _ in range(6):
            c, r = divmod(c, 3)
            vals.append(r)
        S = sp(F3, *vals)
        expected = 2 if (vals[0] or vals[2] or vals[4]) else 1
        assert rank(S.to_structure_matrix()) == expected


@pytest.mark.parametrize("spec, t", [("Q", "1/3"), ("F2(X)", "X+1")])
def test_rank_over_infinite_fields(spec, t):
    field = field_from_spec(spec)
    one, zero, t = field.one(), field.zero(), field.parse(t)
    # t*t != 1, so the rows (1, t) and (t, 1) are independent
    assert rank(StructureMatrix(field, ((one, t), (t, one), (zero, zero), (zero, zero)))) == 2
    # every row is a multiple of (1, t)
    assert rank(StructureMatrix(field, ((zero, zero), (t, t * t), (one, t), (t, t * t)))) == 1
    assert rank(StructureMatrix.zero(field)) == 0


# ---------------------------------------------------------------------------
# type taxonomy
# ---------------------------------------------------------------------------

def test_type_of_examples():
    assert type_of(sp(F5, 0, 1, 1, 0, -1, 2)) is AlgebraType.II_1
    assert type_of(sp(F3, 0, 0, 0, 0, 0, 0)) is AlgebraType.NOT_RANK_2
    assert type_of(sp(F3, 1, 0, 0, 0, 0, 0)) is AlgebraType.I_100
    assert type_of(sp(F3, 1, 0, 0, 1, 1, 0)) is AlgebraType.II_2
    assert type_of(sp(F3, 1, 0, 1, 0, 0, 1)) is AlgebraType.II_3
    assert type_of(sp(F3, 1, 2, 1, 0, 1, 0)) is AlgebraType.III


def test_pattern_type_reads_the_zero_pattern_only():
    # the check of endo-commutativity is the caller's
    assert pattern_type(sp(F5, 0, 1, 1, 0, -1, 2)) is AlgebraType.II_1
    assert pattern_type(sp(F3, 1, 2, 1, 0, 1, 0)) is AlgebraType.III
    non_ec = sp(F3, 0, 0, 1, 1, 0, 0)
    assert not is_endo_commutative_straight(non_ec)
    assert pattern_type(non_ec) is AlgebraType.I_010


def test_type_of_rejects_non_ec():
    with pytest.raises(NotEndoCommutative):
        type_of(sp(F3, 0, 0, 1, 1, 1, 0))


def test_type_partition_over_f3():
    # every EC S-form lands in exactly one bucket and the bucket's
    # vanishing pattern holds on it; I.001 and I.010 are forced empty
    # because the closed form contains p(d-b) = a^2 - c^2, so p = 0
    # requires a^2 = c^2
    pattern_of = {
        AlgebraType.NOT_RANK_2: (False, False, False),
        AlgebraType.I_001: (False, False, True),
        AlgebraType.I_010: (False, True, False),
        AlgebraType.I_100: (True, False, False),
        AlgebraType.II_1: (False, True, True),
        AlgebraType.II_2: (True, False, True),
        AlgebraType.II_3: (True, True, False),
        AlgebraType.III: (True, True, True),
    }
    seen = {t: 0 for t in AlgebraType}
    for codes in range(3**6):
        vals = []
        c = codes
        for _ in range(6):
            c, r = divmod(c, 3)
            vals.append(r)
        S = sp(F3, *vals)
        if not is_endo_commutative_straight(S):
            continue
        t = type_of(S)
        seen[t] += 1
        assert pattern_of[t] == (bool(S.p), bool(S.a), bool(S.c))
    assert {t.value: n for t, n in seen.items()} == {
        "I.001": 0, "I.010": 0, "I.100": 2, "II1": 16,
        "II2": 4, "II3": 4, "III": 8, "not-rank-2": 11}


# ---------------------------------------------------------------------------
# II1 subclasses
# ---------------------------------------------------------------------------

def test_ii1_subclass_examples():
    assert ii1_subclass(sp(F5, 0, 1, 1, 0, -1, 2)) == 1
    assert ii1_subclass(sp(F5, 0, -1, 1, 1, -1, 0)) == 3
    # d != 0 member of subclass 4 over F5: b=1, d=2 -> a=(4-1)/4
    quarter = F5.from_int(4).inverse()
    b, d = F5.from_int(1), F5.from_int(2)
    a = (d * d - b * b) * quarter
    S = SParams(F5.zero(), (b + d) * (b + d) * quarter, a, b, -a, d)
    assert ii1_subclass(S) == 4


def test_ii1_subclass_rejects_non_ec():
    # q^2+a^2+q*b^2 = 1+1+1 = 1 != 0 over F2, so not endo-commutative
    with pytest.raises(NotEndoCommutative):
        ii1_subclass(sp(F2, 0, 1, 1, 1, 1, 1))


@pytest.mark.parametrize("params, tp", [
    ((1, 0, 2, 2, 2, 2), AlgebraType.III),
    ((1, 0, 0, 1, 1, 0), AlgebraType.II_2),
    ((1, 0, 1, 0, 0, 1), AlgebraType.II_3),
], ids=["III", "II2", "II3"])
def test_ii1_subclass_rejects_wrong_type(params, tp):
    S = sp(F3, *params)
    assert type_of(S) is tp  # endo-commutative, so the type check is what refuses it
    with pytest.raises(ValueError, match=rf"^{re.escape(str(S))} is not of type II1$"):
        ii1_subclass(S)


def test_ii1_subclass_rejects_endo_commutative_other_type():
    S = sp(F3, 1, 0, 0, 0, 0, 0)
    assert type_of(S) is AlgebraType.I_100
    with pytest.raises(ValueError, match=r"^S\(1, 0, 0, 0, 0, 0\) is not of type II1$"):
        ii1_subclass(S)


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------

def test_sparams_json_round_trip():
    S = sp(F5, 0, 1, 1, 0, -1, 2)
    assert SParams.from_json(F5, S.to_json()) == S
    f4 = F4
    S2 = SParams(f4.zero(), f4.generator(), f4.generator(), f4.zero(),
                 f4.generator(), f4.one())
    assert SParams.from_json(f4, S2.to_json()) == S2


def test_structure_matrix_json_round_trip():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    obj = A.to_json()
    assert obj["field"] == "F5"
    assert StructureMatrix.from_json(obj) == A


def test_multiplication_table_layout():
    A = sp(Q, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    text = multiplication_table_text(A)
    lines = text.splitlines()
    assert len(lines) == 2
    assert "f" in lines[0] and "e" in lines[0]
    assert "-e+2f" in lines[1]


def test_multiplication_table_char2():
    t = F4.generator()
    A = SParams(F4.zero(), t, t, F4.zero(), t, F4.one()).to_structure_matrix()
    text = multiplication_table_text(A)
    assert "(w)e" in text or "we" in text
