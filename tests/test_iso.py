import random

import pytest

from endoclass import (AlgebraType, FieldMismatchError, InfiniteFieldError, LiftedTransform,
                       SingularTransformError, SParams, Transform,
                       are_isomorphic, check_iso_system, field_from_spec,
                       is_endo_commutative_straight, lift, rank, transform,
                       theorem_families)
from endoclass import algebra, iso
from endoclass.classify import enumerate_type_ii1, iso_classes
from endoclass.iso import gl2_lifted

from common import (is_type, lifted_identity, lifted_inverse, lifted_product, random_element,
                    random_transform, sp, tr)

F3 = field_from_spec("F3")
F5 = field_from_spec("F5")
Q = field_from_spec("Q")


def _all_gl2(field):
    out = []
    for x in field.elements():
        for y in field.elements():
            for z in field.elements():
                for w in field.elements():
                    if x * w != y * z:
                        out.append(Transform(x, y, z, w))
    return out


# ---------------------------------------------------------------------------
# transforms and lifts
# ---------------------------------------------------------------------------

def test_singular_transform_rejected():
    with pytest.raises(SingularTransformError):
        tr(F5, 1, 2, 2, 4)


def test_lift_identity():
    assert lift(Transform.identity(F5)) == lifted_identity(F5)


def test_lift_swap():
    L = lift(tr(F5, 0, 1, 1, 0))
    expected = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert [[int(str(v)) for v in row] for row in L.entries] == expected


def test_lift_diagonal():
    L = lift(tr(F5, 2, 0, 0, 1))
    expected = [[4, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    assert [[int(str(v)) for v in row] for row in L.entries] == expected


def test_lift_homomorphism_exhaustive_f3():
    gl2 = _all_gl2(F3)
    assert len(gl2) == 48  # (3^2 - 1)(3^2 - 3)
    lifts = {X.codes(): lift(X) for X in gl2}
    for X in gl2:
        for Y in gl2:
            assert lift(X @ Y) == lifted_product(lifts[X.codes()], lifts[Y.codes()])


def test_lift_homomorphism_random_f5():
    rng = random.Random(99)
    for _ in range(300):
        X = random_transform(F5, rng)
        Y = random_transform(F5, rng)
        assert lift(X @ Y) == lifted_product(lift(X), lift(Y))


def test_gauss_inverse_agrees_with_lift_of_inverse():
    rng = random.Random(5)
    for field in (F5, field_from_spec("F9")):
        for _ in range(60):
            X = random_transform(field, rng)
            assert lifted_inverse(lift(X)) == lift(X.inverse())


@pytest.mark.parametrize("spec", ["Q", "F2(X)"])
def test_gauss_inverse_agrees_with_lift_of_inverse_over_infinite_fields(spec):
    field = field_from_spec(spec)
    rng = random.Random(6)
    count = 0
    while count < 40:
        X = [random_element(field, rng) for _ in range(4)]
        if X[0] * X[3] != X[1] * X[2]:
            X = Transform(*X)
            assert lifted_inverse(lift(X)) == lift(X.inverse())
            count += 1


@pytest.mark.parametrize("spec", ["F5", "Q", "F2(X)"])
def test_singular_lifted_transform_has_no_inverse(spec):
    field = field_from_spec(spec)
    one, zero = field.one(), field.zero()
    rows = [[zero] * 4 for _ in range(4)]
    with pytest.raises(SingularTransformError):
        lifted_inverse(LiftedTransform(field, rows))
    # rank 3: the identity with its last row copied from the first
    rows = [[one if i == j else zero for j in range(4)] for i in range(3)]
    with pytest.raises(SingularTransformError):
        lifted_inverse(LiftedTransform(field, rows + [rows[0]]))


# ---------------------------------------------------------------------------
# the change-of-basis action
# ---------------------------------------------------------------------------

def test_transform_identity_fixes():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    assert transform(A, Transform.identity(F5)) == A


def test_transform_known_witness():
    # 4a = d^2 members collapse onto S(0,1,1,0,-1,2) via ((1,(d-2)/2),(0,a))
    src = sp(F5, 0, 4, 4, 0, -4, 4)
    X = tr(F5, 1, 1, 0, 4)
    assert transform(src.to_structure_matrix(), X) == \
        sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()


def test_transform_composition():
    rng = random.Random(17)
    for _ in range(40):
        A = sp(F5, *(rng.randrange(5) for _ in range(6))).to_structure_matrix()
        X = random_transform(F5, rng)
        Y = random_transform(F5, rng)
        assert transform(transform(A, X), Y) == transform(A, X @ Y)


def test_transform_from_codes_round_trips():
    F256 = field_from_spec("F256")
    X = Transform.from_codes(F256, (3, 200, 0, 255))
    assert X.codes() == (3, 200, 0, 255)
    assert Transform.from_codes(F5, (1, 2, 0, 4)) == tr(F5, 1, 2, 0, 4)
    with pytest.raises(SingularTransformError):
        Transform.from_codes(F5, (1, 2, 2, 4))


def test_transform_field_mismatch():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    with pytest.raises(FieldMismatchError):
        transform(A, Transform.identity(F3))


def test_lifted_transform_field_mismatch():
    with pytest.raises(FieldMismatchError):
        lifted_product(lifted_identity(F5), lifted_identity(F3))


def test_equal_lifts_hash_equal():
    L = lift(tr(F5, 1, 2, 0, 4))
    M = lift(tr(F5, 1, 2, 0, 4))
    assert L == M and hash(L) == hash(M)
    assert L != lift(Transform.identity(F5)) and L != L.entries
    assert repr(lifted_identity(F3)) == (
        "LiftedTransform(((1 @ F3, 0 @ F3, 0 @ F3, 0 @ F3), (0 @ F3, 1 @ F3, 0 @ F3, 0 @ F3), "
        "(0 @ F3, 0 @ F3, 1 @ F3, 0 @ F3), (0 @ F3, 0 @ F3, 0 @ F3, 1 @ F3)))")


def test_are_isomorphic_field_mismatch():
    with pytest.raises(FieldMismatchError):
        are_isomorphic(sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix(),
                       sp(F3, 0, 1, 1, 0, -1, 2).to_structure_matrix())


# ---------------------------------------------------------------------------
# the eight-equation witness check
# ---------------------------------------------------------------------------

def test_check_iso_system_field_mismatch():
    S = sp(F5, 0, -1, 1, 1, -1, 0)
    with pytest.raises(FieldMismatchError):
        check_iso_system(S, sp(F3, 0, -1, 1, 1, -1, 0), Transform.identity(F5))
    with pytest.raises(FieldMismatchError):
        check_iso_system(S, S, Transform.identity(F3))


def test_check_iso_system_identity_iff_equal():
    S = sp(F5, 0, -1, 1, 1, -1, 0)
    assert check_iso_system(S, S, Transform.identity(F5))
    other = sp(F5, 0, 1, 1, 0, -1, 2)
    assert not check_iso_system(S, other, Transform.identity(F5))


def test_check_iso_system_bridge_instance():
    # t = 2 over F5: S(0,(t+1)/4,...,1) onto S(0,t,t,0,-t,0)
    # via ((1/2, 1/2t), (0, (1+t)/4t)) = ((3,4),(0,1))
    lhs = sp(F5, 0, 2, 2, 0, -2, 1)
    rhs = sp(F5, 0, 2, 2, 0, -2, 0)
    assert check_iso_system(lhs, rhs, tr(F5, 3, 4, 0, 1))


def iso_equations(S, S2, X):
    """The truth of each of the eight equations of `check_iso_system`."""
    p, q, a, b, c, d = S.astuple()
    p2, q2, a2, b2, c2, d2 = S2.astuple()
    x, y, z, w = X.entries()
    return [p2 * y * y + (a2 + c2) * x * y == z,
            x * x + q2 * y * y + (b2 + d2) * x * y == w,
            p2 * w * w + (a2 + c2) * z * w == p * x + q * z,
            z * z + q2 * w * w + (b2 + d2) * z * w == p * y + q * w,
            p2 * y * w + a2 * x * w + c2 * y * z == a * x + b * z,
            x * z + q2 * y * w + b2 * x * w + d2 * y * z == a * y + b * w,
            p2 * y * w + a2 * y * z + c2 * x * w == c * x + d * z,
            x * z + q2 * y * w + b2 * y * z + d2 * x * w == c * y + d * w]


def test_each_iso_equation_alone_rejects_some_input():
    # with X = 1, equations 3-8 read p2 = p, q2 = q, ..., d2 = d, so an
    # S2 that differs from S in one coordinate fails exactly one of them
    S = sp(F5, 1, 2, 3, 4, 0, 1)
    cases = []
    for i in range(6):
        coords = [1, 2, 3, 4, 0, 1]
        coords[i] += 1
        cases.append((2 + i, S, sp(F5, *coords), Transform.identity(F5)))
    # X = ((1,0),(1,1)) fails equation 1 whatever S and S2 are; this S2
    # satisfies the other seven (a2 = a + b, b2 = b - 1, c2 = c + d, ...)
    cases.append((0, sp(F5, 0, 0, 0, 0, 0, 0), sp(F5, 0, 1, 0, -1, 0, -1), tr(F5, 1, 0, 1, 1)))
    # X = ((1,0),(0,2)) fails equation 2 (1 != 2); S2 = (p/4, q/2, a/2, b, c/2, d)
    # satisfies the rest
    cases.append((1, sp(F5, 1, 1, 1, 1, 1, 1), sp(F5, 4, 3, 3, 1, 3, 1), tr(F5, 1, 0, 0, 2)))
    assert sorted(i for i, *_ in cases) == list(range(8))
    for i, S, S2, X in cases:
        holds = iso_equations(S, S2, X)
        assert holds == [j != i for j in range(8)], i
        assert not check_iso_system(S, S2, X), i


def test_check_iso_system_matches_transform():
    rng = random.Random(23)
    for field in (F3, F5):
        q = field.order()
        for _ in range(300):
            S = sp(field, *(rng.randrange(q) for _ in range(6)))
            S2 = sp(field, *(rng.randrange(q) for _ in range(6)))
            X = random_transform(field, rng)
            assert check_iso_system(S, S2, X) == \
                (transform(S.to_structure_matrix(), X) == S2.to_structure_matrix())


# ---------------------------------------------------------------------------
# brute-force search
# ---------------------------------------------------------------------------

def test_are_isomorphic_self_gives_first_witness():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    w = are_isomorphic(A, A)
    assert w is not None
    assert transform(A, w) == A
    # no lexicographically earlier witness exists
    for X in _all_gl2(F5):
        if X.codes() < w.codes():
            assert transform(A, X) != A


def test_are_isomorphic_distinct_families():
    A = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    B = sp(F5, 0, 4, -4, -4, 4, 0).to_structure_matrix()
    assert are_isomorphic(A, B) is None


def test_are_isomorphic_minus4_stratum():
    # S(0,-t,t,t,-t,0) with t=4 vs the t=-4=1 member: -4 is a singleton
    # stratum, so exhausted search refutes the isomorphism
    A = sp(F5, 0, -4, 4, 4, -4, 0).to_structure_matrix()
    B = sp(F5, 0, 4, -4, -4, 4, 0).to_structure_matrix()
    assert are_isomorphic(A, B) is None


def test_are_isomorphic_positive_cross_check():
    src = sp(F5, 0, 4, 4, 0, -4, 4).to_structure_matrix()
    dst = sp(F5, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    w = are_isomorphic(src, dst)
    assert w is not None and transform(src, w) == dst


def test_negative_pair_rewrites_once_per_projective_point(monkeypatch):
    F31 = field_from_spec("F31")
    (_, lhs), (_, rhs) = theorem_families(F31)[:2]
    calls = {"straight_rewrite": 0, "sform_orbit": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)
    counted(algebra, "straight_rewrite")
    counted(iso, "sform_orbit")
    assert are_isomorphic(lhs.to_structure_matrix(), rhs.to_structure_matrix()) is None
    assert 0 < calls["straight_rewrite"] <= 31 + 1
    assert calls["sform_orbit"] == 0


def test_are_isomorphic_infinite_field_rejected():
    A = sp(Q, 0, 1, 1, 0, -1, 2).to_structure_matrix()
    with pytest.raises(InfiniteFieldError):
        are_isomorphic(A, A)


def test_gl2_enumeration_order_and_size():
    quadruples = list(gl2_lifted(F3))
    assert len(quadruples) == 48
    assert quadruples == sorted(quadruples)


def test_coded_transform_matches_element_route():
    # the integer-coded kernel (the products of X^-1's rows, read through
    # X^T) vs transform(), which multiplies by the lift of X^-1
    from endoclass.iso import apply_transform_codes
    rng = random.Random(404)
    for field in (F5, field_from_spec("F8")):
        t = field.tables()
        q = field.order()
        for _ in range(150):
            S = sp(field, *(field.element_of_code(rng.randrange(q)) for _ in range(6)))
            A = S.to_structure_matrix()
            X = random_transform(field, rng)
            xc = X.codes()
            coded = apply_transform_codes(t, A.codes(), *xc)
            assert coded == transform(A, X).codes()


# ---------------------------------------------------------------------------
# equivalence-relation structure of isomorphism on type-II1 algebras
# ---------------------------------------------------------------------------

def test_isomorphism_is_equivalence_on_ii1_f3():
    algebras = enumerate_type_ii1(F3)
    n = len(algebras)
    assert n == 16
    mats = [sp_.to_structure_matrix() for sp_ in algebras]
    witness = [[are_isomorphic(mats[i], mats[j]) for j in range(n)] for i in range(n)]
    rel = [[w is not None for w in row] for row in witness]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            if witness[i][j] is not None:
                assert transform(mats[i], witness[i][j]) == mats[j]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_rank_is_an_isomorphism_invariant_f3():
    # exhaustively over all EC S-forms: members of one isomorphism class
    # share the same rank
    all_ec = []
    for codes in range(3**6):
        vals = []
        c = codes
        for _ in range(6):
            c, r = divmod(c, 3)
            vals.append(r)
        S = sp(F3, *vals)
        if is_endo_commutative_straight(S):
            all_ec.append(S)
    assert len(all_ec) == 45
    for cls in iso_classes(all_ec):
        assert len({rank(m.to_structure_matrix()) for m in cls.members}) == 1


def test_type_bucket_depends_on_the_presentation():
    # the vanishing pattern of (p, a, c) is a property of the chosen
    # S-form, not of the isomorphism class: one algebra over F3 admits
    # both an I.100 presentation and a II1 presentation
    A = sp(F3, 1, 0, 0, 0, 0, 0)
    B = sp(F3, 0, 1, 2, 0, 2, 0)
    assert is_type(A, AlgebraType.I_100) and is_type(B, AlgebraType.II_1)
    w = are_isomorphic(A.to_structure_matrix(), B.to_structure_matrix())
    assert w is not None
    assert transform(A.to_structure_matrix(), w) == B.to_structure_matrix()
