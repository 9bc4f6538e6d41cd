"""The straight-generator orbit scans against exhaustive GL2 search.

The reference below is the exhaustive per-seed orbit scan over all of
GL2 in lexicographic order: for each member it keeps the first X that
hits it, i.e. the lexicographically least witness.
"""

import pytest

from endoclass import are_isomorphic, field_from_spec, transform
from endoclass.classify import enumerate_type_ii1, iso_classes
from endoclass.iso import apply_transform_codes, gl2_lifted

from common import tr

SMALL_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16", "F17"]


def gl2_orbit_first_hits(t, gl2, src, key_to_index):
    hits = {}
    for x, y, z, w, L in gl2:
        j = key_to_index.get(apply_transform_codes(t, L, src, x, y, z, w))
        if j is not None and j not in hits:
            hits[j] = (x, y, z, w)
    return hits


def gl2_partition(algebras):
    """[(member indices, witness codes)] by exhaustive GL2 orbit scans
    seeded at the least unassigned member (duplicate-free input)."""
    field = algebras[0].field
    t = field.tables()
    gl2 = list(gl2_lifted(field))
    codes = [(0, 1) + sp.codes() for sp in algebras]
    key_to_index = {key: i for i, key in enumerate(codes)}
    assert len(key_to_index) == len(codes)
    assigned = [False] * len(codes)
    out = []
    for i in range(len(codes)):
        if assigned[i]:
            continue
        hits = gl2_orbit_first_hits(t, gl2, codes[i], key_to_index)
        for j in hits:
            assigned[j] = True
        members = sorted(hits)
        out.append((members, [hits[j] for j in members]))
    return out


def gl2_first_witness(A, A2):
    t = A.field.tables()
    src, target = A.codes(), A2.codes()
    for x, y, z, w, L in gl2_lifted(A.field):
        if apply_transform_codes(t, L, src, x, y, z, w) == target:
            return (x, y, z, w)
    return None


@pytest.mark.parametrize("spec", SMALL_FIELDS)
def test_iso_classes_match_gl2_partition(spec):
    scan = enumerate_type_ii1(field_from_spec(spec))
    got = [(c.member_indices, [w.codes() for w in c.witnesses]) for c in iso_classes(scan)]
    assert got == gl2_partition(scan)


@pytest.mark.parametrize("spec", ["F3", "F4"])
def test_are_isomorphic_matches_gl2_search_on_sform_pairs(spec):
    mats = [s.to_structure_matrix() for s in enumerate_type_ii1(field_from_spec(spec))]
    for A in mats:
        for A2 in mats:
            w = are_isomorphic(A, A2)
            assert (w.codes() if w else None) == gl2_first_witness(A, A2)


def test_are_isomorphic_falls_back_on_non_sform_targets():
    F4 = field_from_spec("F4")
    mats = [s.to_structure_matrix() for s in enumerate_type_ii1(F4)]
    swap = tr(F4, 0, 1, 1, 0)
    positive = transform(mats[0], swap)
    negative = transform(mats[-1], swap)
    assert positive.codes()[:2] != (0, 1) and negative.codes()[:2] != (0, 1)
    w = are_isomorphic(mats[0], positive)
    assert w is not None and w.codes() == gl2_first_witness(mats[0], positive)
    assert are_isomorphic(mats[0], negative) is None
    assert gl2_first_witness(mats[0], negative) is None
