"""endoclass: exact classification toolkit for 2-dimensional
endo-commutative straight algebras over small fields.

Structure matrices, the straight normal form S(p,q,a,b,c,d), the GL2
lift and change-of-basis action, five equivalence relations on K*, and
exhaustive verification that the predicted type-II1 families match the
brute-force isomorphism partition.

The names below are loaded from their submodules on first use (PEP 562),
so `import endoclass` runs no submodule until one of them is needed.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fields": (
        "FieldDescriptor", "Field", "FieldElement", "FieldError",
        "FieldMismatchError", "InfiniteFieldError",
        "field_make", "field_from_spec", "is_square"),
    "algebra": (
        "AlgebraElement", "AlgebraType", "NotEndoCommutative", "SParams",
        "StructureMatrix", "basis", "element", "ii1_subclass", "is_curled",
        "is_endo_commutative_definitional", "is_endo_commutative_straight",
        "multiplication_table_text", "multiply", "rank",
        "to_straight_form", "type_of"),
    "iso": (
        "LiftedTransform", "SingularTransformError", "Transform",
        "are_isomorphic", "check_iso_system", "lift", "transform"),
    "equiv": (
        "CarrierError", "RelationId", "RepSystem", "UnsupportedRelation",
        "bounded_refutation_search", "carrier_elements", "related", "rep_system"),
    "classify": (
        "ClassificationReport", "FamilyLabel", "IsoClass", "OversizedFieldError",
        "SubclassInventory", "enumerate_subclasses", "enumerate_type",
        "enumerate_type_ii1", "iso_classes", "theorem_families",
        "verify_classification"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
