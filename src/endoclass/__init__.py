"""endoclass: exact classification toolkit for 2-dimensional
endo-commutative straight algebras over small fields.

Structure matrices, the straight normal form S(p,q,a,b,c,d), the GL2
lift and change-of-basis action, five equivalence relations on K*, and
exhaustive verification that the predicted type-II1 families match the
brute-force isomorphism partition.
"""

__version__ = "0.1.0"

from .fields import (FieldDescriptor, Field, FieldElement, FieldError,
                     FieldMismatchError, InfiniteFieldError, field_make,
                     field_from_spec, enumerate_elements, is_square)
from .algebra import (AlgebraElement, AlgebraType, NotEndoCommutative, SParams,
                      StructureMatrix, basis, element, ii1_subclass, is_curled,
                      is_endo_commutative_definitional, is_endo_commutative_straight,
                      multiplication_table_text, multiply, rank, square,
                      to_straight_form, type_of)
from .iso import (LiftedTransform, SingularTransformError, Transform,
                  are_isomorphic, check_iso_system, lift, transform)
from .equiv import (CarrierError, RelationId, RepSystem, UnsupportedRelation,
                    bounded_refutation_search, carrier_elements, related,
                    rep_system)
from .classify import (ClassificationReport, FamilyLabel, IsoClass,
                       OversizedFieldError, SubclassInventory,
                       enumerate_subclasses, enumerate_type, enumerate_type_ii1,
                       iso_classes, theorem_families, verify_classification)

__all__ = [
    "__version__",
    "FieldDescriptor", "Field", "FieldElement", "FieldError",
    "FieldMismatchError", "InfiniteFieldError",
    "field_make", "field_from_spec", "enumerate_elements", "is_square",
    "AlgebraElement", "AlgebraType", "NotEndoCommutative", "SParams",
    "StructureMatrix", "basis", "element", "ii1_subclass", "is_curled",
    "is_endo_commutative_definitional", "is_endo_commutative_straight",
    "multiplication_table_text", "multiply", "rank", "square",
    "to_straight_form", "type_of",
    "LiftedTransform", "SingularTransformError", "Transform",
    "are_isomorphic", "check_iso_system", "lift", "transform",
    "CarrierError", "RelationId", "RepSystem", "UnsupportedRelation",
    "bounded_refutation_search", "carrier_elements", "related", "rep_system",
    "ClassificationReport", "FamilyLabel", "IsoClass", "OversizedFieldError",
    "SubclassInventory", "enumerate_subclasses", "enumerate_type",
    "enumerate_type_ii1", "iso_classes", "theorem_families",
    "verify_classification",
]
