"""Knot groups from diagrams and torus parameters.

Builds Wirtinger presentations from knot diagrams, simplifies
presentations with a verifiable Tietze engine, solves the word problem
in the torus-knot groups ⟨a,b | a^m = b^n⟩ via unique normal forms, and
distinguishes knot groups through abelianization and homomorphism
counts into small finite groups.

The namespace is lazy: ``import knotgrp`` loads no submodule, and the
first use of an exported name imports the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BudgetError", "InputError", "KnotGrpError"),
    "geometry": ("RetractionParams", "RetractionReport", "retract", "verify_retraction"),
    "invariants": (
        "AbelianInvariants", "FiniteGroupTable", "IntMatrix", "InvariantProfile", "abelianization",
        "builtin_table", "determinant", "evaluate_word_in_quotient", "hom_count", "invariant_profile",
        "relation_matrix", "smith_normal_form",
    ),
    "presentation": (
        "AddGenerator", "AddRelation", "Presentation", "RemoveGenerator", "RemoveRelation",
        "apply_tietze", "auto_simplify", "format_presentation", "free_product_presentation",
        "parse_presentation", "torus_presentation",
    ),
    "torus": (
        "AB", "INFINITE", "FreeProductNormalForm", "TorusNormalForm", "TorusParams",
        "free_product_normal_form", "is_central", "max_torsion_order", "order_in_free_product",
        "torus_normal_form", "words_equal_in_torus_group",
    ),
    "wirtinger": (
        "Crossing", "KnotDiagram", "builtin_diagram", "parse_diagram", "wirtinger_presentation",
    ),
    "words": (
        "Alphabet", "Generator", "Word", "cyclically_equal", "cyclically_reduce", "format_word",
        "parse_word",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # PEP 562: runs only for names not yet in this module's globals, so each
    # export costs one import on first use. An unknown name raises, which also
    # lets ``from knotgrp import words`` fall back to importing the submodule.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
