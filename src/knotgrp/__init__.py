"""Knot groups from diagrams and torus parameters.

Builds Wirtinger presentations from knot diagrams, simplifies
presentations with a verifiable Tietze engine, solves the word problem
in the torus-knot groups ⟨a,b | a^m = b^n⟩ via unique normal forms, and
distinguishes knot groups through abelianization and homomorphism
counts into small finite groups.
"""

from .errors import BudgetError, InputError, KnotGrpError
from .geometry import RetractionParams, RetractionReport, retract, verify_retraction
from .invariants import (
    AbelianInvariants,
    FiniteGroupTable,
    IntMatrix,
    InvariantProfile,
    abelianization,
    builtin_table,
    determinant,
    evaluate_word_in_quotient,
    hom_count,
    invariant_profile,
    relation_matrix,
    smith_normal_form,
)
from .presentation import (
    AddGenerator,
    AddRelation,
    Presentation,
    RemoveGenerator,
    RemoveRelation,
    apply_tietze,
    auto_simplify,
    format_presentation,
    free_product_presentation,
    parse_presentation,
    torus_presentation,
)
from .torus import (
    AB,
    INFINITE,
    FreeProductNormalForm,
    TorusNormalForm,
    TorusParams,
    free_product_normal_form,
    is_central,
    max_torsion_order,
    order_in_free_product,
    torus_normal_form,
    words_equal_in_torus_group,
)
from .wirtinger import (
    Crossing,
    KnotDiagram,
    builtin_diagram,
    parse_diagram,
    wirtinger_presentation,
)
from .words import (
    Alphabet,
    Generator,
    Word,
    cyclically_equal,
    cyclically_reduce,
    format_word,
    parse_word,
)

__version__ = "0.1.0"
