"""chainlab: finite combinatorics of almost chainable relational structures.

The library decides chainability of finite relational structures over frozen
sets, searches chaining orders and minimal kernels, computes ages and
profiles, extracts quantifier-free definitions over a linear-order companion
with marked elements, builds and evaluates the associated sentence families,
and classifies families of chaining orders against the three known shapes
(all orders, rotations of a base, bounded end perturbations).
"""

from .chainability import (
    ChainWitness,
    KernelReport,
    ProfileReport,
    age_forms,
    age_representatives,
    age_subset,
    check_profile_bound,
    check_trace_isomorphism,
    find_chain_order,
    is_chainable_with,
    kernel,
    profile,
    witness_companion,
)
from .core import (
    Companion,
    Signature,
    Structure,
    companion_as_structure,
    companion_structure,
    induced_substructure,
    reduct,
    signature,
    structure,
    validate_companion_axioms,
)
from .errors import (
    ChainlabError,
    DomainError,
    FormulaError,
    NotSimplyDefinableError,
    ParseError,
    UnsupportedSizeError,
)
from .formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    eval_formula,
    format_formula,
    free_variables,
    map_atoms,
    parse_formula,
)
from .gpw import (
    ChainOrderFamily,
    GpwClassification,
    classify_family,
    enumerate_chaining_orders,
    expand_classification,
)
from .logic import (
    LiteralType,
    QfDefinitionSet,
    age_sentence,
    apply_definitions,
    check_age_sentence_agreement,
    definition_formula,
    endpoint_sentences,
    extract_definitions,
    literal_type,
    quotient_translate,
    render_literal_type,
    star_translate,
    theory_star_sentences,
    verify_definitions,
)
from .morphism import (
    CanonicalForm,
    PartialMap,
    canonical_form,
    enumerate_partial_automorphisms,
    find_isomorphism,
    is_partial_automorphism,
    substructure_forms,
)

__version__ = "0.1.0"
