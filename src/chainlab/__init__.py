"""chainlab: finite combinatorics of almost chainable relational structures.

The library decides chainability of finite relational structures over frozen
sets, searches chaining orders and minimal kernels, computes ages and
profiles, extracts quantifier-free definitions over a linear-order companion
with marked elements, builds and evaluates the associated sentence families,
and classifies families of chaining orders against the three known shapes
(all orders, rotations of a base, bounded end perturbations).

``import chainlab`` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a caller pays only for what it uses.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "chainability": "ChainWitness KernelReport ProfileReport age_forms age_representatives"
    " age_subset check_profile_bound check_trace_isomorphism find_chain_order"
    " is_chainable_with kernel profile witness_companion",
    "core": "Companion Signature Structure companion_as_structure companion_structure"
    " induced_substructure reduct signature structure validate_companion_axioms",
    "errors": "ChainlabError DomainError FormulaError NotSimplyDefinableError ParseError"
    " UnsupportedSizeError",
    "formulas": "And Eq Exists Forall Formula Not Or Rel eval_formula format_formula"
    " map_atoms parse_formula",
    "gpw": "ChainOrderFamily GpwClassification classify_family enumerate_chaining_orders"
    " expand_classification",
    "logic": "LiteralType QfDefinitionSet age_sentence apply_definitions"
    " check_age_sentence_agreement definition_formula extract_definitions literal_type"
    " quotient_translate render_literal_type star_translate theory_star_sentences"
    " verify_definitions",
    "morphism": "PartialMap canonical_form enumerate_partial_automorphisms"
    " find_isomorphism is_partial_automorphism substructure_forms",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
