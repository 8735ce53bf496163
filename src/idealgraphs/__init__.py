"""Finite graded rings and the intersection graphs of their left ideals.

Every public name is exported lazily through a module ``__getattr__`` (PEP
562): its first access imports the module that defines it.  So importing
the package, or one of its modules such as the command line, loads only
what that module itself needs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "AlgebraError",
        "GraphTooLarge",
        "IdealCountLimit",
        "InvalidConstruction",
        "IsoViolation",
        "NotASubring",
        "NotDirectSum",
        "NotEFaithful",
        "NotIntegerGraded",
        "NotSubgroup",
        "ProductEscapes",
        "SchemaError",
        "SizeLimit",
        "UngradedIdeal",
        "UnityNotInIdentityComponent",
        "UnknownConstructor",
        "UnknownTheorem",
        "WellDefinednessViolation",
        "WrongConstruction",
        "WrongInstanceKind",
    ),
    "ring_core": (
        "FiniteGroup",
        "FiniteModule",
        "FiniteRing",
        "algebra_over_zn",
        "cyclic_group",
        "direct_product",
        "group_from_table",
        "group_ring",
        "idealization",
        "make_cyclic_ring",
        "module_self",
        "module_zn_quotient",
        "polynomial_quotient",
        "ring_from_tables",
        "subring_on",
        "unital_ring_on",
    ),
    "grading": (
        "INTEGERS",
        "GradeGroup",
        "Grading",
        "classify",
        "decompose",
        "explicit_grading",
        "finite_grades",
        "group_ring_grading",
        "idealization_grading",
        "is_e_faithful",
        "is_faithful",
        "is_first_strong",
        "is_sigma_faithful",
        "is_strong",
        "poly_quotient_integer_grading",
        "support_is_subgroup",
        "trivial_grading",
        "validate_grading",
    ),
    "ideal_lattice": (
        "IdealSet",
        "enumerate_graded_left_ideals",
        "enumerate_left_ideals",
        "enumerate_submodules",
        "generated_left_ideal",
        "ideal_label",
        "ideal_power",
        "ideal_product",
        "ideal_sum",
        "internal_decompositions",
        "is_essential",
        "is_graded",
        "is_graded_division",
        "is_graded_domain",
        "is_graded_field",
        "is_graded_indecomposable",
        "is_graded_local",
        "is_graded_reduced",
        "is_left_ideal",
        "is_maximal",
        "is_minimal",
        "maximal_chain_term_counts",
        "maximal_members",
        "min_generator_count",
        "minimal_members",
        "nontrivial_proper",
    ),
    "graph_engine": (
        "Graph",
        "build_intersection_graph",
        "classify_shape",
        "clique_number",
        "connected_components",
        "diameter",
        "domination_number",
        "export_graph",
        "girth",
        "graph_from_edges",
        "graph_invariants",
        "is_complete",
        "is_connected",
        "is_null",
        "is_planar",
        "is_regular",
        "is_star",
        "star_center",
    ),
    "structure_maps": (
        "SimPartition",
        "identity_component_ring",
        "induced_factor_grading",
        "phi_iso_check",
        "quotient_graph",
        "sim_partition",
    ),
    "ordered_grading": (
        "leading_ideal",
        "leading_part",
    ),
    "instance": (
        "Instance",
    ),
    "theorem_suite": (
        "TheoremReport",
        "run_all",
        "run_check",
        "theorem_ids",
        "theorem_summary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
