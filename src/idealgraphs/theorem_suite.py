"""Machine checks for the structure statements behind the graded graphs.

Every check receives one Instance (a finite ring plus a validated grading),
decides whether its hypotheses hold there, and then verifies its conclusion
exhaustively.  Verdicts: PASS (hypotheses held, conclusion verified), FAIL
(hypotheses held, conclusion refuted, witness attached), VACUOUS (hypotheses
not met, nothing claimed), SKIPPED (only from run_all: the check wants a
construction kind this instance does not have).  Biconditional statements
additionally record per-direction verdicts, where a direction with a false
antecedent is VACUOUS on that instance.

A check is registered once, by `_register`, with its id, summary, hypothesis
and conclusion text and the construction kinds it needs.  Its body returns
only a Finding: whether the hypothesis held, and the directions, witness,
annotations and details found.  A single dispatcher behind run_check and
run_all writes every TheoremReport from the registered text and the Finding:
an unmet hypothesis gives VACUOUS, a FAIL direction gives FAIL, and anything
else PASS; the witness is kept only on a FAIL.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    IsoViolation,
    UnknownTheorem,
    WellDefinednessViolation,
    WrongInstanceKind,
)
from .grading import is_sigma_faithful, is_strong
from .graph_engine import (
    clique_number,
    diameter,
    domination_number,
    girth,
    is_complete,
    is_connected,
    is_null,
    is_planar,
    is_regular,
    is_star,
)
from .ideal_lattice import (
    IdealSet,
    generated_left_ideal,
    ideal_power,
    ideal_sum,
    is_essential,
    is_graded,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_reduced,
    is_maximal,
    is_minimal,
    known_sum,
    maximal_chain_term_counts,
    maximal_members,
    min_generator_count,
    minimal_members,
    nontrivial_proper,
)
from .instance import Instance, of_family
from .ordered_grading import leading_ideal
from .ring_core import FiniteModule, FiniteRing, index_mask, mask_members

# The checks reach structure_maps through Instance, which imports it on first
# use; loading it with the registry keeps that import out of the running time
# of whichever check comes first.
from . import structure_maps  # noqa: F401

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instance: str
    verdict: str
    hypothesis: str
    conclusion: str
    directions: tuple = ()
    witness: str | None = None
    annotations: tuple = ()
    details: dict = field(default_factory=dict)


class Finding(NamedTuple):
    """What one check found on one instance; the dispatcher adds the rest."""

    hypothesis_met: bool
    directions: Sequence[tuple[str, str]] = ()
    witness: str | None = None
    annotations: Sequence[str] = ()
    details: dict | None = None


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    kinds: tuple
    summary: str
    hypothesis: str
    conclusion: str
    run: Callable[[Instance], Finding]


_REGISTRY: "OrderedDict[str, TheoremCheck]" = OrderedDict()


def _register(
    theorem_id: str, summary: str, hypothesis: str, conclusion: str, kinds: tuple = ()
):
    def wrap(fn):
        _REGISTRY[theorem_id] = TheoremCheck(
            theorem_id=theorem_id,
            kinds=kinds,
            summary=summary,
            hypothesis=hypothesis,
            conclusion=conclusion,
            run=fn,
        )
        return fn

    return wrap


def _lookup(theorem_id: str) -> TheoremCheck:
    check = _REGISTRY.get(theorem_id)
    if check is None:
        raise UnknownTheorem(f"no check registered under id {theorem_id!r}")
    return check


def theorem_ids() -> list[str]:
    return list(_REGISTRY)


def theorem_summary(theorem_id: str) -> str:
    return _lookup(theorem_id).summary


def _direction(name: str, antecedent: bool, consequent: bool) -> tuple[str, str]:
    if not antecedent:
        return (name, VACUOUS)
    return (name, PASS if consequent else FAIL)


# ---------------------------------------------------------------------------
# closure of the graded ideal family


@_register(
    "lemma_b",
    "sums and intersections of graded left ideals are graded",
    "a pair of graded left ideals exists (the trivial ones always do)",
    "every pairwise sum and intersection is again graded",
)
def _check_lemma_b(inst: Instance) -> Finding:
    ring = inst.ring
    family = inst.graded_family
    by_order: dict[int, list[int]] = {}
    for ideal in family:
        by_order.setdefault(ideal.size, []).append(ideal.mask)
    witness = None
    pairs = 0
    # sums and intersections are symmetric, so each unordered pair is tested
    # once, at its first position in row-major order; a sum is read from the
    # family by its order and spanned only when the family lacks it
    for i, a in enumerate(family):
        for b in family[i:]:
            pairs += 1
            total = known_sum(by_order, a.mask, b.mask)
            if total is None:
                total = ideal_sum(ring, a.mask, b.mask)
            if not is_graded(inst.grading, total):
                witness = f"sum of {a.label()} and {b.label()}"
            elif not is_graded(inst.grading, a.mask & b.mask):
                witness = f"intersection of {a.label()} and {b.label()}"
            if witness:
                break
        if witness:
            break
    return Finding(
        True,
        [("closure", FAIL if witness else PASS)],
        witness,
        details={"pairs": pairs},
    )


@_register(
    "lemma_r1",
    "neighborhoods detect minimal, isolated, and essential vertices",
    "the graded graph has at least one vertex",
    "minimal vertices see exactly their proper supersets; isolated means "
    "minimal and maximal; essential means adjacent to everything else",
)
def _check_lemma_r1(inst: Instance) -> Finding:
    g = inst.graded_graph
    family = inst.graded_family
    laws = ("minimal_neighborhood", "isolated_iff_min_and_max", "essential_neighborhood")
    details = {"vertices": g.n}
    try:
        vertices = of_family(g, family).vertices
    except IsoViolation as exc:
        return Finding(True, [(law, FAIL) for law in laws], str(exc), details=details)
    ok_min = ok_iso = ok_ess = True
    witness = None
    for i, v in enumerate(vertices):
        neighbors = {vertices[j].mask for j in range(len(vertices)) if g.has_edge(i, j)}
        supersets = {
            w.mask for w in vertices if w.mask != v.mask and w.contains(v)
        }
        others = {w.mask for w in vertices if w.mask != v.mask}
        minimal = is_minimal(v, family)
        maximal = is_maximal(v, family)
        if minimal != (neighbors == supersets):
            ok_min, witness = False, f"{v.label()} (minimality vs neighborhood)"
        if (not neighbors) != (minimal and maximal):
            ok_iso, witness = False, f"{v.label()} (isolation vs min+max)"
        if is_essential(v, family) != (neighbors == others):
            ok_ess, witness = False, f"{v.label()} (essential vs neighborhood)"
    return Finding(
        bool(vertices),
        [(law, PASS if ok else FAIL) for law, ok in zip(laws, (ok_min, ok_iso, ok_ess))],
        witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# connectivity and diameter


@_register(
    "t1",
    "a disconnected graded graph is edgeless on at least two vertices",
    "always applicable",
    "disconnected exactly when edgeless with at least two vertices",
)
def _check_t1(inst: Instance) -> Finding:
    g = inst.graded_graph
    disconnected = not is_connected(g)
    shape = is_null(g) and g.n >= 2
    return Finding(
        True,
        [
            _direction("disconnected_implies_edgeless", disconnected, shape),
            _direction("edgeless_implies_disconnected", shape, disconnected),
            ("equivalence", PASS if disconnected == shape else FAIL),
        ],
        f"order {g.n}, size {g.edge_count}",
        details={"order": g.n, "size": g.edge_count},
    )


@_register(
    "c1",
    "with a disconnected graded graph, every vertex is principal, minimal, and maximal",
    "the graded graph is disconnected",
    "at least two graded minimal ideals exist and every vertex is a "
    "principal, minimal, and maximal graded ideal",
)
def _check_c1(inst: Instance) -> Finding:
    if is_connected(inst.graded_graph):
        return Finding(False)
    family = inst.graded_family
    minima = minimal_members(family)
    bad = next(
        (
            v
            for v in inst.graded_graph.vertices
            if not (
                min_generator_count(inst.ring, v.mask, limit=1) == 1
                and is_minimal(v, family)
                and is_maximal(v, family)
            )
        ),
        None,
    )
    return Finding(
        True,
        [
            ("two_minimal_ideals", PASS if len(minima) >= 2 else FAIL),
            ("each_vertex_principal_min_max", PASS if bad is None else FAIL),
        ],
        f"{len(minima)} graded minimal ideals" if bad is None else bad.label(),
    )


@_register(
    "c11",
    "commutative: disconnected graded graph means a product of two graded fields",
    "the ring is commutative",
    "the graded graph is disconnected exactly when the ring splits "
    "internally into two graded ideals that are graded fields",
)
def _check_c11(inst: Instance) -> Finding:
    if not inst.ring.commutative:
        return Finding(False)
    disconnected = not is_connected(inst.graded_graph)
    split = None
    for a, b in inst.graded_decompositions:
        if all(is_graded_field(inst.factor(x.mask).grading) for x in (a, b)):
            split = (a.label(), b.label())
            break
    details = {"field_split": split, "disconnected": disconnected}
    directions = [
        _direction("disconnected_implies_split", disconnected, split is not None),
        _direction("split_implies_disconnected", split is not None, disconnected),
        ("equivalence", PASS if disconnected == (split is not None) else FAIL),
    ]
    return Finding(True, directions, str(details), details=details)


def _maxima_apart(inst: Instance) -> tuple[list[IdealSet], str | None]:
    """The graded maximal ideals, and the last pair of them (in row-major
    order) that meets only in zero; None when every pair meets."""
    maxima = maximal_members(inst.graded_family)
    zero = inst.ring.zero_mask
    apart = [
        f"{a.label()} and {b.label()}"
        for a, b in itertools.combinations(maxima, 2)
        if a.mask & b.mask == zero
    ]
    return maxima, apart[-1] if apart else None


@_register(
    "c101",
    "commutative and connected: graded maximal ideals pairwise intersect",
    "the ring is commutative and the graded graph is connected",
    "every two graded maximal left ideals intersect beyond zero",
)
def _check_c101(inst: Instance) -> Finding:
    if not (inst.ring.commutative and is_connected(inst.graded_graph)):
        return Finding(False)
    maxima, apart = _maxima_apart(inst)
    annotations = []
    if len(maxima) < 2:
        annotations.append("fewer than two graded maximal ideals; no pairs")
    return Finding(
        True,
        [("pairwise_intersection", PASS if apart is None else FAIL)],
        apart,
        annotations,
    )


@_register(
    "t2",
    "a connected graded graph has diameter at most two",
    "the graded graph is connected",
    "its diameter is at most two",
)
def _check_t2(inst: Instance) -> Finding:
    g = inst.graded_graph
    hyp = is_connected(g)
    d = diameter(g)
    return Finding(
        hyp,
        [("diameter_bound", PASS if d <= 2 else FAIL)] if hyp else [],
        f"diameter {d}",
        details={"diameter": d if d != math.inf else "inf"},
    )


# ---------------------------------------------------------------------------
# completeness, regularity, domination


@_register(
    "t51",
    "commutative: graded domain exactly when graded reduced with a complete graph",
    "the ring is commutative",
    "no homogeneous zero divisors exactly when no homogeneous nilpotents "
    "and the graded graph is complete",
)
def _check_t51(inst: Instance) -> Finding:
    if not inst.ring.commutative:
        return Finding(False)
    domain = is_graded_domain(inst.grading)
    reduced = is_graded_reduced(inst.grading)
    complete = is_complete(inst.graded_graph)
    rhs = reduced and complete
    details = {"domain": domain, "reduced": reduced, "complete": complete}
    directions = [
        _direction("domain_implies_reduced_complete", domain, rhs),
        _direction("reduced_complete_implies_domain", rhs, domain),
        ("equivalence", PASS if domain == rhs else FAIL),
    ]
    return Finding(True, directions, str(details), details=details)


@_register(
    "t52",
    "with edges present: regular, unique-minimal, and complete coincide",
    "the graded graph has at least one edge",
    "regularity, a unique graded minimal ideal, and completeness are "
    "equivalent",
)
def _check_t52(inst: Instance) -> Finding:
    g = inst.graded_graph
    annotations = ("chain conditions hold outright on a finite carrier",)
    if is_null(g):
        return Finding(False, annotations=annotations)
    regular = is_regular(g)
    unique_min = len(minimal_members(inst.graded_family)) == 1
    complete = is_complete(g)
    details = {"regular": regular, "unique_minimal": unique_min, "complete": complete}
    agree = regular == unique_min == complete
    return Finding(
        True,
        [("three_way_equivalence", PASS if agree else FAIL)],
        str(details),
        annotations,
        details,
    )


@_register(
    "t6",
    "commutative: domination number at most two, one when indecomposable",
    "the ring is commutative",
    "domination number at most two; exactly one when the ring has no "
    "internal split; for a split into two factors with vertices, the "
    "domination number is two exactly when both factors have domination "
    "number two",
)
def _check_t6(inst: Instance) -> Finding:
    if not inst.ring.commutative:
        return Finding(False)
    witness = None
    annotations = []
    g = inst.graded_graph
    gamma = domination_number(g)
    directions = [("gamma_at_most_two", PASS if gamma <= 2 else FAIL)]
    decomps = inst.graded_decompositions
    indecomposable = not decomps
    if gamma > 2:
        witness = f"domination number {gamma}"
    elif indecomposable and g.n and gamma != 1:
        witness = f"domination number {gamma} with no internal split"
    if indecomposable and not g.n:
        annotations.append(
            "indecomposable with no vertices: the dominating singleton "
            "needs a graded maximal ideal, so the empty graph is excluded"
        )
    directions.append(
        _direction(
            "indecomposable_gamma_one",
            indecomposable and g.n > 0,
            gamma == 1,
        )
    )
    evaluable_pairs = 0
    split_ok = True
    for a, b in decomps:
        graph_a = inst.factor(a.mask).graph
        graph_b = inst.factor(b.mask).graph
        if graph_a.n == 0 or graph_b.n == 0:
            annotations.append(
                f"split {a.label()} + {b.label()} skipped: a factor has no "
                "vertices, so its domination number degenerates to zero"
            )
            continue
        evaluable_pairs += 1
        lhs = gamma == 2
        rhs = domination_number(graph_a) == 2 and domination_number(graph_b) == 2
        if lhs != rhs:
            split_ok = False
            witness = f"split {a.label()} + {b.label()}"
    directions.append(_direction("split_gamma_two", evaluable_pairs > 0, split_ok))
    details = {
        "gamma": gamma,
        "splits": len(decomps),
        "evaluable_splits": evaluable_pairs,
    }
    return Finding(True, directions, witness, annotations, details)


@_register(
    "l18",
    "a finite clique number forces the descending chain condition on graded ideals",
    "the graded graph has a finite clique number (automatic on a finite "
    "carrier)",
    "descending chains of graded left ideals terminate (a finite family "
    "cannot descend forever)",
)
def _check_l18(inst: Instance) -> Finding:
    omega = clique_number(inst.graded_graph)
    return Finding(
        True,
        [("chain_condition", PASS)],
        annotations=(
            "both sides hold outright on finite carriers; recorded for "
            "coverage accounting",
        ),
        details={"omega": omega, "graded_ideals": len(inst.graded_family)},
    )


@_register(
    "l187",
    "commutative: clique number one means a tiny edgeless graph; finite "
    "clique number makes the graded maximal ideals a clique",
    "the ring is commutative",
    "clique number one exactly for an edgeless graph on one or two "
    "vertices; beyond that the graded maximal ideals pairwise intersect",
)
def _check_l187(inst: Instance) -> Finding:
    if not inst.ring.commutative:
        return Finding(False)
    g = inst.graded_graph
    omega = clique_number(g)
    small_null = is_null(g) and g.n in (1, 2)
    maxima, apart = _maxima_apart(inst)
    directions = [
        ("omega_one_iff_small_null", PASS if (omega == 1) == small_null else FAIL),
        _direction("maximal_ideals_clique", omega > 1, apart is None),
    ]
    details = {
        "omega": omega,
        "order": g.n,
        "null": is_null(g),
        "maximal_count": len(maxima),
    }
    return Finding(
        True, directions, apart or f"omega {omega}, order {g.n}", details=details
    )


# ---------------------------------------------------------------------------
# girth


@_register(
    "t3",
    "the graded graph has girth three or no cycles at all",
    "always applicable",
    "girth is three or infinite",
)
def _check_t3(inst: Instance) -> Finding:
    gv = girth(inst.graded_graph)
    ok = gv == 3 or gv == math.inf
    return Finding(
        True,
        [("girth_value", PASS if ok else FAIL)],
        f"girth {gv}",
        details={"girth": "inf" if gv == math.inf else gv},
    )


@_register(
    "t4",
    "edges but no cycles force a star around the unique graded maximal ideal",
    "the graded graph has an edge and no cycle",
    "the ring is graded local, the graph is a star centered at the "
    "unique graded maximal ideal, and that ideal either is principal "
    "(graph is a single vertex or edge) or needs two homogeneous "
    "generators and squares to zero",
)
def _check_t4(inst: Instance) -> Finding:
    g = inst.graded_graph
    if is_null(g) or girth(g) != math.inf:
        return Finding(False)
    try:
        of_family(g, inst.graded_family)
    except IsoViolation as exc:
        return Finding(True, [("star_centered_at_maximal", FAIL)], str(exc))
    if not is_graded_local(inst.grading, inst.graded_family):
        return Finding(
            True, [("graded_local", FAIL)], "no unique graded maximal ideal"
        )
    directions = [("graded_local", PASS)]
    witness = None
    m = maximal_members(inst.graded_family)[0]
    idx = next(i for i, v in enumerate(g.vertices) if v.mask == m.mask)
    star = is_star(g) and g.degree(idx) == g.n - 1
    directions.append(("star_centered_at_maximal", PASS if star else FAIL))
    if not star:
        witness = f"vertex {m.label()} does not center a star"
    zero = inst.ring.zero
    homog = [
        x for x in m.members if x != zero and inst.grading.degree_of(x) is not None
    ]
    k = min_generator_count(inst.ring, m.mask, candidates=homog, limit=2)
    details = {"homogeneous_generators": k, "order": g.n}
    if k is None:
        directions.append(("generator_count", FAIL))
        witness = "maximal ideal needs more than two homogeneous generators"
    elif k == 1:
        small_complete = g.n <= 2 and is_complete(g)
        directions.append(
            ("principal_case_small_complete", PASS if small_complete else FAIL)
        )
        if not small_complete:
            witness = f"order {g.n} with a principal maximal ideal"
    else:
        square_zero = ideal_power(inst.ring, m.mask, 2) == inst.ring.zero_mask
        directions.append(
            ("two_generator_case_square_zero", PASS if square_zero else FAIL)
        )
        if not square_zero:
            witness = f"{m.label()} squared is not zero"
    return Finding(True, directions, witness, details=details)


# ---------------------------------------------------------------------------
# identity component transfer


@_register(
    "t100",
    "a connected identity-component graph with two vertices forces both "
    "bigger graphs connected",
    "the identity component has at least two nontrivial proper left "
    "ideals and their intersection graph is connected",
    "the graded graph and the full-lattice graph are both connected",
)
def _check_t100(inst: Instance) -> Finding:
    count = len(nontrivial_proper(inst.identity.family))
    hyp = count >= 2 and is_connected(inst.identity.graph)
    directions = []
    witness = None
    if hyp:
        graded, full = is_connected(inst.graded_graph), is_connected(inst.full.graph)
        directions = [
            ("graded_graph_connected", PASS if graded else FAIL),
            ("full_graph_connected", PASS if full else FAIL),
        ]
        witness = f"graded connected {graded}, full connected {full}"
    return Finding(
        hyp,
        directions,
        witness,
        annotations=(
            "the premise needs an edge, so two nontrivial proper left ideals of "
            "the identity component are required",
        ),
        details={"identity_vertices": count},
    )


@_register(
    "lemma51",
    "degree faithfulness equals nonzero traces on that degree's component",
    "always applicable; degrees probed over the support, the identity, "
    "and one degree beyond",
    "a degree is faithful exactly when every graded vertex meets that "
    "degree's component beyond zero",
)
def _check_lemma51(inst: Instance) -> Finding:
    grading = inst.grading
    grades = grading.grades
    zero_mask = inst.ring.zero_mask
    vertices = nontrivial_proper(inst.graded_family)
    forward_ok = True
    backward_ok = True
    witness = None
    per_probe = {}
    for sigma in grades.probes(grading.support):
        lhs = is_sigma_faithful(grading, sigma)
        comp = grading.component(sigma)
        rhs = all(v.mask & comp & ~zero_mask for v in vertices)
        per_probe[grades.name(sigma)] = {"faithful": lhs, "traces_nonzero": rhs}
        if lhs and not rhs:
            forward_ok = False
            witness = f"degree {grades.name(sigma)}"
        if rhs and not lhs and vertices:
            backward_ok = False
            witness = f"degree {grades.name(sigma)}"
    directions = [
        ("faithful_implies_traces", PASS if forward_ok else FAIL),
        (
            "traces_imply_faithful",
            (PASS if backward_ok else FAIL) if vertices else VACUOUS,
        ),
    ]
    annotations = []
    if not vertices:
        annotations.append(
            "no graded vertices: the trace condition holds for every degree "
            "by emptiness, so it cannot witness faithfulness"
        )
    return Finding(True, directions, witness, annotations, {"probes": per_probe})


def _isomorphism(
    name: str, iso: Callable[[], dict]
) -> tuple[tuple[str, str], str | None, dict]:
    """Direction `name` for the isomorphism report `iso` computes, the
    violation it raised (None when it held), and a copy of the report ({}
    on a violation); the instance keeps the report for other checks."""
    try:
        return (name, PASS), None, dict(iso())
    except (IsoViolation, WellDefinednessViolation) as exc:
        return (name, FAIL), str(exc), {}


@_register(
    "t1001",
    "identity-faithful: collapsing trace classes reproduces the identity "
    "component's graph",
    "the grading is faithful at the identity degree",
    "ideal extension followed by trace-class collapse is a graph "
    "isomorphism onto the quotient of the graded graph",
)
def _check_t1001(inst: Instance) -> Finding:
    if not inst.e_faithful:
        return Finding(False)
    direction, witness, details = _isomorphism(
        "isomorphism", lambda: inst.quotient_iso
    )
    return Finding(True, [direction], witness, details=details)


@_register(
    "conn_equiv",
    "identity-faithful: connectivity transfers both ways",
    "the grading is faithful at the identity degree",
    "the identity-component graph is connected exactly when the graded "
    "graph is",
)
def _check_conn_equiv(inst: Instance) -> Finding:
    if not inst.e_faithful:
        return Finding(False)
    left = is_connected(inst.identity.graph)
    right = is_connected(inst.graded_graph)
    details = {"identity_connected": left, "graded_connected": right}
    directions = [
        _direction("identity_to_graded", left, right),
        _direction("graded_to_identity", right, left),
        ("equivalence", PASS if left == right else FAIL),
    ]
    return Finding(True, directions, str(details), details=details)


@_register(
    "gamma_eq",
    "identity-faithful: domination numbers agree across the transfer",
    "the grading is faithful at the identity degree",
    "both graphs have the same domination number",
)
def _check_gamma_eq(inst: Instance) -> Finding:
    if not inst.e_faithful:
        return Finding(False)
    gamma_identity = domination_number(inst.identity.graph)
    gamma_graded = domination_number(inst.graded_graph)
    details = {"gamma_identity": gamma_identity, "gamma_graded": gamma_graded}
    return Finding(
        True,
        [("domination_equal", PASS if gamma_identity == gamma_graded else FAIL)],
        str(details),
        details=details,
    )


@_register(
    "omega_formula",
    "identity-faithful: the graded clique number is the best clique-wise sum "
    "of class sizes",
    "the grading is faithful at the identity degree",
    "clique numbers are finite together, and the graded clique number "
    "equals the best sum of class sizes over cliques of the identity "
    "component's graph",
)
def _check_omega_formula(inst: Instance) -> Finding:
    annotations = ("finiteness holds outright on finite carriers",)
    if not inst.e_faithful:
        return Finding(False, annotations=annotations)
    try:
        partition = inst.partition  # before the extension, as in quotient_iso
        re_graph = of_family(inst.identity.graph, inst.identity.family)
        extension = inst.extension
    except (IsoViolation, WellDefinednessViolation) as exc:
        directions = [("finiteness_equivalence", PASS), ("clique_sum_formula", FAIL)]
        return Finding(True, directions, str(exc), annotations)
    sizes = [members.bit_count() for members in partition.classes]
    # each identity-component vertex weighs the size of its extension's class
    weights = [sizes[partition.class_of[extension[ie.mask]]] for ie in re_graph.vertices]
    details = {
        "omega_graded": clique_number(inst.graded_graph),
        "omega_identity": clique_number(re_graph),
        "omega_from_classes": clique_number(re_graph, weights),
        "class_sizes": sizes,
    }
    directions = [
        ("finiteness_equivalence", PASS),
        (
            "clique_sum_formula",
            PASS if details["omega_graded"] == details["omega_from_classes"] else FAIL,
        ),
    ]
    return Finding(True, directions, str(details), annotations, details)


@_register(
    "lemma_l0",
    "first strong: every graded ideal is generated by its identity trace",
    "the grading is first strong",
    "each nontrivial proper graded ideal is generated as a left ideal by "
    "its identity-component part",
)
def _check_lemma_l0(inst: Instance) -> Finding:
    hyp = inst.first_strong
    vertices = nontrivial_proper(inst.graded_family)
    details = {"vertices": len(vertices)}
    if not hyp:
        return Finding(False, details=details)
    comp_e = inst.grading.component(inst.grading.grades.identity)
    bad = next(
        (
            v
            for v in vertices
            if generated_left_ideal(inst.ring, mask_members(v.mask & comp_e)) != v.mask
        ),
        None,
    )
    return Finding(
        True,
        [("trace_generates", PASS if bad is None else FAIL)],
        None if bad is None else bad.label(),
        details=details,
    )


@_register(
    "t56",
    "first strong: ideal extension is itself a graph isomorphism",
    "the grading is first strong",
    "extending ideals from the identity component is a graph isomorphism "
    "onto the graded graph",
)
def _check_t56(inst: Instance) -> Finding:
    if not inst.first_strong:
        return Finding(False)
    direction, witness, details = _isomorphism(
        "isomorphism", lambda: inst.first_strong_iso
    )
    return Finding(True, [direction], witness, details=details)


def _first_unembedded_pair(
    base: FiniteRing, ring: FiniteRing, embed: Sequence[int]
) -> tuple[int, int] | None:
    """The first pair (a, b) of base elements, in row-major order, whose sum
    or product the map `embed` into the ring does not carry over; None when
    it carries every one."""
    e = np.asarray(embed)
    grid = np.ix_(e, e)
    bad = e[base.add_array] != ring.add_array[grid]
    bad |= e[base.mul_array] != ring.mul_array[grid]
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


@_register(
    "groupring_example",
    "group rings: the canonical grading is strong and the graded graph "
    "copies the coefficient ring's graph",
    "the carrier is a group ring with its canonical grading",
    "the grading is strong (hence first strong), the identity component "
    "is a copy of the coefficient ring, and the graded graph is a copy "
    "of the coefficient ring's ideal graph",
    kinds=("group_ring",),
)
def _check_groupring_example(inst: Instance) -> Finding:
    ring = inst.ring
    base: FiniteRing = ring.parts["base"]
    group = ring.parts["group"]
    directions = [
        ("grading_strong", PASS if is_strong(inst.grading) else FAIL),
        ("grading_first_strong", PASS if inst.first_strong else FAIL),
    ]
    witness = None
    # coefficient r on the group identity, the base's zero elsewhere
    shift = base.size**group.identity
    embed = [ring.zero + (r - base.zero) * shift for r in range(base.size)]
    re_member_set = set(
        mask_members(inst.grading.component(inst.grading.grades.identity))
    )
    iso_ok = set(embed) == re_member_set
    if iso_ok:
        pair = _first_unembedded_pair(base, ring, embed)
        if pair is not None:
            iso_ok = False
            witness = "coefficients {}, {}".format(*(base.names[x] for x in pair))
    directions.append(("coefficient_ring_is_identity_component", PASS if iso_ok else FAIL))
    if not iso_ok:
        return Finding(True, directions, witness)
    lifted = {frozenset(embed[x] for x in v.members) for v in inst.base.family}
    # identity-component ideals traced back to parent coordinates
    emb = inst.re_embedding
    re_lifted = {frozenset(emb[x] for x in v.members) for v in inst.identity.family}
    directions.append(("ideal_families_match", PASS if lifted == re_lifted else FAIL))
    if lifted != re_lifted:
        witness = "coefficient-ring ideals do not match the identity component"
    direction, violation, details = _isomorphism(
        "graded_graph_isomorphism", lambda: inst.first_strong_iso
    )
    directions.append(direction)
    return Finding(True, directions, violation or witness, details=details)


# ---------------------------------------------------------------------------
# square-zero extensions


def _pair_mask(module: FiniteModule, i_mask: int, n_mask: int) -> int:
    """Mask of the pairs (r, m) at r*|M| + m with r in I and m in N."""
    return sum(n_mask << r * module.size for r in mask_members(i_mask))


def _compatible_pairs(
    module: FiniteModule, base_family: Sequence[IdealSet], module_family: Sequence[int]
) -> dict[int, tuple[int, int]]:
    """Pair mask -> (ideal, submodule) for each ideal I of the base and
    submodule N with I.M inside N, in the order of the two families."""
    expected = {}
    for bi in base_family:
        moved = index_mask(module.act_array[bi.members], module.size)
        for sm_mask in module_family:
            if moved | sm_mask == sm_mask:
                expected[_pair_mask(module, bi.mask, sm_mask)] = (bi.mask, sm_mask)
    return expected


@_register(
    "lemma17",
    "graded ideals of a square-zero extension are exactly the compatible "
    "component pairs",
    "the carrier is a square-zero extension with a nonzero module",
    "graded ideals are exactly the pairs (ideal, submodule) where the "
    "ideal moves the module into the submodule; intersections work "
    "componentwise",
    kinds=("idealization",),
)
def _check_lemma17(inst: Instance) -> Finding:
    module = inst.ring.parts["module"]
    if module.size <= 1:
        return Finding(False)
    witness = None
    expected = _compatible_pairs(module, inst.base.family, inst.module_family)
    actual = {i.mask for i in inst.graded_family}
    missing = sorted(set(expected) - actual)
    extra = sorted(actual - set(expected))
    directions = [("family_equals_pairs", PASS if not missing and not extra else FAIL)]
    if missing:
        witness = "a compatible pair is not a graded ideal"
    if extra:
        witness = "a graded ideal is not a compatible pair"
    inter_ok = True
    for (ma, (ia, na)), (mb, (ib, nb)) in itertools.combinations(expected.items(), 2):
        if ma & mb != _pair_mask(module, ia & ib, na & nb):
            inter_ok = False
            witness = "componentwise intersection mismatch"
    directions.append(("componentwise_intersection", PASS if inter_ok else FAIL))
    details = {"graded_ideals": len(actual), "compatible_pairs": len(expected)}
    return Finding(True, directions, witness, details=details)


def _base_is_simple(inst: Instance) -> bool:
    # for the commutative carriers used here, simple means no nontrivial ideal
    return not nontrivial_proper(inst.base.family)


def _module_is_simple(inst: Instance) -> bool:
    module = inst.ring.parts["module"]
    full = (1 << module.size) - 1
    inner = [m for m in inst.module_family if m != 1 << module.zero and m != full]
    return module.size > 1 and not inner


@_register(
    "t777",
    "square-zero extensions: edgeless graph detection and triggers for girth three",
    "the carrier is a square-zero extension with a nonzero module",
    "the graded graph is edgeless exactly when the base is simple and "
    "the module is simple; each stated trigger forces girth three",
    kinds=("idealization",),
)
def _check_t777(inst: Instance) -> Finding:
    module = inst.ring.parts["module"]
    if module.size <= 1:
        return Finding(False)
    witness = None
    g = inst.graded_graph
    edgeless = is_null(g)
    tiny = _base_is_simple(inst) and _module_is_simple(inst)
    details = {
        "edgeless": edgeless,
        "base_simple": _base_is_simple(inst),
        "module_simple": _module_is_simple(inst),
    }
    directions = [("edgeless_iff_simple_pair", PASS if edgeless == tiny else FAIL)]
    if edgeless != tiny:
        witness = f"edgeless {edgeless}, simple pair {tiny}"
    gv = girth(g)
    details["girth"] = "inf" if gv == math.inf else gv
    trig_a = (not _base_is_simple(inst)) and not _module_is_simple(inst)
    trig_b = len(nontrivial_proper(inst.base.family)) >= 2
    full_action = index_mask(module.act_array, module.size)
    trig_c = full_action != (1 << module.size) - 1
    directions.append(_direction("both_nonsimple_girth_three", trig_a, gv == 3))
    directions.append(_direction("two_base_ideals_girth_three", trig_b, gv == 3))
    directions.append(_direction("partial_action_girth_three", trig_c, gv == 3))
    if (trig_a or trig_b or trig_c) and gv != 3:
        witness = f"girth {gv}"
    annotations = [
        "the third trigger compares the module with its ring multiples; "
        "a unital action always reaches the whole module, so that "
        "trigger cannot fire here"
    ]
    return Finding(True, directions, witness, annotations, details)


@_register(
    "t777_cor",
    "doubling a ring by itself: edges, a nonsimple base, and girth three coincide",
    "the carrier is a ring doubled by itself as a module",
    "the graded graph has an edge exactly when the base ring has a "
    "nontrivial ideal, exactly when the girth is three",
    kinds=("self_idealization",),
)
def _check_t777_cor(inst: Instance) -> Finding:
    if inst.ring.parts["module"].size <= 1:
        return Finding(False)
    g = inst.graded_graph
    has_edges = not is_null(g)
    nonsimple = not _base_is_simple(inst)
    three = girth(g) == 3
    details = {
        "has_edges": has_edges,
        "base_nonsimple": nonsimple,
        "girth_three": three,
    }
    agree = has_edges == nonsimple == three
    return Finding(
        True,
        [("three_way_equivalence", PASS if agree else FAIL)],
        str(details),
        details=details,
    )


@_register(
    "t231",
    "doubling a ring: the graded clique number against the base lattice count",
    "the carrier is a ring doubled by itself as a module",
    "the graded clique number is at least one plus twice the base clique "
    "number plus the base ideal count, with equality exactly when the "
    "base graph has no edges",
    kinds=("self_idealization",),
)
def _check_t231(inst: Instance) -> Finding:
    if inst.ring.parts["module"].size <= 1:
        return Finding(False)
    base_count = len(nontrivial_proper(inst.base.family))
    base_graph = inst.base.graph
    omega_base = clique_number(base_graph)
    bound = 1 + 2 * omega_base + base_count
    omega = clique_number(inst.graded_graph)
    details = {
        "omega_graded": omega,
        "bound": bound,
        "omega_base": omega_base,
        "base_ideals": base_count,
    }
    equality = omega == bound
    directions = [
        ("lower_bound", PASS if omega >= bound else FAIL),
        ("equality_iff_base_edgeless", PASS if equality == is_null(base_graph) else FAIL),
    ]
    return Finding(True, directions, str(details), details=details)


@_register(
    "planarity_cor",
    "doubling a ring: the graded graph is planar only for tiny base lattices",
    "the carrier is a ring doubled by itself as a module",
    "the graded graph is planar exactly when the base ring has at most "
    "one nontrivial proper ideal",
    kinds=("self_idealization",),
)
def _check_planarity_cor(inst: Instance) -> Finding:
    if inst.ring.parts["module"].size <= 1:
        return Finding(False)
    base_count = len(nontrivial_proper(inst.base.family))
    planar = is_planar(inst.graded_graph)
    details = {"planar": planar, "base_ideals": base_count}
    ok = planar == (base_count <= 1)
    direction = ("planar_iff_small_base", PASS if ok else FAIL)
    return Finding(True, [direction], str(details), details=details)


# ---------------------------------------------------------------------------
# integer gradings and leading parts


@_register(
    "lemma_ll",
    "integer gradings: the leading-part operator is a closure onto graded ideals",
    "the grading group is the integers",
    "taking leading parts fixes exactly the graded ideals, preserves "
    "zero and inclusions, separates nested ideals, and is idempotent",
    kinds=("integer",),
)
def _check_lemma_ll(inst: Instance) -> Finding:
    grading, zero = inst.grading, inst.ring.zero_mask
    ideals = sorted(inst.full.family, key=lambda i: i.sort_key())
    lead = {i.mask: leading_ideal(grading, i.mask) for i in ideals}
    violations = []  # (law, witness) in the order found
    for i in ideals:
        li = lead[i.mask]
        if (li == i.mask) != is_graded(grading, i.mask):
            violations.append(("fixed_iff_graded", i.label()))
        if (li == zero) != (i.mask == zero):
            violations.append(("zero_iff_zero", i.label()))
        if leading_ideal(grading, li) != li:
            violations.append(("idempotent", i.label()))
    nested_pairs = 0
    for i in ideals:
        for j in ideals:
            if i.mask == j.mask or i.mask | j.mask != j.mask:
                continue
            nested_pairs += 1
            li, lj = lead[i.mask], lead[j.mask]
            if li | lj != lj:
                violations.append(("monotone", f"{i.label()} inside {j.label()}"))
            if li == lj:
                violations.append(("nested_separated", f"{i.label()} inside {j.label()}"))
    broken = {law for law, _ in violations}
    laws = ("fixed_iff_graded", "zero_iff_zero", "monotone", "nested_separated", "idempotent")
    return Finding(
        True,
        [(law, FAIL if law in broken else PASS) for law in laws],
        "; ".join(f"{law}: {witness}" for law, witness in violations) or None,
        details={"checked": len(ideals), "nested_pairs": nested_pairs},
    )


@_register(
    "t543",
    "integer gradings: connectivity agrees between the graded and full graphs",
    "the grading group is the integers",
    "the graded graph is connected exactly when the full-lattice graph is",
    kinds=("integer",),
)
def _check_t543(inst: Instance) -> Finding:
    graded = is_connected(inst.graded_graph)
    full = is_connected(inst.full.graph)
    return Finding(
        True,
        [("connectivity_agrees", PASS if graded == full else FAIL)],
        f"graded {graded}, full {full}",
        details={"graded_connected": graded, "all_connected": full},
    )


@_register(
    "t544",
    "integer gradings over local rings: girths agree",
    "the grading group is the integers and the ring has a unique maximal "
    "left ideal",
    "the graded graph and the full-lattice graph have the same girth",
    kinds=("integer",),
)
def _check_t544(inst: Instance) -> Finding:
    local = len(maximal_members(inst.full.family)) == 1
    graded, full = girth(inst.graded_graph), girth(inst.full.graph)
    return Finding(
        local,
        [("girth_agrees", PASS if graded == full else FAIL)] if local else [],
        f"graded girth {graded}, full girth {full}",
        details={"graded_girth": str(graded), "all_girth": str(full), "local": local},
    )


@_register(
    "r545",
    "integer gradings: when only the full graph has a cycle, the lattice is "
    "a short chain structure",
    "the grading group is the integers",
    "if the graded graph is acyclic while the full graph has a triangle, "
    "the ring is local with maximal-chain length four and the maximal "
    "ideals line up through leading parts",
    kinds=("integer",),
)
def _check_r545(inst: Instance) -> Finding:
    triggered = girth(inst.graded_graph) == math.inf and girth(inst.full.graph) == 3
    counts = sorted(maximal_chain_term_counts(inst.full.family))
    details = {"branch_triggered": triggered, "chain_term_counts": counts}
    if not triggered:
        return Finding(
            True,
            [("branch_structure", VACUOUS)],
            annotations=[
                "the premise (graded graph acyclic while the full graph has a "
                "triangle) does not occur on this instance; the conditional "
                "holds by emptiness"
            ],
            details=details,
        )
    maxima = maximal_members(inst.full.family)
    graded_maxima = maximal_members(inst.graded_family)
    found = {"graded_local": len(graded_maxima) == 1}
    if found["graded_local"]:
        m = graded_maxima[0].mask
        found["graded_maximal_is_maximal"] = any(k.mask == m for k in maxima)
        found["maxima_share_leading"] = all(
            leading_ideal(inst.grading, k.mask) == m for k in maxima
        )
    found["four_term_chains"] = counts == [4]
    return Finding(
        True,
        # graded_local is False whenever the two middle keys are missing
        [("branch_structure", PASS if all(found.values()) else FAIL)],
        str(found),
        details=details,
    )


# ---------------------------------------------------------------------------
# dispatch


def _dispatch(inst: Instance, check: TheoremCheck, strict: bool) -> TheoremReport:
    """Write one check's report; the only place a TheoremReport is built.

    When the instance lacks a construction kind the check needs, raise
    WrongInstanceKind if strict, and report SKIPPED otherwise."""
    unmet = next((k for k in check.kinds if not inst.matches(k)), None)
    if unmet is not None:
        if strict:
            raise WrongInstanceKind(
                f"{check.theorem_id} needs a {unmet} instance; {inst.name} is not one"
            )
        return TheoremReport(
            theorem_id=check.theorem_id,
            instance=inst.name,
            verdict=SKIPPED,
            hypothesis="construction kind does not match",
            conclusion=check.summary,
        )
    found = check.run(inst)
    if not found.hypothesis_met:
        verdict = VACUOUS
    elif any(v == FAIL for _, v in found.directions):
        verdict = FAIL
    else:
        verdict = PASS
    return TheoremReport(
        theorem_id=check.theorem_id,
        instance=inst.name,
        verdict=verdict,
        hypothesis=check.hypothesis,
        conclusion=check.conclusion,
        directions=tuple(found.directions),
        witness=found.witness if verdict == FAIL else None,
        annotations=tuple(found.annotations),
        details=found.details or {},
    )


def run_check(inst: Instance, theorem_id: str) -> TheoremReport:
    """Run one registered check; raise if the instance has the wrong shape."""
    return _dispatch(inst, _lookup(theorem_id), strict=True)


def run_all(inst: Instance, ids: Sequence[str] | None = None) -> list[TheoremReport]:
    """Run every requested check, marking kind mismatches as SKIPPED."""
    return [
        _dispatch(inst, _lookup(theorem_id), strict=False)
        for theorem_id in (ids if ids is not None else theorem_ids())
    ]
