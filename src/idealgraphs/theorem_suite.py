"""Machine checks for the structure statements behind the graded graphs.

Every check receives one Instance (a finite ring plus a validated grading),
decides whether its hypotheses hold there, and then verifies its conclusion
exhaustively.  Verdicts: PASS (hypotheses held, conclusion verified), FAIL
(hypotheses held, conclusion refuted, witness attached), VACUOUS (hypotheses
not met, nothing claimed), SKIPPED (only from run_all: the check wants a
construction kind this instance does not have).  Biconditional statements
additionally record per-direction verdicts, where a direction with a false
antecedent is VACUOUS on that instance.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .errors import (
    IsoViolation,
    UnknownTheorem,
    WellDefinednessViolation,
    WrongInstanceKind,
)
from .grading import (
    Grading,
    group_ring_grading,
    idealization_grading,
    is_e_faithful,
    is_first_strong,
    is_sigma_faithful,
    is_strong,
    same_grading,
)
from .graph_engine import (
    Graph,
    build_intersection_graph,
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
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    enumerate_submodules,
    generated_left_ideal,
    ideal_power,
    ideal_sum,
    internal_decompositions,
    is_essential,
    is_graded,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_reduced,
    is_maximal,
    is_minimal,
    maximal_members,
    min_generator_count,
    minimal_members,
    nontrivial_proper,
)
from .ordered_grading import lemma_ll_check, ordered_comparison_check
from .ring_core import FiniteRing, mask_members
from .structure_maps import (
    gamma_omega_transfer,
    identity_component_ring,
    induced_factor_grading,
    phi_iso_check,
)

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
SKIPPED = "SKIPPED"


@dataclass(eq=False)
class Instance:
    """One graded ring under test, with lazily cached derived objects."""

    name: str
    ring: FiniteRing
    grading: Grading
    _kind_verdicts: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def graded_family(self) -> list[IdealSet]:
        return enumerate_graded_left_ideals(self.grading)

    @cached_property
    def graded_vertices(self) -> list[IdealSet]:
        return sorted(
            nontrivial_proper(self.graded_family), key=lambda i: i.sort_key()
        )

    @cached_property
    def graded_graph(self) -> Graph:
        return build_intersection_graph(self.graded_vertices)

    @cached_property
    def all_family(self) -> list[IdealSet]:
        return enumerate_left_ideals(self.ring)

    @cached_property
    def all_vertices(self) -> list[IdealSet]:
        return sorted(nontrivial_proper(self.all_family), key=lambda i: i.sort_key())

    @cached_property
    def all_graph(self) -> Graph:
        return build_intersection_graph(self.all_vertices)

    @cached_property
    def identity_data(self) -> tuple[FiniteRing, tuple[int, ...]]:
        return identity_component_ring(self.grading)

    @property
    def re_ring(self) -> FiniteRing:
        return self.identity_data[0]

    @cached_property
    def re_family(self) -> list[IdealSet]:
        return enumerate_left_ideals(self.re_ring)

    @cached_property
    def re_vertices(self) -> list[IdealSet]:
        return sorted(nontrivial_proper(self.re_family), key=lambda i: i.sort_key())

    @cached_property
    def re_graph(self) -> Graph:
        return build_intersection_graph(self.re_vertices)

    @cached_property
    def transfer_report(self) -> dict:
        return gamma_omega_transfer(self.grading, self.graded_family)

    @cached_property
    def ordered_report(self) -> dict:
        return ordered_comparison_check(
            self.grading, self.graded_family, self.all_family
        )

    @cached_property
    def e_faithful(self) -> bool:
        return is_e_faithful(self.grading)

    @cached_property
    def first_strong(self) -> bool:
        return is_first_strong(self.grading)

    def matches(self, requirement: str) -> bool:
        """Whether the instance meets a check's kind requirement.  Each
        verdict is kept, because deciding one may build a canonical grading."""
        verdict = self._kind_verdicts.get(requirement)
        if verdict is None:
            verdict = self._kind_verdicts[requirement] = self._decide(requirement)
        return verdict

    def _decide(self, requirement: str) -> bool:
        kind = self.ring.construction.get("kind")
        if requirement == "idealization":
            return kind == "idealization" and same_grading(
                self.grading, idealization_grading(self.ring)
            )
        if requirement == "self_idealization":
            return (
                self.matches("idealization")
                and self.ring.parts["module"].construction.get("kind") == "self"
            )
        if requirement == "group_ring":
            return kind == "group_ring" and same_grading(
                self.grading, group_ring_grading(self.ring)
            )
        if requirement == "integer":
            return self.grading.grades.kind == "integers"
        raise ValueError(f"unknown kind requirement: {requirement!r}")


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


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    kinds: tuple
    summary: str
    run: Callable


_REGISTRY: "OrderedDict[str, TheoremCheck]" = OrderedDict()


def _register(theorem_id: str, summary: str, kinds: tuple = ()):
    def wrap(fn):
        _REGISTRY[theorem_id] = TheoremCheck(
            theorem_id=theorem_id, kinds=kinds, summary=summary, run=fn
        )
        return fn

    return wrap


def theorem_ids() -> list[str]:
    return list(_REGISTRY)


def theorem_summary(theorem_id: str) -> str:
    if theorem_id not in _REGISTRY:
        raise UnknownTheorem(f"no check registered under id {theorem_id!r}")
    return _REGISTRY[theorem_id].summary


def _direction(name: str, antecedent: bool, consequent: bool) -> tuple[str, str]:
    if not antecedent:
        return (name, VACUOUS)
    return (name, PASS if consequent else FAIL)


def _overall(hypothesis_met: bool, directions: Sequence[tuple[str, str]]) -> str:
    if not hypothesis_met:
        return VACUOUS
    if any(v == FAIL for _, v in directions):
        return FAIL
    return PASS


def _report(
    theorem_id: str,
    inst: Instance,
    hypothesis_met: bool,
    hypothesis: str,
    conclusion: str,
    directions: Sequence[tuple[str, str]] = (),
    witness: str | None = None,
    annotations: Sequence[str] = (),
    details: dict | None = None,
) -> TheoremReport:
    verdict = _overall(hypothesis_met, directions)
    if verdict != FAIL:
        witness = None
    return TheoremReport(
        theorem_id=theorem_id,
        instance=inst.name,
        verdict=verdict,
        hypothesis=hypothesis,
        conclusion=conclusion,
        directions=tuple(directions),
        witness=witness,
        annotations=tuple(annotations),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# closure of the graded ideal family


@_register(
    "lemma_b",
    "sums and intersections of graded left ideals are graded",
)
def _check_lemma_b(inst: Instance) -> TheoremReport:
    ring = inst.ring
    family = inst.graded_family
    witness = None
    ok = True
    for a in family:
        for b in family:
            s = ideal_sum(ring, a.mask, b.mask)
            if not is_graded(inst.grading, s):
                ok, witness = False, f"sum of {a.label()} and {b.label()}"
                break
            if not is_graded(inst.grading, a.mask & b.mask):
                ok, witness = False, f"intersection of {a.label()} and {b.label()}"
                break
        if not ok:
            break
    return _report(
        "lemma_b",
        inst,
        True,
        "a pair of graded left ideals exists (the trivial ones always do)",
        "every pairwise sum and intersection is again graded",
        [("closure", PASS if ok else FAIL)],
        witness,
        details={"pairs": len(family) ** 2},
    )


@_register(
    "lemma_r1",
    "neighborhoods detect minimal, isolated, and essential vertices",
)
def _check_lemma_r1(inst: Instance) -> TheoremReport:
    vertices = inst.graded_vertices
    family = inst.graded_family
    g = inst.graded_graph
    mask_to_idx = {v.mask: i for i, v in enumerate(vertices)}
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
    has_vertices = bool(vertices)
    return _report(
        "lemma_r1",
        inst,
        has_vertices,
        "the graded graph has at least one vertex",
        "minimal vertices see exactly their proper supersets; isolated means "
        "minimal and maximal; essential means adjacent to everything else",
        [
            ("minimal_neighborhood", PASS if ok_min else FAIL),
            ("isolated_iff_min_and_max", PASS if ok_iso else FAIL),
            ("essential_neighborhood", PASS if ok_ess else FAIL),
        ],
        witness,
        details={"vertices": len(vertices)},
    )


# ---------------------------------------------------------------------------
# connectivity and diameter


@_register(
    "t1",
    "a disconnected graded graph is edgeless on at least two vertices",
)
def _check_t1(inst: Instance) -> TheoremReport:
    g = inst.graded_graph
    disconnected = not is_connected(g)
    shape = is_null(g) and g.n >= 2
    return _report(
        "t1",
        inst,
        True,
        "always applicable",
        "disconnected exactly when edgeless with at least two vertices",
        [
            _direction("disconnected_implies_edgeless", disconnected, shape),
            _direction("edgeless_implies_disconnected", shape, disconnected),
            ("equivalence", PASS if disconnected == shape else FAIL),
        ],
        witness=None if disconnected == shape else f"order {g.n}, size {g.edge_count}",
        details={"order": g.n, "size": g.edge_count},
    )


@_register(
    "c1",
    "with a disconnected graded graph, every vertex is principal, minimal, and maximal",
)
def _check_c1(inst: Instance) -> TheoremReport:
    g = inst.graded_graph
    hyp = not is_connected(g)
    directions = []
    witness = None
    if hyp:
        minima = minimal_members(inst.graded_family)
        directions.append(("two_minimal_ideals", PASS if len(minima) >= 2 else FAIL))
        ok = True
        for v in inst.graded_vertices:
            principal = min_generator_count(inst.ring, v.mask, limit=1) == 1
            if not (
                principal
                and is_minimal(v, inst.graded_family)
                and is_maximal(v, inst.graded_family)
            ):
                ok, witness = False, v.label()
                break
        directions.append(("each_vertex_principal_min_max", PASS if ok else FAIL))
    return _report(
        "c1",
        inst,
        hyp,
        "the graded graph is disconnected",
        "at least two graded minimal ideals exist and every vertex is a "
        "principal, minimal, and maximal graded ideal",
        directions,
        witness,
    )


@_register(
    "c11",
    "commutative: disconnected graded graph means a product of two graded fields",
    kinds=(),
)
def _check_c11(inst: Instance) -> TheoremReport:
    hyp = inst.ring.commutative
    directions = []
    details: dict = {}
    if hyp:
        disconnected = not is_connected(inst.graded_graph)
        split = None
        for a, b in internal_decompositions(inst.ring, inst.graded_family):
            ga = induced_factor_grading(inst.grading, a.mask)
            gb = induced_factor_grading(inst.grading, b.mask)
            if is_graded_field(ga) and is_graded_field(gb):
                split = (a.label(), b.label())
                break
        details = {"field_split": split, "disconnected": disconnected}
        directions = [
            _direction("disconnected_implies_split", disconnected, split is not None),
            _direction("split_implies_disconnected", split is not None, disconnected),
            ("equivalence", PASS if disconnected == (split is not None) else FAIL),
        ]
    return _report(
        "c11",
        inst,
        hyp,
        "the ring is commutative",
        "the graded graph is disconnected exactly when the ring splits "
        "internally into two graded ideals that are graded fields",
        directions,
        witness=None if not hyp else str(details),
        details=details,
    )


@_register(
    "c101",
    "commutative and connected: graded maximal ideals pairwise intersect",
)
def _check_c101(inst: Instance) -> TheoremReport:
    hyp = inst.ring.commutative and is_connected(inst.graded_graph)
    directions = []
    witness = None
    annotations = []
    if hyp:
        maxima = maximal_members(inst.graded_family)
        ok = True
        zero = inst.ring.zero_mask
        for i in range(len(maxima)):
            for j in range(i + 1, len(maxima)):
                if maxima[i].mask & maxima[j].mask == zero:
                    ok = False
                    witness = f"{maxima[i].label()} and {maxima[j].label()}"
        if len(maxima) < 2:
            annotations.append("fewer than two graded maximal ideals; no pairs")
        directions = [("pairwise_intersection", PASS if ok else FAIL)]
    return _report(
        "c101",
        inst,
        hyp,
        "the ring is commutative and the graded graph is connected",
        "every two graded maximal left ideals intersect beyond zero",
        directions,
        witness,
        annotations,
    )


@_register("t2", "a connected graded graph has diameter at most two")
def _check_t2(inst: Instance) -> TheoremReport:
    g = inst.graded_graph
    hyp = is_connected(g)
    d = diameter(g)
    return _report(
        "t2",
        inst,
        hyp,
        "the graded graph is connected",
        "its diameter is at most two",
        [("diameter_bound", PASS if d <= 2 else FAIL)] if hyp else [],
        witness=None if d <= 2 else f"diameter {d}",
        details={"diameter": d if d != math.inf else "inf"},
    )


# ---------------------------------------------------------------------------
# completeness, regularity, domination


@_register(
    "t51",
    "commutative: graded domain exactly when graded reduced with a complete graph",
)
def _check_t51(inst: Instance) -> TheoremReport:
    hyp = inst.ring.commutative
    directions = []
    details: dict = {}
    if hyp:
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
    return _report(
        "t51",
        inst,
        hyp,
        "the ring is commutative",
        "no homogeneous zero divisors exactly when no homogeneous nilpotents "
        "and the graded graph is complete",
        directions,
        witness=None if not hyp else str(details),
        details=details,
    )


@_register(
    "t52",
    "with edges present: regular, unique-minimal, and complete coincide",
)
def _check_t52(inst: Instance) -> TheoremReport:
    g = inst.graded_graph
    hyp = not is_null(g)
    directions = []
    details: dict = {}
    annotations = ("chain conditions hold outright on a finite carrier",)
    if hyp:
        regular = is_regular(g)
        unique_min = len(minimal_members(inst.graded_family)) == 1
        complete = is_complete(g)
        details = {"regular": regular, "unique_minimal": unique_min, "complete": complete}
        agree = regular == unique_min == complete
        directions = [("three_way_equivalence", PASS if agree else FAIL)]
    return _report(
        "t52",
        inst,
        hyp,
        "the graded graph has at least one edge",
        "regularity, a unique graded minimal ideal, and completeness are "
        "equivalent",
        directions,
        witness=None if not hyp else str(details),
        annotations=annotations,
        details=details,
    )


@_register(
    "t6",
    "commutative: domination number at most two, one when indecomposable",
)
def _check_t6(inst: Instance) -> TheoremReport:
    hyp = inst.ring.commutative
    directions = []
    witness = None
    annotations = []
    details: dict = {}
    if hyp:
        gamma = domination_number(inst.graded_graph)
        details["gamma"] = gamma
        directions.append(("gamma_at_most_two", PASS if gamma <= 2 else FAIL))
        if gamma > 2:
            witness = f"domination number {gamma}"
        decomps = internal_decompositions(inst.ring, inst.graded_family)
        indecomposable = not decomps
        if indecomposable and not inst.graded_vertices:
            annotations.append(
                "indecomposable with no vertices: the dominating singleton "
                "needs a graded maximal ideal, so the empty graph is excluded"
            )
        directions.append(
            _direction(
                "indecomposable_gamma_one",
                indecomposable and bool(inst.graded_vertices),
                gamma == 1,
            )
        )
        evaluable_pairs = 0
        split_ok = True
        for a, b in decomps:
            ga = induced_factor_grading(inst.grading, a.mask)
            gb = induced_factor_grading(inst.grading, b.mask)
            graph_a = build_intersection_graph(
                nontrivial_proper(enumerate_graded_left_ideals(ga))
            )
            graph_b = build_intersection_graph(
                nontrivial_proper(enumerate_graded_left_ideals(gb))
            )
            if graph_a.n == 0 or graph_b.n == 0:
                annotations.append(
                    f"split {a.label()} + {b.label()} skipped: a factor has no "
                    "vertices, so its domination number degenerates to zero"
                )
                continue
            evaluable_pairs += 1
            lhs = gamma == 2
            rhs = (
                domination_number(graph_a) == 2 and domination_number(graph_b) == 2
            )
            if lhs != rhs:
                split_ok = False
                witness = f"split {a.label()} + {b.label()}"
        directions.append(
            _direction("split_gamma_two", evaluable_pairs > 0, split_ok)
        )
        details["splits"] = len(decomps)
        details["evaluable_splits"] = evaluable_pairs
    return _report(
        "t6",
        inst,
        hyp,
        "the ring is commutative",
        "domination number at most two; exactly one when the ring has no "
        "internal split; for a split into two factors with vertices, the "
        "domination number is two exactly when both factors have domination "
        "number two",
        directions,
        witness,
        annotations,
        details,
    )


@_register(
    "l18",
    "a finite clique number forces the descending chain condition on graded ideals",
)
def _check_l18(inst: Instance) -> TheoremReport:
    omega = clique_number(inst.graded_graph)
    finite_family = len(inst.graded_family)
    return _report(
        "l18",
        inst,
        True,
        "the graded graph has a finite clique number (automatic on a finite "
        "carrier)",
        "descending chains of graded left ideals terminate (a finite family "
        "cannot descend forever)",
        [("chain_condition", PASS)],
        annotations=(
            "both sides hold outright on finite carriers; recorded for "
            "coverage accounting",
        ),
        details={"omega": omega, "graded_ideals": finite_family},
    )


@_register(
    "l187",
    "commutative: clique number one means a tiny edgeless graph; finite "
    "clique number makes the graded maximal ideals a clique",
)
def _check_l187(inst: Instance) -> TheoremReport:
    hyp = inst.ring.commutative
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        g = inst.graded_graph
        omega = clique_number(g)
        small_null = is_null(g) and g.n in (1, 2)
        details = {"omega": omega, "order": g.n, "null": is_null(g)}
        directions.append(
            ("omega_one_iff_small_null", PASS if (omega == 1) == small_null else FAIL)
        )
        if (omega == 1) != small_null:
            witness = f"omega {omega}, order {g.n}"
        maxima = maximal_members(inst.graded_family)
        clique_ok = True
        zero = inst.ring.zero_mask
        for i in range(len(maxima)):
            for j in range(i + 1, len(maxima)):
                if maxima[i].mask & maxima[j].mask == zero:
                    clique_ok = False
                    witness = f"{maxima[i].label()} and {maxima[j].label()}"
        directions.append(_direction("maximal_ideals_clique", omega > 1, clique_ok))
        details["maximal_count"] = len(maxima)
    return _report(
        "l187",
        inst,
        hyp,
        "the ring is commutative",
        "clique number one exactly for an edgeless graph on one or two "
        "vertices; beyond that the graded maximal ideals pairwise intersect",
        directions,
        witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# girth


@_register("t3", "the graded graph has girth three or no cycles at all")
def _check_t3(inst: Instance) -> TheoremReport:
    gv = girth(inst.graded_graph)
    ok = gv == 3 or gv == math.inf
    return _report(
        "t3",
        inst,
        True,
        "always applicable",
        "girth is three or infinite",
        [("girth_value", PASS if ok else FAIL)],
        witness=None if ok else f"girth {gv}",
        details={"girth": "inf" if gv == math.inf else gv},
    )


@_register(
    "t4",
    "edges but no cycles force a star around the unique graded maximal ideal",
)
def _check_t4(inst: Instance) -> TheoremReport:
    g = inst.graded_graph
    hyp = (not is_null(g)) and girth(g) == math.inf
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        local = is_graded_local(inst.grading, inst.graded_family)
        directions.append(("graded_local", PASS if local else FAIL))
        if not local:
            witness = "no unique graded maximal ideal"
        else:
            m = maximal_members(inst.graded_family)[0]
            idx = next(
                i for i, v in enumerate(inst.graded_vertices) if v.mask == m.mask
            )
            star = is_star(g) and g.degree(idx) == g.n - 1
            directions.append(("star_centered_at_maximal", PASS if star else FAIL))
            if not star:
                witness = f"vertex {m.label()} does not center a star"
            zero = inst.ring.zero
            homog = [
                x
                for x in m.members
                if x != zero and inst.grading.degree_of(x) is not None
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
                square_zero = (
                    ideal_power(inst.ring, m.mask, 2) == inst.ring.zero_mask
                )
                directions.append(
                    ("two_generator_case_square_zero", PASS if square_zero else FAIL)
                )
                if not square_zero:
                    witness = f"{m.label()} squared is not zero"
    return _report(
        "t4",
        inst,
        hyp,
        "the graded graph has an edge and no cycle",
        "the ring is graded local, the graph is a star centered at the "
        "unique graded maximal ideal, and that ideal either is principal "
        "(graph is a single vertex or edge) or needs two homogeneous "
        "generators and squares to zero",
        directions,
        witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# identity component transfer


@_register(
    "t100",
    "a connected identity-component graph with two vertices forces both "
    "bigger graphs connected",
)
def _check_t100(inst: Instance) -> TheoremReport:
    hyp = len(inst.re_vertices) >= 2 and is_connected(inst.re_graph)
    directions = []
    annotations = (
        "the premise needs an edge, so two nontrivial proper left ideals of "
        "the identity component are required",
    )
    if hyp:
        directions = [
            ("graded_graph_connected", PASS if is_connected(inst.graded_graph) else FAIL),
            ("full_graph_connected", PASS if is_connected(inst.all_graph) else FAIL),
        ]
    return _report(
        "t100",
        inst,
        hyp,
        "the identity component has at least two nontrivial proper left "
        "ideals and their intersection graph is connected",
        "the graded graph and the full-lattice graph are both connected",
        directions,
        annotations=annotations,
        details={"identity_vertices": len(inst.re_vertices)},
    )


@_register(
    "lemma51",
    "degree faithfulness equals nonzero traces on that degree's component",
)
def _check_lemma51(inst: Instance) -> TheoremReport:
    grading = inst.grading
    grades = grading.grades
    if grades.kind == "integers":
        probes = sorted(set(grading.support) | {0})
        if grading.support:
            probes.append(max(grading.support) + 1)
    else:
        probes = list(range(grades.group.size))
    zero_mask = inst.ring.zero_mask
    vertices = inst.graded_vertices
    forward_ok = True
    backward_ok = True
    witness = None
    per_probe = {}
    for sigma in probes:
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
    return _report(
        "lemma51",
        inst,
        True,
        "always applicable; degrees probed over the support, the identity, "
        "and one degree beyond",
        "a degree is faithful exactly when every graded vertex meets that "
        "degree's component beyond zero",
        directions,
        witness,
        annotations,
        details={"probes": per_probe},
    )


@_register(
    "t1001",
    "identity-faithful: collapsing trace classes reproduces the identity "
    "component's graph",
)
def _check_t1001(inst: Instance) -> TheoremReport:
    hyp = inst.e_faithful
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        try:
            details = phi_iso_check(inst.grading, inst.graded_family, "quotient")
            directions = [("isomorphism", PASS)]
        except (IsoViolation, WellDefinednessViolation) as exc:
            directions = [("isomorphism", FAIL)]
            witness = str(exc)
    return _report(
        "t1001",
        inst,
        hyp,
        "the grading is faithful at the identity degree",
        "ideal extension followed by trace-class collapse is a graph "
        "isomorphism onto the quotient of the graded graph",
        directions,
        witness,
        details=details,
    )


@_register(
    "conn_equiv",
    "identity-faithful: connectivity transfers both ways",
)
def _check_conn_equiv(inst: Instance) -> TheoremReport:
    hyp = inst.e_faithful
    directions = []
    details: dict = {}
    if hyp:
        left = is_connected(inst.re_graph)
        right = is_connected(inst.graded_graph)
        details = {"identity_connected": left, "graded_connected": right}
        directions = [
            _direction("identity_to_graded", left, right),
            _direction("graded_to_identity", right, left),
            ("equivalence", PASS if left == right else FAIL),
        ]
    return _report(
        "conn_equiv",
        inst,
        hyp,
        "the grading is faithful at the identity degree",
        "the identity-component graph is connected exactly when the graded "
        "graph is",
        directions,
        witness=None if not hyp else str(details),
        details=details,
    )


@_register(
    "gamma_eq",
    "identity-faithful: domination numbers agree across the transfer",
)
def _check_gamma_eq(inst: Instance) -> TheoremReport:
    hyp = inst.e_faithful
    directions = []
    details: dict = {}
    if hyp:
        rep = inst.transfer_report
        details = {
            "gamma_identity": rep["gamma_identity"],
            "gamma_graded": rep["gamma_graded"],
        }
        directions = [
            (
                "domination_equal",
                PASS if rep["gamma_identity"] == rep["gamma_graded"] else FAIL,
            )
        ]
    return _report(
        "gamma_eq",
        inst,
        hyp,
        "the grading is faithful at the identity degree",
        "both graphs have the same domination number",
        directions,
        witness=None if not hyp else str(details),
        details=details,
    )


@_register(
    "omega_formula",
    "identity-faithful: the graded clique number is the best clique-wise sum "
    "of class sizes",
)
def _check_omega_formula(inst: Instance) -> TheoremReport:
    hyp = inst.e_faithful
    directions = []
    details: dict = {}
    if hyp:
        rep = inst.transfer_report
        details = {
            "omega_graded": rep["omega_graded"],
            "omega_identity": rep["omega_identity"],
            "omega_from_classes": rep["omega_from_classes"],
            "class_sizes": rep["class_sizes"],
        }
        directions = [
            ("finiteness_equivalence", PASS),
            (
                "clique_sum_formula",
                PASS if rep["omega_graded"] == rep["omega_from_classes"] else FAIL,
            ),
        ]
    return _report(
        "omega_formula",
        inst,
        hyp,
        "the grading is faithful at the identity degree",
        "clique numbers are finite together, and the graded clique number "
        "equals the best sum of class sizes over cliques of the identity "
        "component's graph",
        directions,
        witness=None if not hyp else str(details),
        annotations=("finiteness holds outright on finite carriers",),
        details=details,
    )


@_register(
    "lemma_l0",
    "first strong: every graded ideal is generated by its identity trace",
)
def _check_lemma_l0(inst: Instance) -> TheoremReport:
    hyp = inst.first_strong
    directions = []
    witness = None
    if hyp:
        comp_e = inst.grading.component(inst.grading.grades.identity)
        ok = True
        for v in inst.graded_vertices:
            trace_members = mask_members(v.mask & comp_e)
            if generated_left_ideal(inst.ring, trace_members) != v.mask:
                ok, witness = False, v.label()
                break
        directions = [("trace_generates", PASS if ok else FAIL)]
    return _report(
        "lemma_l0",
        inst,
        hyp,
        "the grading is first strong",
        "each nontrivial proper graded ideal is generated as a left ideal by "
        "its identity-component part",
        directions,
        witness,
        details={"vertices": len(inst.graded_vertices)},
    )


@_register(
    "t56",
    "first strong: ideal extension is itself a graph isomorphism",
)
def _check_t56(inst: Instance) -> TheoremReport:
    hyp = inst.first_strong
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        try:
            details = phi_iso_check(inst.grading, inst.graded_family, "first_strong")
            directions = [("isomorphism", PASS)]
        except (IsoViolation, WellDefinednessViolation) as exc:
            directions = [("isomorphism", FAIL)]
            witness = str(exc)
    return _report(
        "t56",
        inst,
        hyp,
        "the grading is first strong",
        "extending ideals from the identity component is a graph isomorphism "
        "onto the graded graph",
        directions,
        witness,
        details=details,
    )


@_register(
    "groupring_example",
    "group rings: the canonical grading is strong and the graded graph "
    "copies the coefficient ring's graph",
    kinds=("group_ring",),
)
def _check_groupring_example(inst: Instance) -> TheoremReport:
    ring = inst.ring
    base: FiniteRing = ring.parts["base"]
    group = ring.parts["group"]
    directions = [
        ("grading_strong", PASS if is_strong(inst.grading) else FAIL),
        ("grading_first_strong", PASS if inst.first_strong else FAIL),
    ]
    witness = None
    details: dict = {}
    radix = base.size
    shift = radix**group.identity
    embed = {r: r * shift for r in range(base.size)}
    re_member_set = set(
        mask_members(inst.grading.component(inst.grading.grades.identity))
    )
    iso_ok = set(embed.values()) == re_member_set
    for a in range(base.size):
        if not iso_ok:
            break
        for b in range(base.size):
            if (
                embed[base.add[a][b]] != ring.add[embed[a]][embed[b]]
                or embed[base.mul[a][b]] != ring.mul[embed[a]][embed[b]]
            ):
                iso_ok = False
                witness = f"coefficients {base.names[a]}, {base.names[b]}"
                break
    directions.append(("coefficient_ring_is_identity_component", PASS if iso_ok else FAIL))
    if iso_ok:
        base_vertices = {
            frozenset(v.members)
            for v in nontrivial_proper(enumerate_left_ideals(base))
        }
        lifted = {
            frozenset(embed[x] for x in vs) for vs in base_vertices
        }
        # identity-component vertices traced back to parent coordinates
        emb = inst.identity_data[1]
        re_lifted = {
            frozenset(emb[x] for x in v.members) for v in inst.re_vertices
        }
        directions.append(
            ("ideal_families_match", PASS if lifted == re_lifted else FAIL)
        )
        if lifted != re_lifted:
            witness = "coefficient-ring ideals do not match the identity component"
        try:
            details = phi_iso_check(inst.grading, inst.graded_family, "first_strong")
            directions.append(("graded_graph_isomorphism", PASS))
        except (IsoViolation, WellDefinednessViolation) as exc:
            directions.append(("graded_graph_isomorphism", FAIL))
            witness = str(exc)
    return _report(
        "groupring_example",
        inst,
        True,
        "the carrier is a group ring with its canonical grading",
        "the grading is strong (hence first strong), the identity component "
        "is a copy of the coefficient ring, and the graded graph is a copy "
        "of the coefficient ring's ideal graph",
        directions,
        witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# square-zero extensions


def _idealization_parts(inst: Instance):
    base: FiniteRing = inst.ring.parts["base"]
    module = inst.ring.parts["module"]
    return base, module


def _pair_mask(base: FiniteRing, module, i_mask: int, n_mask: int) -> int:
    out = 0
    for r in mask_members(i_mask):
        for m in mask_members(n_mask):
            out |= 1 << (r * module.size + m)
    return out


@_register(
    "lemma17",
    "graded ideals of a square-zero extension are exactly the compatible "
    "component pairs",
    kinds=("idealization",),
)
def _check_lemma17(inst: Instance) -> TheoremReport:
    base, module = _idealization_parts(inst)
    hyp = module.size > 1
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        base_ideals = enumerate_left_ideals(base)
        submodules = enumerate_submodules(module)
        expected = {}
        for bi in base_ideals:
            for sm_mask in submodules:
                if all(
                    sm_mask >> module.act[r][m] & 1
                    for r in bi.members
                    for m in range(module.size)
                ):
                    expected[_pair_mask(base, module, bi.mask, sm_mask)] = (
                        bi.mask,
                        sm_mask,
                    )
        actual = {i.mask for i in inst.graded_family}
        missing = sorted(set(expected) - actual)
        extra = sorted(actual - set(expected))
        directions.append(
            ("family_equals_pairs", PASS if not missing and not extra else FAIL)
        )
        if missing:
            witness = "a compatible pair is not a graded ideal"
        if extra:
            witness = "a graded ideal is not a compatible pair"
        inter_ok = True
        pairs = list(expected.items())
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                (ma, (ia, na)) = pairs[i]
                (mb, (ib, nb)) = pairs[j]
                if ma & mb != _pair_mask(base, module, ia & ib, na & nb):
                    inter_ok = False
                    witness = "componentwise intersection mismatch"
        directions.append(("componentwise_intersection", PASS if inter_ok else FAIL))
        details = {
            "graded_ideals": len(actual),
            "compatible_pairs": len(expected),
        }
    return _report(
        "lemma17",
        inst,
        hyp,
        "the carrier is a square-zero extension with a nonzero module",
        "graded ideals are exactly the pairs (ideal, submodule) where the "
        "ideal moves the module into the submodule; intersections work "
        "componentwise",
        directions,
        witness,
        details=details,
    )


def _base_is_simple(base: FiniteRing) -> bool:
    # for the commutative carriers used here, simple means no nontrivial ideal
    return not nontrivial_proper(enumerate_left_ideals(base))


def _module_is_simple(module) -> bool:
    full = (1 << module.size) - 1
    inner = [
        m
        for m in enumerate_submodules(module)
        if m != 1 << module.zero and m != full
    ]
    return module.size > 1 and not inner


@_register(
    "t777",
    "square-zero extensions: edgeless graph detection and triggers for girth three",
    kinds=("idealization",),
)
def _check_t777(inst: Instance) -> TheoremReport:
    base, module = _idealization_parts(inst)
    hyp = module.size > 1
    directions = []
    witness = None
    annotations = []
    details: dict = {}
    if hyp:
        g = inst.graded_graph
        edgeless = is_null(g)
        tiny = _base_is_simple(base) and _module_is_simple(module)
        details["edgeless"] = edgeless
        details["base_simple"] = _base_is_simple(base)
        details["module_simple"] = _module_is_simple(module)
        directions.append(
            ("edgeless_iff_simple_pair", PASS if edgeless == tiny else FAIL)
        )
        if edgeless != tiny:
            witness = f"edgeless {edgeless}, simple pair {tiny}"
        gv = girth(g)
        details["girth"] = "inf" if gv == math.inf else gv
        base_vertices = nontrivial_proper(enumerate_left_ideals(base))
        trig_a = (not _base_is_simple(base)) and not _module_is_simple(module)
        trig_b = len(base_vertices) >= 2
        full_action = 0
        for r in range(base.size):
            for m in range(module.size):
                full_action |= 1 << module.act[r][m]
        trig_c = full_action != (1 << module.size) - 1
        directions.append(_direction("both_nonsimple_girth_three", trig_a, gv == 3))
        directions.append(_direction("two_base_ideals_girth_three", trig_b, gv == 3))
        directions.append(_direction("partial_action_girth_three", trig_c, gv == 3))
        if (trig_a or trig_b or trig_c) and gv != 3:
            witness = f"girth {gv}"
        annotations.append(
            "the third trigger compares the module with its ring multiples; "
            "a unital action always reaches the whole module, so that "
            "trigger cannot fire here"
        )
    return _report(
        "t777",
        inst,
        hyp,
        "the carrier is a square-zero extension with a nonzero module",
        "the graded graph is edgeless exactly when the base is simple and "
        "the module is simple; each stated trigger forces girth three",
        directions,
        witness,
        annotations,
        details,
    )


@_register(
    "t777_cor",
    "doubling a ring by itself: edges, a nonsimple base, and girth three coincide",
    kinds=("self_idealization",),
)
def _check_t777_cor(inst: Instance) -> TheoremReport:
    base, module = _idealization_parts(inst)
    hyp = module.size > 1
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        g = inst.graded_graph
        has_edges = not is_null(g)
        nonsimple = not _base_is_simple(base)
        three = girth(g) == 3
        details = {
            "has_edges": has_edges,
            "base_nonsimple": nonsimple,
            "girth_three": three,
        }
        agree = has_edges == nonsimple == three
        directions = [("three_way_equivalence", PASS if agree else FAIL)]
        if not agree:
            witness = str(details)
    return _report(
        "t777_cor",
        inst,
        hyp,
        "the carrier is a ring doubled by itself as a module",
        "the graded graph has an edge exactly when the base ring has a "
        "nontrivial ideal, exactly when the girth is three",
        directions,
        witness,
        details=details,
    )


@_register(
    "t231",
    "doubling a ring: the graded clique number against the base lattice count",
    kinds=("self_idealization",),
)
def _check_t231(inst: Instance) -> TheoremReport:
    base, module = _idealization_parts(inst)
    hyp = module.size > 1
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        base_vertices = sorted(
            nontrivial_proper(enumerate_left_ideals(base)), key=lambda i: i.sort_key()
        )
        base_graph = build_intersection_graph(base_vertices)
        omega_base = clique_number(base_graph)
        bound = 1 + 2 * omega_base + len(base_vertices)
        omega = clique_number(inst.graded_graph)
        details = {
            "omega_graded": omega,
            "bound": bound,
            "omega_base": omega_base,
            "base_ideals": len(base_vertices),
        }
        directions.append(("lower_bound", PASS if omega >= bound else FAIL))
        equality = omega == bound
        base_null = is_null(base_graph)
        directions.append(
            ("equality_iff_base_edgeless", PASS if equality == base_null else FAIL)
        )
        if omega < bound or equality != base_null:
            witness = str(details)
    return _report(
        "t231",
        inst,
        hyp,
        "the carrier is a ring doubled by itself as a module",
        "the graded clique number is at least one plus twice the base clique "
        "number plus the base ideal count, with equality exactly when the "
        "base graph has no edges",
        directions,
        witness,
        details=details,
    )


@_register(
    "planarity_cor",
    "doubling a ring: the graded graph is planar only for tiny base lattices",
    kinds=("self_idealization",),
)
def _check_planarity_cor(inst: Instance) -> TheoremReport:
    base, module = _idealization_parts(inst)
    hyp = module.size > 1
    directions = []
    witness = None
    details: dict = {}
    if hyp:
        base_count = len(nontrivial_proper(enumerate_left_ideals(base)))
        planar = is_planar(inst.graded_graph)
        details = {"planar": planar, "base_ideals": base_count}
        if planar is None:
            directions = [("planar_iff_small_base", FAIL)]
            witness = "planarity undecided at this graph size"
        else:
            ok = planar == (base_count <= 1)
            directions = [("planar_iff_small_base", PASS if ok else FAIL)]
            if not ok:
                witness = str(details)
    return _report(
        "planarity_cor",
        inst,
        hyp,
        "the carrier is a ring doubled by itself as a module",
        "the graded graph is planar exactly when the base ring has at most "
        "one nontrivial proper ideal",
        directions,
        witness,
        details=details,
    )


# ---------------------------------------------------------------------------
# integer gradings and leading parts


@_register(
    "lemma_ll",
    "integer gradings: the leading-part operator is a closure onto graded ideals",
    kinds=("integer",),
)
def _check_lemma_ll(inst: Instance) -> TheoremReport:
    rep = lemma_ll_check(inst.grading, inst.all_family)
    directions = [(name, PASS if ok else FAIL) for name, ok in rep["parts"].items()]
    return _report(
        "lemma_ll",
        inst,
        True,
        "the grading group is the integers",
        "taking leading parts fixes exactly the graded ideals, preserves "
        "zero and inclusions, separates nested ideals, and is idempotent",
        directions,
        witness="; ".join(rep["violations"]) or None,
        details={"checked": rep["checked"], "nested_pairs": rep["nested_pairs"]},
    )


@_register(
    "t543",
    "integer gradings: connectivity agrees between the graded and full graphs",
    kinds=("integer",),
)
def _check_t543(inst: Instance) -> TheoremReport:
    rep = inst.ordered_report
    return _report(
        "t543",
        inst,
        True,
        "the grading group is the integers",
        "the graded graph is connected exactly when the full-lattice graph is",
        [
            (
                "connectivity_agrees",
                PASS if rep["connectivity_agrees"] else FAIL,
            )
        ],
        witness=None
        if rep["connectivity_agrees"]
        else f"graded {rep['graded_connected']}, full {rep['all_connected']}",
        details={
            "graded_connected": rep["graded_connected"],
            "all_connected": rep["all_connected"],
        },
    )


@_register(
    "t544",
    "integer gradings over local rings: girths agree",
    kinds=("integer",),
)
def _check_t544(inst: Instance) -> TheoremReport:
    rep = inst.ordered_report
    hyp = rep["local"]
    directions = []
    if hyp:
        directions = [("girth_agrees", PASS if rep["girth_agrees"] else FAIL)]
    return _report(
        "t544",
        inst,
        hyp,
        "the grading group is the integers and the ring has a unique maximal "
        "left ideal",
        "the graded graph and the full-lattice graph have the same girth",
        directions,
        witness=None
        if not hyp or rep["girth_agrees"]
        else f"graded girth {rep['graded_girth']}, full girth {rep['all_girth']}",
        details={
            "graded_girth": str(rep["graded_girth"]),
            "all_girth": str(rep["all_girth"]),
            "local": rep["local"],
        },
    )


@_register(
    "r545",
    "integer gradings: when only the full graph has a cycle, the lattice is "
    "a short chain structure",
    kinds=("integer",),
)
def _check_r545(inst: Instance) -> TheoremReport:
    rep = inst.ordered_report
    triggered = rep["branch_triggered"]
    directions = []
    annotations = []
    witness = None
    if triggered:
        directions = [("branch_structure", PASS if rep["branch_ok"] else FAIL)]
        if not rep["branch_ok"]:
            witness = str(
                {
                    k: rep[k]
                    for k in (
                        "graded_local",
                        "graded_maximal_is_maximal",
                        "maxima_share_leading",
                        "four_term_chains",
                    )
                    if k in rep
                }
            )
    else:
        directions = [("branch_structure", VACUOUS)]
        annotations.append(
            "the premise (graded graph acyclic while the full graph has a "
            "triangle) does not occur on this instance; the conditional "
            "holds by emptiness"
        )
    return _report(
        "r545",
        inst,
        True,
        "the grading group is the integers",
        "if the graded graph is acyclic while the full graph has a triangle, "
        "the ring is local with maximal-chain length four and the maximal "
        "ideals line up through leading parts",
        directions,
        witness,
        annotations,
        details={
            "branch_triggered": triggered,
            "chain_term_counts": rep["chain_term_counts"],
        },
    )


# ---------------------------------------------------------------------------
# dispatch


def run_check(inst: Instance, theorem_id: str) -> TheoremReport:
    """Run one registered check; raise if the instance has the wrong shape."""
    if theorem_id not in _REGISTRY:
        raise UnknownTheorem(f"no check registered under id {theorem_id!r}")
    check = _REGISTRY[theorem_id]
    for requirement in check.kinds:
        if not inst.matches(requirement):
            raise WrongInstanceKind(
                f"{theorem_id} needs a {requirement} instance; "
                f"{inst.name} is not one"
            )
    return check.run(inst)


def run_all(inst: Instance, ids: Sequence[str] | None = None) -> list[TheoremReport]:
    """Run every requested check, marking kind mismatches as SKIPPED."""
    reports = []
    for theorem_id in ids if ids is not None else theorem_ids():
        if theorem_id not in _REGISTRY:
            raise UnknownTheorem(f"no check registered under id {theorem_id!r}")
        check = _REGISTRY[theorem_id]
        if any(not inst.matches(req) for req in check.kinds):
            reports.append(
                TheoremReport(
                    theorem_id=theorem_id,
                    instance=inst.name,
                    verdict=SKIPPED,
                    hypothesis="construction kind does not match",
                    conclusion=check.summary,
                )
            )
            continue
        reports.append(check.run(inst))
    return reports
