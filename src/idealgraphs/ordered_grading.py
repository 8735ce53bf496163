"""Leading-part comparison for integer-graded carriers.

Over the integers the support is finite and totally ordered, so every
nonzero element has a leading homogeneous part: the piece of highest degree.
Sending a left ideal to the ideal generated by the leading parts of its
members gives a graded companion I~ that fixes exactly the graded ideals,
preserves zero and containment, and separates nested distinct ideals.  The
comparison checks here relate the graded graph to the full-lattice graph
through that companion map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NotIntegerGraded
from .grading import Grading
from .graph_engine import Graph, girth, is_connected
from .ideal_lattice import (
    IdealSet,
    generated_left_ideal,
    is_graded,
    maximal_chain_term_counts,
    maximal_members,
)


@dataclass(frozen=True)
class LeadingIdealResult:
    """Leading companion of one left ideal.

    generator_trace pairs each nonzero member of the source with its leading
    homogeneous part (element indices in the carrier ring).
    """

    source: IdealSet
    leading: IdealSet
    generator_trace: tuple


def _require_integers(grading: Grading) -> None:
    if grading.grades.kind != "integers":
        raise NotIntegerGraded("leading parts need an integer-graded carrier")


def leading_part(grading: Grading, x: int) -> int:
    """Highest-degree homogeneous part of a nonzero element."""
    _require_integers(grading)
    parts = grading.decomposition[x]
    return parts[-1][1]


def leading_ideal(grading: Grading, source: IdealSet) -> LeadingIdealResult:
    """The left ideal generated by the leading parts of all members."""
    _require_integers(grading)
    ring = grading.ring
    trace = tuple(
        (x, leading_part(grading, x)) for x in source.members if x != ring.zero
    )
    mask = generated_left_ideal(ring, [lead for _, lead in trace])
    leading = IdealSet(ring=ring, mask=mask)
    return LeadingIdealResult(source=source, leading=leading, generator_trace=trace)


def lemma_ll_check(grading: Grading, family: Sequence[IdealSet]) -> dict:
    """Exhaustive check of the leading-companion laws on a full ideal family.

    Laws: I~ = I exactly for graded ideals; I~ = 0 exactly for I = 0;
    I <= J implies I~ <= J~; for nested pairs, I = J exactly when I~ = J~.
    The companion is also idempotent.  Returns per-law flags plus witnesses
    for any violation.
    """
    _require_integers(grading)
    ring = grading.ring
    ideals = sorted(family, key=lambda i: i.sort_key())
    lead = {i.mask: leading_ideal(grading, i).leading.mask for i in ideals}
    violations = []
    parts = {
        "fixed_iff_graded": True,
        "zero_iff_zero": True,
        "monotone": True,
        "nested_separated": True,
        "idempotent": True,
    }
    for i in ideals:
        li = lead[i.mask]
        if (li == i.mask) != is_graded(grading, i.mask):
            parts["fixed_iff_graded"] = False
            violations.append(("fixed_iff_graded", i.label()))
        if (li == ring.zero_mask) != (i.mask == ring.zero_mask):
            parts["zero_iff_zero"] = False
            violations.append(("zero_iff_zero", i.label()))
        refix = leading_ideal(grading, IdealSet(ring=ring, mask=li)).leading.mask
        if refix != li:
            parts["idempotent"] = False
            violations.append(("idempotent", i.label()))
    pair_count = 0
    for i in ideals:
        for j in ideals:
            if i.mask == j.mask or (i.mask | j.mask) != j.mask:
                continue
            pair_count += 1
            if lead[i.mask] | lead[j.mask] != lead[j.mask]:
                parts["monotone"] = False
                violations.append(("monotone", (i.label(), j.label())))
            if lead[i.mask] == lead[j.mask]:
                parts["nested_separated"] = False
                violations.append(("nested_separated", (i.label(), j.label())))
    return {
        "checked": len(ideals),
        "nested_pairs": pair_count,
        "parts": parts,
        "ok": all(parts.values()),
        "violations": violations,
    }


def ordered_comparison_check(
    grading: Grading,
    graded_family: Sequence[IdealSet],
    all_family: Sequence[IdealSet],
    graded_graph: Graph,
    all_graph: Graph,
) -> dict:
    """Relate the graded graph to the full-lattice graph for an integer
    grading; each graph is the intersection graph of its family's
    nontrivial proper members.

    Always compared: connectivity of the two graphs (they must agree).  When
    the ring is local (unique maximal left ideal), the girths must agree too.
    The final branch handles the remaining shape: graded girth infinite while
    the full-lattice girth is 3.  In that case the unique graded maximal
    ideal must be maximal in the full lattice, every maximal left ideal must
    have it as leading companion, and every maximal chain from 0 to the whole
    ring must have exactly four terms.  The chain-length distribution is
    reported either way so the branch can be audited.
    """
    _require_integers(grading)
    report: dict = {
        "graded_connected": is_connected(graded_graph),
        "all_connected": is_connected(all_graph),
    }
    report["connectivity_agrees"] = (
        report["graded_connected"] == report["all_connected"]
    )
    g_graded = girth(graded_graph)
    g_all = girth(all_graph)
    report["graded_girth"] = g_graded
    report["all_girth"] = g_all
    maxima = maximal_members(all_family)
    report["local"] = len(maxima) == 1
    report["girth_agrees"] = (g_graded == g_all) if report["local"] else None
    report["chain_term_counts"] = sorted(maximal_chain_term_counts(all_family))

    triggered = g_graded == math.inf and g_all == 3
    report["branch_triggered"] = triggered
    if triggered:
        graded_maxima = maximal_members(graded_family)
        report["graded_local"] = len(graded_maxima) == 1
        if report["graded_local"]:
            m = graded_maxima[0]
            report["graded_maximal_is_maximal"] = any(
                k.mask == m.mask for k in maxima
            )
            report["maxima_share_leading"] = all(
                leading_ideal(grading, k).leading.mask == m.mask for k in maxima
            )
        report["four_term_chains"] = report["chain_term_counts"] == [4]
        report["branch_ok"] = (
            report["graded_local"]
            and report.get("graded_maximal_is_maximal", False)
            and report.get("maxima_share_leading", False)
            and report["four_term_chains"]
        )
    return report
