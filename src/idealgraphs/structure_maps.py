"""Transfer between the identity component's ideal graph and the graded graph.

When the grading is faithful at the identity degree, every nontrivial proper
graded left ideal leaves a nonzero trace on the identity component.  Grouping
the graded ideals by that trace yields classes that are cliques, adjacency
between classes is independent of the chosen representatives, and collapsing
each class to a point reproduces the intersection graph of the identity
component's own nontrivial proper left ideals.  When the grading is first
strong the collapse is the identity: extension of ideals from the identity
component is itself a graph isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IsoViolation, WellDefinednessViolation
from .grading import Grading, validate_grading
from .graph_engine import Graph
from .ideal_lattice import (
    IdealSet,
    generated_left_ideal,
    is_graded,
    is_left_ideal,
)
from .ring_core import FiniteRing, mask_members, subring_on, unital_ring_on


def identity_component_ring(grading: Grading) -> tuple[FiniteRing, tuple[int, ...]]:
    """The identity-degree component as a ring of its own, with the embedding
    back into the parent (new index -> parent index).  When every element
    has the identity degree, that ring is the parent itself."""
    ring = grading.ring
    comp = grading.component(grading.grades.identity)
    if comp == ring.full_mask:
        return ring, tuple(range(ring.size))
    return subring_on(ring, mask_members(comp))


def _trace_mask(parent_mask: int, embedding: Sequence[int]) -> int:
    """Re-index the part of a parent-ring subset lying in the subring."""
    out = 0
    for child, parent in enumerate(embedding):
        if parent_mask >> parent & 1:
            out |= 1 << child
    return out


@dataclass(eq=False)
class SimPartition:
    """Nontrivial proper graded left ideals, grouped by identity trace.

    keys are the trace masks over the identity-component ring, sorted by
    (popcount, value); classes[k] is the mask of the positions, in the
    graded graph, of the ideals whose trace is keys[k]; class_of maps a
    graded ideal's mask to its class position k.
    """

    re_ring: FiniteRing
    keys: tuple[int, ...]
    classes: tuple[int, ...]
    class_of: dict


def sim_partition(
    graded_ideals: Sequence[IdealSet],
    re_ring: FiniteRing,
    embedding: Sequence[int],
) -> SimPartition:
    """Group the nontrivial proper graded ideals, the graded graph's
    vertices in that graph's order, by identity trace.

    The caller establishes that the grading is faithful at the identity
    degree (Instance.partition raises NotEFaithful otherwise).  Verifies
    that every trace is a nontrivial proper left ideal of the identity
    component (re_ring, embedded into the parent by `embedding`);
    quotient_graph checks that every class is a clique.
    """
    positions: dict = {}
    for pos, ideal in enumerate(graded_ideals):
        key = _trace_mask(ideal.mask, embedding)
        if key == re_ring.zero_mask:
            raise WellDefinednessViolation(
                f"graded ideal {ideal.label()} has zero identity trace"
            )
        if key == re_ring.full_mask:
            raise WellDefinednessViolation(
                f"graded ideal {ideal.label()} traces onto the whole identity component"
            )
        if not is_left_ideal(re_ring, key):
            raise WellDefinednessViolation(
                f"trace of {ideal.label()} is not a left ideal of the identity component"
            )
        positions[key] = positions.get(key, 0) | 1 << pos
    keys = tuple(sorted(positions, key=lambda m: (m.bit_count(), m)))
    classes = tuple(positions[key] for key in keys)
    class_of = {
        graded_ideals[v].mask: k
        for k, members in enumerate(classes)
        for v in mask_members(members)
    }
    return SimPartition(re_ring=re_ring, keys=keys, classes=classes, class_of=class_of)


def quotient_graph(partition: SimPartition, graded_graph: Graph) -> Graph:
    """Collapse each trace class of the graded graph to one vertex.

    One scan over the graded graph's rows, class by class in key order,
    tests the diagonal block (the class is a clique), then the blocks
    towards later classes (each is all edges or none, so adjacency between
    classes does not depend on representatives), and keeps the class's
    quotient row.  The first failure raises WellDefinednessViolation.  The
    vertex of a class is its trace, an ideal of the identity component.
    """
    classes, adj, vertices = partition.classes, graded_graph.adj, graded_graph.vertices
    held = sum(classes)
    if held != (1 << graded_graph.n) - 1:
        raise WellDefinednessViolation(
            f"the graded graph has {graded_graph.n} vertices, "
            f"the trace classes hold {held.bit_count()}"
        )
    traces = tuple(IdealSet(partition.re_ring, key) for key in partition.keys)
    rows = []
    for k, members in enumerate(classes):
        vs = mask_members(members)
        row = outside = 0
        for j, other in enumerate(classes):
            if j != k and adj[vs[0]] & other:
                row |= 1 << j
                outside |= other
        for v in vs:
            missing = members & ~adj[v] & ~(1 << v)
            if missing:
                raise WellDefinednessViolation(
                    f"class {traces[k]} is not a clique: {vertices[v]} meets "
                    f"{vertices[mask_members(missing)[0]]} only in 0"
                )
        if any(adj[v] & ~members != outside for v in vs):
            j = next(
                j for j in range(k + 1, len(classes))
                if {adj[v] & classes[j] for v in vs} not in ({0}, {classes[j]})
            )
            raise WellDefinednessViolation(
                f"adjacency between classes {traces[k]} and {traces[j]} "
                "depends on representatives"
            )
        rows.append(row)
    return Graph(adj=tuple(rows), vertices=traces)


def extension_map(
    grading: Grading, embedding: Sequence[int], re_ideals: Sequence[IdealSet]
) -> dict:
    """mask over the identity component -> mask of the generated graded ideal
    of the full ring; raises IsoViolation when an extension fails to be a
    nontrivial proper graded left ideal."""
    ring = grading.ring
    out = {}
    for ie in re_ideals:
        gens = [embedding[x] for x in ie.members]
        ext = generated_left_ideal(ring, gens)
        if ext == ring.zero_mask or ext == ring.full_mask:
            raise IsoViolation(
                f"extension of {ie.label()} is trivial or the whole ring"
            )
        if not is_graded(grading, ext):
            raise IsoViolation(f"extension of {ie.label()} is not graded")
        out[ie.mask] = ext
    return out


def phi_iso_check(source: Graph, image: Sequence[int | None], target: Graph) -> None:
    """Check that a vertex map is a graph isomorphism from source onto target.

    image[a] is the target vertex of source vertex a, or None when it has
    none.  The map must hit every target vertex exactly once, and two
    source vertices must be adjacent exactly when their images are.  The
    first failure raises IsoViolation: the first source vertex without an
    image, the first whose image an earlier one already has, the first
    target vertex not hit, or else the first pair (a, b) in row-major order
    whose adjacency differs, read from the XOR of a's row with the pullback
    of its image's row.
    """
    source_of: list = [None] * target.n
    for a, t in enumerate(image):
        if t is None or not 0 <= t < target.n:
            raise IsoViolation(f"{source.vertices[a]} has no image")
        if source_of[t] is not None:
            raise IsoViolation(
                f"{source.vertices[source_of[t]]} and {source.vertices[a]} "
                f"both map to {target.vertices[t]}"
            )
        source_of[t] = a
    if None in source_of:
        raise IsoViolation(f"{target.vertices[source_of.index(None)]} is not in the image")
    source_bit = [1 << a for a in source_of]
    for a, t in enumerate(image):
        pulled = sum([source_bit[u] for u in mask_members(target.adj[t])])
        diff = source.adj[a] ^ pulled
        if diff:
            raise IsoViolation(
                f"adjacency of {source.vertices[a]} and "
                f"{source.vertices[mask_members(diff)[0]]} is not preserved"
            )


def induced_factor_grading(grading: Grading, factor_mask: int) -> Grading:
    """Grading of a direct-sum factor: the factor carries its own identity,
    and each component is the intersection of the parent component with the
    factor.  The full grading contract is re-validated on the factor."""
    child, embedding = unital_ring_on(grading.ring, mask_members(factor_mask))
    raw = {
        deg: _trace_mask(comp & factor_mask, embedding)
        for deg, comp in grading.components.items()
    }
    return validate_grading(child, grading.grades, raw)
