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
from .graph_engine import Graph, clique_number, domination_number
from .ideal_lattice import (
    IdealSet,
    generated_left_ideal,
    ideal_label,
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

    keys are trace masks over the identity-component ring, sorted by
    (popcount, value); classes[key] lists the graded ideals sharing that
    trace; class_key_of maps a graded ideal's mask to its key.
    """

    grading: Grading
    re_ring: FiniteRing
    keys: tuple[int, ...]
    classes: dict
    class_key_of: dict


def sim_partition(
    grading: Grading,
    graded_vertices: Sequence[IdealSet],
    re_ring: FiniteRing,
    embedding: Sequence[int],
) -> SimPartition:
    """Group the nontrivial proper graded ideals by identity trace.

    The caller establishes that the grading is faithful at the identity
    degree (Instance.partition raises NotEFaithful otherwise).  Verifies
    that every trace is a nontrivial proper left ideal of the identity
    component (re_ring, embedded into the parent by `embedding`) and that
    every class is a clique.
    """
    classes: dict = {}
    class_key_of: dict = {}
    for ideal in graded_vertices:
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
        classes.setdefault(key, []).append(ideal)
        class_key_of[ideal.mask] = key
    zero_mask = grading.ring.zero_mask
    for key, members in classes.items():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if members[a].mask & members[b].mask == zero_mask:
                    raise WellDefinednessViolation(
                        f"class {ideal_label(re_ring, key)} is not a clique: "
                        f"{members[a].label()} meets {members[b].label()} only in 0"
                    )
    keys = tuple(sorted(classes, key=lambda m: (m.bit_count(), m)))
    return SimPartition(
        grading=grading,
        re_ring=re_ring,
        keys=keys,
        classes={k: tuple(classes[k]) for k in keys},
        class_key_of=class_key_of,
    )


def quotient_graph(partition: SimPartition) -> Graph:
    """Collapse each trace class to one vertex.

    Adjacency between two classes must not depend on which representatives
    are compared; every cross pair is checked and a disagreement raises
    WellDefinednessViolation.
    """
    keys = partition.keys
    zero_mask = partition.grading.ring.zero_mask
    n = len(keys)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            verdicts = {
                (a.mask & b.mask) != zero_mask
                for a in partition.classes[keys[i]]
                for b in partition.classes[keys[j]]
            }
            if len(verdicts) > 1:
                raise WellDefinednessViolation(
                    "adjacency between classes "
                    f"{ideal_label(partition.re_ring, keys[i])} and "
                    f"{ideal_label(partition.re_ring, keys[j])} depends on representatives"
                )
            if verdicts.pop():
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    labels = tuple(ideal_label(partition.re_ring, k) for k in keys)
    return Graph(n=n, adj=tuple(adj), labels=labels)


def extension_map(
    grading: Grading, embedding: Sequence[int], re_vertices: Sequence[IdealSet]
) -> dict:
    """mask over the identity component -> mask of the generated graded ideal
    of the full ring; raises IsoViolation when an extension fails to be a
    nontrivial proper graded left ideal."""
    ring = grading.ring
    out = {}
    for ie in re_vertices:
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


def phi_iso_check(
    grading: Grading,
    re_ring: FiniteRing,
    re_vertices: Sequence[IdealSet],
    extension: dict,
    graded_vertices: Sequence[IdealSet] = (),
    partition: SimPartition | None = None,
    quotient: Graph | None = None,
) -> dict:
    """Verify that ideal extension from the identity component induces a
    graph isomorphism, and return a small report.

    Variant "quotient", when the trace partition and its quotient graph are
    given: the target is that quotient of the graded graph.  Variant
    "first_strong", otherwise: the target is the graded graph itself, on
    graded_vertices.  The caller checks the variant's hypothesis (identity
    faithful, or first strong).  Any failed isomorphism condition raises
    IsoViolation naming a witness.
    """
    zero_re = re_ring.zero_mask

    if partition is not None:
        image_key = {
            ie.mask: partition.class_key_of.get(extension[ie.mask])
            for ie in re_vertices
        }
        for ie in re_vertices:
            if image_key[ie.mask] is None:
                raise IsoViolation(
                    f"extension of {ie.label()} lies in no trace class"
                )
        hit = set(image_key.values())
        if len(hit) != len(re_vertices):
            raise IsoViolation("two identity-component ideals map to one class")
        missing = [k for k in partition.keys if k not in hit]
        if missing:
            raise IsoViolation(
                f"class {ideal_label(re_ring, missing[0])} is not in the image"
            )
        key_index = {k: i for i, k in enumerate(partition.keys)}
        for a in range(len(re_vertices)):
            for b in range(a + 1, len(re_vertices)):
                ia, ib = re_vertices[a], re_vertices[b]
                left = (ia.mask & ib.mask) != zero_re
                right = quotient.has_edge(
                    key_index[image_key[ia.mask]], key_index[image_key[ib.mask]]
                )
                if left != right:
                    raise IsoViolation(
                        f"adjacency of {ia.label()} and {ib.label()} is not preserved"
                    )
        return {
            "variant": "quotient",
            "identity_vertices": len(re_vertices),
            "classes": len(partition.keys),
            "class_sizes": [len(partition.classes[k]) for k in partition.keys],
        }

    vertex_masks = {i.mask for i in graded_vertices}
    images = [extension[ie.mask] for ie in re_vertices]
    if len(set(images)) != len(images):
        raise IsoViolation("two identity-component ideals extend to one graded ideal")
    missing = vertex_masks - set(images)
    if missing:
        mask = sorted(missing, key=lambda m: (m.bit_count(), m))[0]
        raise IsoViolation(
            f"graded ideal {ideal_label(grading.ring, mask)} is not an extension"
        )
    zero_full = grading.ring.zero_mask
    for a in range(len(re_vertices)):
        for b in range(a + 1, len(re_vertices)):
            ia, ib = re_vertices[a], re_vertices[b]
            left = (ia.mask & ib.mask) != zero_re
            right = (extension[ia.mask] & extension[ib.mask]) != zero_full
            if left != right:
                raise IsoViolation(
                    f"adjacency of {ia.label()} and {ib.label()} is not preserved"
                )
    return {
        "variant": "first_strong",
        "identity_vertices": len(re_vertices),
        "graded_vertices": len(vertex_masks),
    }


def gamma_omega_transfer(
    partition: SimPartition,
    re_vertices: Sequence[IdealSet],
    re_graph: Graph,
    graded_graph: Graph,
    extension: dict,
) -> dict:
    """Compare domination and clique numbers across the transfer.

    Reports both domination numbers, both clique numbers, and the clique
    number predicted for the graded graph: the heaviest clique of the
    identity component's graph, each vertex weighted by its class size.
    """
    class_size = [
        len(partition.classes[partition.class_key_of[extension[ie.mask]]])
        for ie in re_vertices
    ]
    return {
        "gamma_identity": domination_number(re_graph),
        "gamma_graded": domination_number(graded_graph),
        "omega_identity": clique_number(re_graph),
        "omega_graded": clique_number(graded_graph),
        "omega_from_classes": clique_number(re_graph, class_size),
        "class_sizes": [len(partition.classes[k]) for k in partition.keys],
    }


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
