"""One graded ring under test, and the single owner of what derives from it.

A Lattice is one ideal family that the checks compare: the left ideals of
a ring, or its graded left ideals under a grading, with its intersection
graph and its internal direct-sum splittings.  An Instance holds four
kinds: the graded and the `full` lattice of its ring, the `identity`
component's, the `base` ring's of a group ring or an idealization, and
each direct-sum `factor`'s under its induced grading.  One rule, in
`_graded`, shares them: when the identity component is the whole ring, as
under a trivial grading, every left ideal is graded, so the graded and the
identity component's lattices are the full one.  The graded lattice is read
as `graded_family`, `graded_graph` and `graded_decompositions`, the names
the benchmark worker reads (ROADMAP item 11).

An Instance also holds the identity component as a subring with its
embedding; the trace partition, its quotient graph, the extension map, and
the isomorphism reports onto that quotient and onto the graded graph (the
partition groups the graded graph's vertices, the quotient is read from
that graph's rows, and each report checks one vertex map from the identity
component's graph, built from that graph's own vertices); the
identity-faithful and first-strong flags; and an idealization's submodules.

Each object is built at most once, on first use, and the checks in
theorem_suite and the command line take them from here.  Each check
computes its own comparisons from them: graph invariants, maximal members,
leading ideals.  A graph is built from the nontrivial proper members of
its family and holds them as its vertices, so a check that pairs ideals
with a graph reads `graph.vertices`, and a check that needs only the
ideals reads the family.  `of_family` checks that a graph's vertices are
the nontrivial proper members of the family it shows, in any order,
before a check relies on that, as a graph planted in place of an
Instance's own may not show it.

The caches live on the Instance and its Lattices, never on the ring or the
grading: the families, gradings and graphs point back at the ring, so a
cache hung on the ring would form a reference cycle that only the cycle
collector frees.  structure_maps is imported where it is first needed, so
loading an instance does not load it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .errors import IsoViolation, NotEFaithful, WrongConstruction
from .grading import Grading, is_canonical, is_e_faithful, is_first_strong
from .graph_engine import Graph, build_intersection_graph
from .ideal_lattice import (
    IdealSet,
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    enumerate_submodules,
    internal_decompositions,
    nontrivial_proper,
)
from .ring_core import FiniteRing


def of_family(graph: Graph, family: Sequence[IdealSet]) -> Graph:
    """`graph`, once its vertices are checked to be the nontrivial proper
    members of `family`, in any order; raises IsoViolation when they are
    not, as a graph planted in place of an Instance's own may not be."""
    members = nontrivial_proper(family)
    if graph.n != len(members):
        raise IsoViolation(
            f"a graph of {graph.n} vertices is read by the positions of "
            f"{len(members)} nontrivial proper left ideals"
        )
    shown = {getattr(v, "mask", None) for v in graph.vertices}
    missing = next((i for i in members if i.mask not in shown), None)
    if missing is not None:
        raise IsoViolation(f"{missing} is not a vertex of the graph")
    return graph


@dataclass(eq=False)
class Lattice:
    """The left ideals of `ring`, or its graded left ideals under `grading`,
    with their intersection graph and internal direct-sum splittings."""

    ring: FiniteRing
    grading: Grading | None = None

    @cached_property
    def family(self) -> list[IdealSet]:
        if self.grading is None:
            return enumerate_left_ideals(self.ring)
        return enumerate_graded_left_ideals(self.grading)

    @cached_property
    def graph(self) -> Graph:
        return build_intersection_graph(nontrivial_proper(self.family))

    @cached_property
    def decompositions(self) -> list[tuple[IdealSet, IdealSet]]:
        """Unordered pairs of members that split the ring as a direct sum."""
        return internal_decompositions(self.ring, self.family)


@dataclass(eq=False)
class Instance:
    """One graded ring under test, with lazily cached derived objects."""

    name: str
    ring: FiniteRing
    grading: Grading
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    # -- lattices

    @cached_property
    def full(self) -> Lattice:
        return Lattice(self.ring)

    @cached_property
    def _graded(self) -> Lattice:
        """The graded lattice, the full one when every left ideal is graded."""
        grading = self.grading
        if grading.component(grading.grades.identity) == self.ring.full_mask:
            return self.full
        return Lattice(self.ring, grading)

    @cached_property
    def identity(self) -> Lattice:
        """The identity component's lattice, the full one when it is whole."""
        if self._graded is self.full:
            return self.full
        return Lattice(self.identity_data[0])

    @cached_property
    def base(self) -> Lattice:
        """The base ring's lattice, for a group ring or an idealization."""
        return Lattice(self.ring.parts["base"])

    @cached_property
    def module_family(self) -> list[int]:
        """Submodule masks of an idealization's module."""
        return enumerate_submodules(self.ring.parts["module"])

    def factor(self, factor_mask: int) -> Lattice:
        """The graded lattice of a direct-sum factor under the grading it
        inherits, kept per factor."""
        from .structure_maps import induced_factor_grading

        if factor_mask not in self._factors:
            grading = induced_factor_grading(self.grading, factor_mask)
            self._factors[factor_mask] = Lattice(grading.ring, grading)
        return self._factors[factor_mask]

    # The graded lattice, under the names `perfbench/worker.py` reads with its
    # vars(inst) key "graded_graph"; ROADMAP item 11 makes them `inst.graded`.

    @cached_property
    def graded_family(self) -> list[IdealSet]:
        return self._graded.family

    @cached_property
    def graded_graph(self) -> Graph:
        return self._graded.graph

    @cached_property
    def graded_decompositions(self) -> list[tuple[IdealSet, IdealSet]]:
        return self._graded.decompositions

    # -- identity component

    @cached_property
    def identity_data(self) -> tuple[FiniteRing, tuple[int, ...]]:
        """The identity component as a ring, and its embedding (new index
        -> parent index)."""
        from .structure_maps import identity_component_ring

        return identity_component_ring(self.grading)

    @property
    def re_embedding(self) -> tuple[int, ...]:
        return self.identity_data[1]

    @cached_property
    def e_faithful(self) -> bool:
        return is_e_faithful(self.grading)

    @cached_property
    def first_strong(self) -> bool:
        return is_first_strong(self.grading)

    # -- transfer between the identity component and the graded graph

    @cached_property
    def partition(self):
        """The graded graph's vertices grouped by identity trace (a
        SimPartition); raises NotEFaithful unless the grading is faithful at
        the identity, and IsoViolation unless that graph shows the graded
        family."""
        from .structure_maps import sim_partition

        if not self.e_faithful:
            raise NotEFaithful("grading is not faithful at the identity degree")
        graded = of_family(self.graded_graph, self.graded_family)
        return sim_partition(graded.vertices, self.identity.ring, self.re_embedding)

    @cached_property
    def quotient(self) -> Graph:
        """The graded graph with each trace class collapsed to a vertex."""
        from .structure_maps import quotient_graph

        return quotient_graph(self.partition, self.graded_graph)

    @cached_property
    def extension(self) -> dict:
        """Identity-component vertex mask -> mask of the graded ideal it
        generates in the whole ring."""
        from .structure_maps import extension_map

        vertices = self.identity.graph.vertices
        return extension_map(self.grading, self.re_embedding, vertices)

    @cached_property
    def quotient_iso(self) -> dict:
        """Extension followed by the trace-class collapse, checked by
        structure_maps.phi_iso_check as a map from the identity component's
        graph onto the quotient; needs an identity-faithful grading (else
        NotEFaithful)."""
        from .structure_maps import phi_iso_check

        # a violation in the partition or the quotient is reported before
        # one in the extension
        quotient, class_of = self.quotient, self.partition.class_of
        source = of_family(self.identity.graph, self.identity.family)
        image = [class_of.get(self.extension[ie.mask]) for ie in source.vertices]
        phi_iso_check(source, image, quotient)
        classes = self.partition.classes
        return {
            "variant": "quotient",
            "identity_vertices": len(image),
            "classes": len(classes),
            "class_sizes": [members.bit_count() for members in classes],
        }

    @cached_property
    def first_strong_iso(self) -> dict:
        """Extension alone, checked by structure_maps.phi_iso_check as a map
        from the identity component's graph onto the graded graph; needs a
        first-strong grading (else WrongConstruction)."""
        from .structure_maps import phi_iso_check

        if not self.first_strong:
            raise WrongConstruction(
                "first-strong comparison needs a first-strong grading"
            )
        source = of_family(self.identity.graph, self.identity.family)
        target = self.graded_graph
        position = {v.mask: i for i, v in enumerate(target.vertices)}
        image = [position.get(self.extension[ie.mask]) for ie in source.vertices]
        phi_iso_check(source, image, target)
        return {
            "variant": "first_strong",
            "identity_vertices": len(image),
            "graded_vertices": target.n,
        }

    # -- construction kinds

    def matches(self, requirement: str) -> bool:
        """Whether the instance meets a check's kind requirement."""
        if requirement in ("idealization", "group_ring"):
            return self.ring.kind == requirement and is_canonical(self.grading)
        if requirement == "self_idealization":
            return (
                self.matches("idealization")
                and self.ring.parts["module"].kind == "self"
            )
        if requirement == "integer":
            return self.grading.grades.kind == "integers"
        raise ValueError(f"unknown kind requirement: {requirement!r}")
