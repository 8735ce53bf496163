"""One graded ring under test, and the single owner of what derives from it.

An Instance builds each derived object at most once, on first use:

- the graded and the full left ideal families and their graphs (when the
  identity component is the whole ring, as under a trivial grading, every
  left ideal is graded, and the graded ones are the full ones);
- the identity component as a subring with its embedding, and that
  subring's family and graph (under a trivial grading the component is the
  whole ring, and these are the full family and graph);
- the trace partition, its quotient graph, the extension map, and the
  isomorphism reports onto that quotient and onto the graded graph;
  the partition groups the graded graph's vertices, the quotient is read
  from that graph's rows, and each report checks one vertex map from the
  identity component's graph, built from that graph's own vertices;
- the identity-faithful and first-strong flags;
- the base family and the submodule family of a composite carrier;
- the induced grading, and its graded graph, of each direct-sum factor.

The checks in theorem_suite and the command line take these objects from
here, so one run over every check derives each object once.  Each check
computes its own comparisons from them: graph invariants, maximal members,
leading ideals.  A graph is built from the nontrivial proper members of
its family and holds them as its vertices, so a check that pairs ideals
with a graph reads `graph.vertices`, and a check that needs only the
ideals reads the family.  `of_family` checks that a graph's vertices are
the nontrivial proper members of the family it shows, in any order,
before a check relies on that, as a graph planted in place of an
Instance's own may not show it.

The caches live on the Instance, never on the ring or the grading: the
families, gradings and graphs point back at the ring, so a cache hung on the
ring would form a reference cycle that only the cycle collector frees.
structure_maps is imported where it is first needed, so loading an
instance does not load it.
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
class Instance:
    """One graded ring under test, with lazily cached derived objects."""

    name: str
    ring: FiniteRing
    grading: Grading
    _factor_gradings: dict = field(default_factory=dict, init=False, repr=False)
    _factor_graphs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def _identity_is_whole(self) -> bool:
        """Whether the identity component is the whole ring, as it is under
        a trivial grading: every left ideal is then graded, and the graded
        lattice and graph, like the identity component's, are the full ones."""
        grading = self.grading
        return grading.component(grading.grades.identity) == self.ring.full_mask

    # -- graded and full lattices

    @cached_property
    def graded_family(self) -> list[IdealSet]:
        if self._identity_is_whole:
            return self.all_family
        return enumerate_graded_left_ideals(self.grading)

    @cached_property
    def graded_graph(self) -> Graph:
        if self._identity_is_whole:
            return self.all_graph
        return build_intersection_graph(nontrivial_proper(self.graded_family))

    @cached_property
    def graded_decompositions(self) -> list[tuple[IdealSet, IdealSet]]:
        """Internal direct-sum splittings into two graded ideals."""
        return internal_decompositions(self.ring, self.graded_family)

    @cached_property
    def all_family(self) -> list[IdealSet]:
        return enumerate_left_ideals(self.ring)

    @cached_property
    def all_graph(self) -> Graph:
        return build_intersection_graph(nontrivial_proper(self.all_family))

    # -- identity component

    @cached_property
    def identity_data(self) -> tuple[FiniteRing, tuple[int, ...]]:
        """The identity component as a ring, and its embedding (new index
        -> parent index)."""
        from .structure_maps import identity_component_ring

        return identity_component_ring(self.grading)

    @property
    def re_ring(self) -> FiniteRing:
        return self.identity_data[0]

    @property
    def re_embedding(self) -> tuple[int, ...]:
        return self.identity_data[1]

    @cached_property
    def re_family(self) -> list[IdealSet]:
        if self._identity_is_whole:
            return self.all_family
        return enumerate_left_ideals(self.re_ring)

    @cached_property
    def re_graph(self) -> Graph:
        if self._identity_is_whole:
            return self.all_graph
        return build_intersection_graph(nontrivial_proper(self.re_family))

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
        return sim_partition(graded.vertices, self.re_ring, self.re_embedding)

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

        return extension_map(self.grading, self.re_embedding, self.re_graph.vertices)

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
        source = of_family(self.re_graph, self.re_family)
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
        source, target = of_family(self.re_graph, self.re_family), self.graded_graph
        position = {v.mask: i for i, v in enumerate(target.vertices)}
        image = [position.get(self.extension[ie.mask]) for ie in source.vertices]
        phi_iso_check(source, image, target)
        return {
            "variant": "first_strong",
            "identity_vertices": len(image),
            "graded_vertices": target.n,
        }

    # -- parts of composite carriers

    @cached_property
    def base_family(self) -> list[IdealSet]:
        """Left ideals of the base ring of a group ring or idealization."""
        return enumerate_left_ideals(self.ring.parts["base"])

    @cached_property
    def base_graph(self) -> Graph:
        return build_intersection_graph(nontrivial_proper(self.base_family))

    @cached_property
    def module_family(self) -> list[int]:
        """Submodule masks of an idealization's module."""
        return enumerate_submodules(self.ring.parts["module"])

    def factor_grading(self, factor_mask: int) -> Grading:
        """The grading a direct-sum factor inherits, kept per factor."""
        from .structure_maps import induced_factor_grading

        grading = self._factor_gradings.get(factor_mask)
        if grading is None:
            grading = induced_factor_grading(self.grading, factor_mask)
            self._factor_gradings[factor_mask] = grading
        return grading

    def factor_graph(self, factor_mask: int) -> Graph:
        """The graded graph of a direct-sum factor, kept per factor."""
        graph = self._factor_graphs.get(factor_mask)
        if graph is None:
            family = enumerate_graded_left_ideals(self.factor_grading(factor_mask))
            graph = build_intersection_graph(nontrivial_proper(family))
            self._factor_graphs[factor_mask] = graph
        return graph

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
