"""Element names, orbit masks, grading decompositions and vertex labels are
built when they are first read, each once.

No clock here: spies count the calls that build each object, and the lazy
objects are compared with the eager oracles in oracles.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import grading as grading_module
from idealgraphs import ideal_lattice, ring_core
from idealgraphs.cli import parse_instance
from idealgraphs.graph_engine import build_intersection_graph
from idealgraphs.grading import group_ring_grading, poly_quotient_integer_grading, trivial_grading
from idealgraphs.ideal_lattice import (
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    nontrivial_proper,
)
from idealgraphs.structure_maps import identity_component_ring
from oracles import (
    brute_decomposition,
    brute_left_multiple_masks,
    entrywise_algebra_over_zn,
    entrywise_group_ring,
    entrywise_polynomial_quotient,
    group_ring_names,
    relabelled_grading,
)
from oracles import ideal_label as oracle_label
from test_ring_core import ORACLE_RINGS, T2_TABLE

Z2_C9 = {
    "ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 9}}},
    "grading": "canonical",
}


def _spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_parsing_a_512_element_group_ring_formats_no_name(monkeypatch):
    formatted = _spy(monkeypatch, ring_core, "_linear_names")
    inst = parse_instance(Z2_C9)
    ring, base = inst.ring, inst.ring.parts["base"]
    assert ring.size == 512
    family = enumerate_graded_left_ideals(inst.grading)
    build_intersection_graph(nontrivial_proper(family))
    assert formatted == []
    assert "names" not in vars(ring) and "names" not in vars(base)
    want = group_ring_names(base, ring.parts["group"])
    assert list(ring.names) == want
    assert ring.names is ring.names and len(formatted) == 1


def test_validate_grading_builds_no_decomposition(monkeypatch):
    sums = _spy(monkeypatch, grading_module, "_component_sums")
    grading = group_ring_grading(ORACLE_RINGS["Z2[C4]"])
    # the overlap test sums the components once, and nothing else is built
    assert len(sums) == 1 and "decomposition" not in vars(grading)
    assert grading.decomposition == brute_decomposition(grading)
    assert grading.degree_of(2) == 1 and grading.decomposition is grading.decomposition
    assert len(sums) == 2


def test_build_intersection_graph_searches_no_label_until_one_is_read(monkeypatch):
    searched = _spy(monkeypatch, ideal_lattice, "_search_label")
    inst = parse_instance({"ring": {"zn": 60}, "grading": {"trivial": {}}})
    vertices = nontrivial_proper(enumerate_left_ideals(inst.ring))
    graph = build_intersection_graph(vertices)
    assert graph.n == len(vertices) == 10 and searched == []
    for _ in range(2):
        assert str(graph.vertices[3]) == oracle_label(inst.ring, vertices[3].mask)
        assert [mask for _, mask in searched] == [vertices[3].mask]
    labels = [str(v) for v in graph.vertices]
    assert labels == [oracle_label(inst.ring, v.mask) for v in vertices]
    # one search per vertex, the first time its label is read
    assert sorted(mask for _, mask in searched) == sorted(v.mask for v in vertices)


def test_graded_enumeration_scatters_only_homogeneous_columns(monkeypatch):
    scattered = _spy(monkeypatch, ring_core, "column_masks")
    inst = parse_instance(Z2_C9)
    ring, grading = inst.ring, inst.grading
    candidates = {
        x for x in ring_core.mask_members(grading.homogeneous_mask()) if x != ring.zero
    }
    enumerate_graded_left_ideals(grading)
    assert [set(columns) for _, columns in scattered] == [candidates]
    assert {x for x, m in enumerate(ring.orbit_memo) if m is not None} == candidates
    # the full enumeration scatters the other columns, in one more pass
    enumerate_left_ideals(ring)
    assert [len(columns) for _, columns in scattered] == [9, 512 - 9]
    assert ring.orbit_memo == brute_left_multiple_masks(ring)


def test_reads_of_a_few_orbits_scatter_those_columns(monkeypatch):
    scattered = _spy(monkeypatch, ring_core, "column_masks")
    ring = parse_instance({"ring": {"zn": 60}, "grading": {"trivial": {}}}).ring
    assert ideal_lattice.is_left_ideal(ring, ideal_lattice.generated_left_ideal(ring, [12]))
    # <12> = {0, 12, 24, 36, 48}: its generator, then its other members
    assert [columns for _, columns in scattered] == [[12], [0, 24, 36, 48]]
    assert ring.left_multiple_masks == brute_left_multiple_masks(ring)


ORACLE_NAMES = {
    "Z12": [str(x) for x in range(12)],
    "Z2[C4]": entrywise_group_ring(
        ORACLE_RINGS["Z2[C4]"].parts["base"], ORACLE_RINGS["Z2[C4]"].parts["group"]
    )["names"],
    "Z4[x]/(x^2)": entrywise_polynomial_quotient(
        ORACLE_RINGS["Z4[x]/(x^2)"].parts["base"], [0, 0, 1]
    )["names"],
    "T2(Z2)": entrywise_algebra_over_zn(2, T2_TABLE, ["b0", "b1", "b2"])["names"],
    "Z2xZ6": [f"({a},{b})" for a in range(2) for b in range(6)],
}
GRADINGS = {"Z2[C4]": group_ring_grading, "Z4[x]/(x^2)": poly_quotient_integer_grading}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lazy_objects_equal_the_eager_oracles_under_relabelling(data):
    name = data.draw(st.sampled_from(sorted(ORACLE_RINGS)))
    base = GRADINGS.get(name, trivial_grading)(ORACLE_RINGS[name])
    at = data.draw(st.permutations(range(base.ring.size)))
    grading = relabelled_grading(base, at)
    ring = grading.ring
    assert all(ring.names[at[x]] == ORACLE_NAMES[name][x] for x in range(ring.size))
    re_ring, embedding = identity_component_ring(grading)
    assert re_ring.names == tuple(ring.names[p] for p in embedding)
    assert grading.decomposition == brute_decomposition(grading)
    for family in (enumerate_graded_left_ideals(grading), enumerate_left_ideals(ring)):
        vertices = nontrivial_proper(family)
        graph = build_intersection_graph(vertices)
        assert graph.vertices == tuple(vertices)
        assert [str(v) for v in graph.vertices] == [oracle_label(ring, v.mask) for v in vertices]
