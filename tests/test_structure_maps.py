import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import (
    Graph,
    IdealSet,
    Instance,
    IsoViolation,
    NotEFaithful,
    SimPartition,
    WellDefinednessViolation,
    WrongConstruction,
    build_intersection_graph,
    domination_number,
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    graph_from_edges,
    ideal_label,
    identity_component_ring,
    induced_factor_grading,
    is_connected,
    is_graded_field,
    nontrivial_proper,
    phi_iso_check,
    quotient_graph,
    run_all,
    sim_partition,
)
from idealgraphs.ring_core import mask_members
from oracles import pairwise_phi_iso, pairwise_quotient


class TestIdentityComponent:
    def test_group_ring_identity_component_is_the_coefficients(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        sub, embedding = identity_component_ring(inst.grading)
        assert sub.size == 4
        assert sub.commutative
        # embedded members are the scalar multiples of unity
        assert sorted(embedding) == [0, 1, 2, 3]

    def test_trivial_grading_gives_back_the_ring(self, corpus_instances):
        inst = corpus_instances["z12"]
        sub, embedding = identity_component_ring(inst.grading)
        assert sub.size == 12
        assert tuple(embedding) == tuple(range(12))


class TestSimPartition:
    def test_group_ring_single_class(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        part = sim_partition(inst.graded_graph.vertices, *inst.identity_data)
        assert len(part.keys) == 1
        (members,) = part.classes
        assert [inst.graded_graph.vertices[v].label() for v in mask_members(members)] == ["<2>"]

    def test_matrix_ring_classes(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        part = sim_partition(inst.graded_graph.vertices, *inst.identity_data)
        # two identity-component ideals, one graded ideal over each
        assert len(part.keys) == 2
        assert sorted(m.bit_count() for m in part.classes) == [1, 1]

    def test_rejects_unfaithful_gradings(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        with pytest.raises(NotEFaithful):
            inst.partition

    def test_quotient_graph_of_group_ring(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        part = sim_partition(inst.graded_graph.vertices, *inst.identity_data)
        g = quotient_graph(part, inst.graded_graph)
        assert g.n == 1
        assert g.edge_count == 0

    def test_quotient_vertices_are_the_traces(self, corpus_instances):
        for name, inst in corpus_instances.items():
            if not inst.e_faithful:
                continue
            keys, re_ring = inst.partition.keys, inst.identity.ring
            assert inst.quotient.vertices == tuple(IdealSet(re_ring, k) for k in keys), name
            labels = [str(v) for v in inst.quotient.vertices]
            assert labels == [ideal_label(re_ring, k) for k in keys], name


class TestPhiIsomorphism:
    @pytest.mark.parametrize("name", ["z12", "z4c2", "z8c2", "m2f2", "f4", "z2c3"])
    def test_quotient_variant_on_faithful_instances(self, corpus_instances, name):
        inst = corpus_instances[name]
        class_of = inst.partition.class_of
        image = [class_of[inst.extension[ie.mask]] for ie in inst.identity.graph.vertices]
        target = quotient_graph(inst.partition, inst.graded_graph)
        assert phi_iso_check(inst.identity.graph, image, target) is None
        report = inst.quotient_iso
        assert report["variant"] == "quotient"
        assert report["identity_vertices"] == report["classes"]

    @pytest.mark.parametrize("name", ["z12", "z4c2", "z8c2", "z2c3"])
    def test_first_strong_variant(self, corpus_instances, name):
        inst = corpus_instances[name]
        position = {v.mask: i for i, v in enumerate(inst.graded_graph.vertices)}
        image = [position[inst.extension[ie.mask]] for ie in inst.identity.graph.vertices]
        assert phi_iso_check(inst.identity.graph, image, inst.graded_graph) is None
        report = inst.first_strong_iso
        assert report["variant"] == "first_strong"
        assert report["identity_vertices"] == report["graded_vertices"]

    def test_first_strong_variant_guards(self, corpus_instances):
        inst = corpus_instances["m2f2"]  # identity faithful but not first strong
        with pytest.raises(WrongConstruction):
            inst.first_strong_iso


# the corpus instances with an identity-faithful or a first-strong grading
TRANSFER = [
    "f4", "m2f2", "z12", "z2", "z2c2", "z2c3", "z2xz2", "z4", "z4c2",
    "z4xz4_product", "z8_int", "z8c2",
]


def test_transfer_list_is_every_faithful_instance(corpus_instances):
    assert TRANSFER == [
        n for n, i in corpus_instances.items() if i.e_faithful or i.first_strong
    ]


def _outcome(fn, *args):
    """What fn returns, or the kind and text of the violation it raises."""
    try:
        return fn(*args)
    except (IsoViolation, WellDefinednessViolation) as exc:
        return type(exc).__name__, str(exc)


def _flip(graph: Graph, u: int, v: int) -> Graph:
    adj = list(graph.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(adj=tuple(adj), vertices=graph.vertices)


def _random_graph(data, n: int, vertices) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k], vertices)


def _with_extra_vertex(data, graph: Graph) -> Graph:
    """graph plus one vertex, labelled "extra", joined to a drawn subset."""
    n = graph.n
    joined = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = graph.edges + [(v, n) for v in range(n) if joined[v]]
    return graph_from_edges(n + 1, edges, graph.vertices + ("extra",))


def _planted_partition(data, inst, k: int) -> SimPartition:
    """The graded vertices dealt into k nonempty classes, keyed by the first
    k trace keys of the instance's own partition (every corpus class is a
    single vertex, so only a planted partition has larger classes)."""
    n = inst.graded_graph.n
    order = data.draw(st.permutations(range(n)))
    owner = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)) if k else []
    for c in range(k):
        owner[order[c]] = c
    classes = tuple(sum(1 << v for v in range(n) if owner[v] == c) for c in range(k))
    return SimPartition(inst.identity.ring, inst.partition.keys[:k], classes, class_of={})


def _blow_up(data, part: SimPartition, vertices) -> Graph:
    """A graph the partition collapses cleanly: classes are cliques, and a
    drawn quotient decides each block between two classes."""
    quotient = _random_graph(data, len(part.classes), None)
    owner = {v: c for c, m in enumerate(part.classes) for v in mask_members(m)}
    edges = [
        (u, v) for u, v in itertools.combinations(sorted(owner), 2)
        if owner[u] == owner[v] or quotient.has_edge(owner[u], owner[v])
    ]
    return graph_from_edges(len(owner), edges, vertices)


# branch -> text the violation must contain; None: no violation, "": any outcome
QUOTIENT_BRANCHES = {
    "clean": None,
    "random": "",
    "order": "the graded graph has",
    "non-clique class": "is not a clique",
    "mixed block": "depends on representatives",
}


@pytest.mark.parametrize("branch", QUOTIENT_BRANCHES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_quotient_matches_the_pairwise_reference(corpus_instances, branch, data):
    for name in TRANSFER:
        inst = corpus_instances[name]
        if not inst.e_faithful:
            continue
        vertices = inst.graded_graph.vertices
        n = len(vertices)
        # a non-clique class needs a class of two; a mixed block, two classes
        # and three vertices
        low, high = {"non-clique class": (1, n - 1), "mixed block": (2, n - 1)}.get(
            branch, (min(n, 1), n)
        )
        if low > high:
            continue
        part = _planted_partition(data, inst, data.draw(st.integers(low, high)))
        graph = _blow_up(data, part, vertices)
        if branch == "random":
            graph = _random_graph(data, n, vertices)
        elif branch == "order":
            graph = (
                _with_extra_vertex(data, graph) if n == 0 or data.draw(st.booleans())
                else _random_graph(data, n - 1, vertices[:-1])
            )
        elif branch == "non-clique class":
            members = data.draw(st.sampled_from([m for m in part.classes if m.bit_count() > 1]))
            u, v = data.draw(st.permutations(mask_members(members)))[:2]
            graph = _flip(graph, u, v)
        elif branch == "mixed block":
            c = data.draw(st.sampled_from([m for m in part.classes if m.bit_count() > 1]))
            d = data.draw(st.sampled_from([m for m in part.classes if m != c]))
            graph = _flip(
                graph,
                data.draw(st.sampled_from(mask_members(c))),
                data.draw(st.sampled_from(mask_members(d))),
            )
        got = _outcome(quotient_graph, part, graph)
        assert got == _outcome(pairwise_quotient, part, graph), name
        expected = QUOTIENT_BRANCHES[branch]
        if expected is None:
            assert isinstance(got, Graph), (name, got)
        elif expected:
            assert got[0] == "WellDefinednessViolation" and expected in got[1], (name, got)


ISO_BRANCHES = {
    "clean": None,
    "random": "",
    "no image": "has no image",
    "two sources on one image": "both map to",
    "unhit target": "extra is not in the image",
    "broken pair": "is not preserved",
}


def _isomorphisms(inst):
    """(image, target) for each transfer variant the instance's grading
    supports: onto the trace-class quotient, and onto the graded graph."""
    out = []
    if inst.e_faithful:
        class_of = inst.partition.class_of
        image = [class_of[inst.extension[ie.mask]] for ie in inst.identity.graph.vertices]
        out.append((image, inst.quotient))
    if inst.first_strong:
        position = {v.mask: i for i, v in enumerate(inst.graded_graph.vertices)}
        image = [position[inst.extension[ie.mask]] for ie in inst.identity.graph.vertices]
        out.append((image, inst.graded_graph))
    return out


@pytest.mark.parametrize("branch", ISO_BRANCHES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_isomorphism_matches_the_pairwise_reference(corpus_instances, branch, data):
    for name in TRANSFER:
        inst = corpus_instances[name]
        source = inst.identity.graph
        n = source.n
        if n < {"no image": 1, "two sources on one image": 2, "broken pair": 2}.get(branch, 0):
            continue
        for image, target in _isomorphisms(inst):
            image = list(image)
            if branch == "random":
                target = _random_graph(data, target.n, target.vertices)
            elif branch == "no image":
                a = data.draw(st.integers(0, n - 1))
                image[a] = data.draw(st.sampled_from([None, -1, target.n]))
            elif branch == "two sources on one image":
                a, b = sorted(data.draw(st.permutations(range(n)))[:2])
                image[b] = image[a]
            elif branch == "unhit target":
                target = _with_extra_vertex(data, target)
            elif branch == "broken pair":
                u, v = data.draw(st.permutations(range(target.n)))[:2]
                target = _flip(target, u, v)
            got = _outcome(phi_iso_check, source, image, target)
            assert got == _outcome(pairwise_phi_iso, source, image, target), name
            expected = ISO_BRANCHES[branch]
            if expected is None:
                assert got is None, (name, got)
            elif expected:
                assert got[0] == "IsoViolation" and expected in got[1], (name, got)


class TestTransferNumbers:
    def test_group_ring_numbers(self, corpus_instances):
        inst = corpus_instances["z8c2"]
        gamma, omega = run_all(inst, ["gamma_eq", "omega_formula"])
        assert gamma.details["gamma_identity"] == gamma.details["gamma_graded"] == 1
        assert omega.details["omega_identity"] == omega.details["omega_graded"] == 2
        assert omega.details["omega_from_classes"] == 2
        assert omega.details["class_sizes"] == [1, 1]  # one graded ideal above each

    def test_matrix_ring_numbers(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        gamma, omega = run_all(inst, ["gamma_eq", "omega_formula"])
        # two isolated vertices on both sides
        assert gamma.details["gamma_identity"] == gamma.details["gamma_graded"] == 2
        assert omega.details["omega_identity"] == omega.details["omega_graded"] == 1
        assert omega.details["omega_from_classes"] == 1

    def test_zero_trace_vertex_fails_the_clique_formula(self, corpus_instances):
        # the set {0, b} of the matrix ring has no identity-degree part; it
        # is planted as one more vertex of the graded graph, and as one more
        # member of the family that graph shows
        clean = corpus_instances["m2f2"]
        ring = clean.ring
        planted = IdealSet(ring=ring, mask=1 << ring.zero | 1 << ring.names.index("b"))
        family = clean.graded_family + [planted]
        inst = Instance(name="m2f2", ring=ring, grading=clean.grading)
        inst.__dict__["graded_family"] = family
        inst.__dict__["graded_graph"] = build_intersection_graph(nontrivial_proper(family))
        assert inst.graded_graph.vertices == clean.graded_graph.vertices + (planted,)
        t1001, gamma, omega = run_all(inst, ["t1001", "gamma_eq", "omega_formula"])
        message = "graded ideal {0,b} has zero identity trace"
        assert t1001.verdict == "FAIL" and t1001.witness == message
        assert gamma.verdict == "PASS"
        assert gamma.details == {"gamma_identity": 2, "gamma_graded": 2}
        assert omega.verdict == "FAIL" and omega.witness == message
        assert omega.directions == (
            ("finiteness_equivalence", "PASS"),
            ("clique_sum_formula", "FAIL"),
        )

    @pytest.mark.parametrize("name", ["f4", "z4"])
    def test_domination_read_from_a_planted_full_graph(self, corpus_instances, name):
        # under a trivial grading the identity component's graph is the full
        # graph, so a planted full graph is what gamma_eq compares; the
        # graded graph, which is the full one too, is read before planting
        clean = corpus_instances[name]
        inst = Instance(name=name, ring=clean.ring, grading=clean.grading)
        assert inst.graded_graph == clean.graded_graph
        inst.full.__dict__["graph"] = graph_from_edges(2, [])
        (gamma,) = run_all(inst, ["gamma_eq"])
        assert gamma.details == {
            "gamma_identity": 2,
            "gamma_graded": domination_number(clean.graded_graph),
        }
        assert gamma.verdict == ("PASS" if gamma.details["gamma_graded"] == 2 else "FAIL")


class TestInducedFactorGrading:
    def test_z12_splits_into_graded_fields(self, corpus_instances):
        inst = corpus_instances["z12"]
        by_label = {i.label(): i for i in inst.graded_family}
        g3 = induced_factor_grading(inst.grading, by_label["<4>"].mask)
        assert g3.ring.size == 3
        assert is_graded_field(g3)
        g4 = induced_factor_grading(inst.grading, by_label["<3>"].mask)
        assert g4.ring.size == 4
        assert not is_graded_field(g4)

    def test_factor_lattice_is_consistent(self, corpus_instances):
        inst = corpus_instances["z12"]
        by_label = {i.label(): i for i in inst.graded_family}
        g4 = induced_factor_grading(inst.grading, by_label["<3>"].mask)
        inner = nontrivial_proper(enumerate_graded_left_ideals(g4))
        assert len(inner) == 1  # the copy of the even residues
        assert len(nontrivial_proper(enumerate_left_ideals(g4.ring))) == 1
