import itertools
import json
import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealgraphs import (
    Graph,
    GraphTooLarge,
    IdealSet,
    algebra_over_zn,
    build_intersection_graph,
    classify_shape,
    clique_number,
    connected_components,
    diameter,
    domination_number,
    enumerate_left_ideals,
    export_graph,
    girth,
    graph_from_edges,
    graph_invariants,
    is_complete,
    is_connected,
    is_null,
    is_planar,
    is_regular,
    is_star,
    make_cyclic_ring,
    nontrivial_proper,
    star_center,
)
from idealgraphs.cli import load_instance
from oracles import (
    brute_clique_number,
    brute_components,
    brute_diameter,
    brute_domination_number,
    brute_girth,
)
from test_ring_core import F2XY_TABLE  # the square-zero plane over any Zp


def complete_graph(n):
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


PETERSEN = graph_from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)

K33 = graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])

CUBE = graph_from_edges(
    8, [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


class TestBasics:
    def test_empty_graph(self):
        g = graph_from_edges(0, [])
        assert g.n == 0 and g.edge_count == 0
        assert is_connected(g) and is_null(g)
        assert diameter(g) == 0
        assert clique_number(g) == 0
        assert domination_number(g) == 0
        assert girth(g) == math.inf

    def test_edges_and_degrees(self):
        g = path_graph(4)
        assert g.edge_count == 3
        assert g.edges == [(0, 1), (1, 2), (2, 3)]
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.has_edge(1, 2) and not g.has_edge(0, 3)

    def test_intersection_graph_adjacency(self):
        z12 = make_cyclic_ring(12)
        # element 0 is bit 0; sets meeting only there are not adjacent
        masks = [0b0111, 0b1101, 0b1001]
        g = build_intersection_graph([IdealSet(z12, m) for m in masks])
        assert g.has_edge(0, 1)  # share bit 2
        assert g.has_edge(1, 2)  # share bit 3
        assert not g.has_edge(0, 2)

    def test_build_from_ideal_sets(self):
        z12 = make_cyclic_ring(12)
        vertices = nontrivial_proper(enumerate_left_ideals(z12))
        g = build_intersection_graph(vertices)
        assert g.n == 4 and g.vertices == tuple(vertices)
        labels = [str(v) for v in g.vertices]
        assert labels == ["<6>", "<4>", "<3>", "<2>"]
        assert g.edge_count == 4
        assert not g.has_edge(labels.index("<6>"), labels.index("<4>"))

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(10)))
    def test_a_shuffled_list_keeps_its_order(self, order):
        z60 = make_cyclic_ring(60)
        ideals = nontrivial_proper(enumerate_left_ideals(z60))
        shuffled = [ideals[i] for i in order]
        g = build_intersection_graph(shuffled)
        sorted_graph = build_intersection_graph(ideals)
        assert g.vertices == tuple(shuffled)
        for a, b in itertools.combinations(range(10), 2):
            assert g.has_edge(a, b) == sorted_graph.has_edge(order[a], order[b])

    @pytest.mark.parametrize("vertices", [["a"], ["a", "b", "c", "d"]])
    def test_a_vertex_count_other_than_the_row_count_is_refused(self, vertices):
        # export_graph would otherwise write edges to vertices with no entry
        with pytest.raises(ValueError, match="adjacency rows"):
            graph_from_edges(3, [(0, 1)], vertices=vertices)
        with pytest.raises(ValueError, match="adjacency rows"):
            Graph(adj=(0b10, 0b01, 0), vertices=tuple(vertices))

    def test_more_than_64_vertices_are_refused(self):
        f2 = make_cyclic_ring(2)
        with pytest.raises(GraphTooLarge):
            build_intersection_graph([IdealSet(f2, 0b11)] * 65)


class TestInvariants:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (complete_graph(4), dict(diam=1, girth=3, omega=4, gamma=1)),
            (cycle_graph(5), dict(diam=2, girth=5, omega=2, gamma=2)),
            (path_graph(5), dict(diam=4, girth=math.inf, omega=2, gamma=2)),
            (star_graph(6), dict(diam=2, girth=math.inf, omega=2, gamma=1)),
            (PETERSEN, dict(diam=2, girth=5, omega=2, gamma=3)),
            (K33, dict(diam=2, girth=4, omega=2, gamma=2)),
        ],
    )
    def test_named_graphs(self, g, expect):
        assert diameter(g) == expect["diam"]
        assert girth(g) == expect["girth"]
        assert clique_number(g) == expect["omega"]
        assert domination_number(g) == expect["gamma"]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_oracles(self, seed):
        g = random_graph(n=7 + seed % 3, p=0.4, seed=seed)
        assert clique_number(g) == brute_clique_number(g)
        assert domination_number(g) == brute_domination_number(g)
        assert girth(g) == brute_girth(g)
        assert diameter(g) == brute_diameter(g)
        assert len(connected_components(g)) == brute_components(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_heaviest_clique_matches_networkx(self, seed):
        g = random_graph(n=3 + seed % 11, p=0.2 + seed % 5 * 0.15, seed=seed)
        rng = random.Random(seed)
        weight = [rng.randint(1, 9) for _ in range(g.n)]
        reference = nx.Graph()
        reference.add_nodes_from((v, {"w": weight[v]}) for v in range(g.n))
        reference.add_edges_from(g.edges)
        assert clique_number(g, weight) == nx.max_weight_clique(reference, "w")[1]

    @pytest.mark.parametrize("seed", range(8))
    def test_unit_weights_give_the_clique_number(self, seed):
        g = random_graph(n=6 + seed, p=0.5, seed=100 + seed)
        assert clique_number(g, [1] * g.n) == brute_clique_number(g)
        assert clique_number(g) == brute_clique_number(g)

    def test_only_the_unweighted_answer_is_kept(self):
        g = complete_graph(3)
        assert clique_number(g, [2, 3, 4]) == 9
        assert "clique_number" not in g.memo
        assert clique_number(g) == 3
        assert g.memo["clique_number"] == 3
        assert clique_number(graph_from_edges(0, []), []) == 0

    def test_disconnected_diameter(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert diameter(g) == math.inf
        assert len(connected_components(g)) == 2


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def nx_girth(g):
    return nx.girth(to_nx(g))


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, edges)


def subdivided(g):
    """Every edge replaced by a path of two edges: no triangles, and every
    cycle twice as long."""
    edges = []
    for k, (u, w) in enumerate(g.edges):
        mid = g.n + k
        edges += [(u, mid), (mid, w)]
    return graph_from_edges(g.n + g.edge_count, edges)


class TestGirthAgainstNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs())
    def test_random_graphs(self, g):
        assert girth(g) == nx_girth(g)

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(max_n=9))
    def test_subdivided_graphs_have_no_triangle(self, g):
        h = subdivided(g)
        assert girth(h) == nx_girth(h) == 2 * nx_girth(g)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_cycles(self, n):
        assert girth(cycle_graph(n)) == nx_girth(cycle_graph(n)) == n

    @settings(max_examples=50, deadline=None)
    @given(parents=st.lists(st.integers(0, 10**6), max_size=20))
    def test_trees(self, parents):
        # vertex k + 1 hangs below one of the vertices before it
        tree = graph_from_edges(
            len(parents) + 1, [(p % (k + 1), k + 1) for k, p in enumerate(parents)]
        )
        assert girth(tree) == nx_girth(tree) == math.inf

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 6), (2, 2), (2, 5), (3, 3), (4, 5)])
    def test_complete_bipartite(self, a, b):
        g = graph_from_edges(a + b, [(u, a + w) for u in range(a) for w in range(b)])
        assert girth(g) == nx_girth(g) == (4 if min(a, b) >= 2 else math.inf)


class TestDistancesAgainstNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs())
    @example(g=graph_from_edges(0, []))
    @example(g=graph_from_edges(1, []))
    @example(g=graph_from_edges(2, []))
    def test_random_graphs(self, g):
        G = to_nx(g)
        components = sorted(sorted(c) for c in nx.connected_components(G))
        assert connected_components(g) == components
        # networkx leaves the connectivity of the empty graph undefined
        connected = g.n == 0 or nx.is_connected(G)
        assert is_connected(g) == connected
        if g.n <= 1:
            assert diameter(g) == 0
        else:
            assert diameter(g) == (nx.diameter(G) if connected else math.inf)


class TestInvariantMemo:
    def test_second_call_reads_the_memo(self):
        g = cycle_graph(5)
        assert girth(g) == 5
        g.memo["girth"] = "planted"
        assert girth(g) == "planted"
        assert g == cycle_graph(5)  # the memo takes no part in equality

    def test_checks_share_one_girth(self, corpus_dir):
        from idealgraphs import run_all

        # a planted girth reaches every check that asks, so none computes
        # its own
        inst = load_instance(str(corpus_dir / "z8_self.json"))
        inst.graded_graph.memo["girth"] = "planted"
        reports = {r.theorem_id: r for r in run_all(inst, ["t3", "t777"])}
        assert reports["t3"].details["girth"] == "planted"
        assert reports["t777"].details["girth"] == "planted"

        inst = load_instance(str(corpus_dir / "f2x3.json"))
        inst.graded_graph.memo["girth"] = "graded"
        inst.full.graph.memo["girth"] = "full"
        report = run_all(inst, ["t544"])[0]
        assert report.details["graded_girth"] == "graded"
        assert report.details["all_girth"] == "full"


class TestShapes:
    def test_star_detection(self):
        s = star_graph(5)
        assert is_star(s)
        assert star_center(s) == 0
        assert not is_star(cycle_graph(4))
        # a two-vertex edge is a star with either center
        assert is_star(complete_graph(2))

    @pytest.mark.parametrize(
        "n, edges, center",
        [(0, [], None), (1, [], 0), (2, [], None), (2, [(0, 1)], 0), (3, [(1, 0), (1, 2)], 1)],
    )
    def test_small_stars(self, n, edges, center):
        g = graph_from_edges(n, edges)
        assert star_center(g) == center
        assert is_star(g) == (center is not None)

    @settings(max_examples=200, deadline=None)
    @given(g=graphs())
    def test_star_center_against_the_definition(self, g):
        # a center joins every other vertex, and no edge avoids it
        centers = [
            c for c in range(g.n)
            if set(g.edges) == {(min(c, v), max(c, v)) for v in range(g.n) if v != c}
        ]
        assert star_center(g) == (centers[0] if centers else None)
        assert is_star(g) == bool(centers)

    def test_regular_null_complete(self):
        assert is_regular(cycle_graph(5))
        assert not is_regular(path_graph(3))
        assert is_null(graph_from_edges(3, []))
        assert is_complete(complete_graph(3))
        info = classify_shape(complete_graph(3))
        assert info["complete"] and info["regular"] and info["connected"]

    def test_invariant_bundle(self):
        info = graph_invariants(star_graph(4))
        assert info["order"] == 4 and info["size"] == 3
        assert info["girth"] == math.inf
        assert info["degree_sequence"] == [3, 1, 1, 1]
        assert info["star"] and not info["complete"]
        assert info["planar"] is True


class TestPlanarity:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(4), True),
            (complete_graph(5), False),
            (K33, False),
            (PETERSEN, False),
            (CUBE, True),
            (star_graph(8), True),
            (cycle_graph(6), True),
            *((star_graph(n), True) for n in range(13, 41)),
        ],
    )
    def test_fixtures(self, g, expected):
        assert is_planar(g) == expected

    def test_large_sparse_graph_is_planar(self):
        assert is_planar(cycle_graph(13)) is True

    @staticmethod
    def networkx_planar(g):
        graph = nx.Graph()
        graph.add_nodes_from(range(g.n))
        graph.add_edges_from(g.edges)
        return nx.check_planarity(graph)[0]

    def test_random_graphs_agree_with_networkx(self):
        # sparse enough that most graphs pass the edge guards; both answers
        # occur above twelve vertices
        decided = set()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(5, 64)
            g = random_graph(n, rng.uniform(1.5, 4.5) / (n - 1), seed)
            planar = is_planar(g)
            assert planar is self.networkx_planar(g), seed
            if n > 12 and 8 < g.edge_count <= 3 * n - 6:
                decided.add(planar)
        assert decided == {True, False}

    @pytest.mark.parametrize("seed", range(20))
    def test_subdivided_kuratowski_graphs(self, seed):
        # each edge of K5 or K3,3 becomes a path, and the vertices are
        # shuffled; without one of its paths the graph is planar
        rng = random.Random(seed)
        for base in (complete_graph(5), K33):
            n, edges = base.n, []
            for u, w in base.edges:
                inner = list(range(n, n + rng.randint(1, 3)))
                n += len(inner)
                path = [u, *inner, w]
                edges.append(list(zip(path, path[1:])))
            order = rng.sample(range(n), n)
            edges = [[(order[u], order[w]) for u, w in path] for path in edges]
            g = graph_from_edges(n, itertools.chain(*edges))
            assert n > 12 and is_planar(g) is False and not self.networkx_planar(g)
            cut = graph_from_edges(n, itertools.chain(*edges[1:]))
            assert is_planar(cut) is True and self.networkx_planar(cut)

    @pytest.mark.parametrize("p", [11, 13])
    def test_square_zero_plane_over_zp_is_a_planar_star(self, p):
        # Zp[x,y]/(x,y)^2 has p + 2 nontrivial proper ideals: the p + 1
        # lines of its maximal ideal, and that ideal
        ring = algebra_over_zn(p, 3, F2XY_TABLE, ["1", "x", "y"], max_size=p**3)
        g = build_intersection_graph(nontrivial_proper(enumerate_left_ideals(ring)))
        assert g.n == p + 2 and is_star(g)
        assert is_planar(g) is True

    def test_dense_graph_fails_edge_bound(self):
        g = complete_graph(8)  # 28 edges > 3*8-6
        assert is_planar(g) is False


class TestExport:
    def test_dot_golden_for_z12(self):
        z12 = make_cyclic_ring(12)
        g = build_intersection_graph(nontrivial_proper(enumerate_left_ideals(z12)))
        expected = (
            "graph G {\n"
            '  v0 [label="<6>"];\n'
            '  v1 [label="<4>"];\n'
            '  v2 [label="<3>"];\n'
            '  v3 [label="<2>"];\n'
            "  v0 -- v2;\n"
            "  v0 -- v3;\n"
            "  v1 -- v3;\n"
            "  v2 -- v3;\n"
            "}\n"
        )
        assert export_graph(g, "dot") == expected

    def test_json_round_trip(self):
        g = star_graph(4)
        doc = json.loads(export_graph(g, "json"))
        assert len(doc["vertices"]) == 4
        assert sorted(doc["edges"]) == [[0, 1], [0, 2], [0, 3]]
        assert doc["invariants"]["girth"] == "inf"
        assert doc["invariants"]["order"] == 4

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_graph(star_graph(3), "gml")
