"""Simple undirected graphs with exact invariants, tuned for the small
intersection graphs this package produces.

Adjacency is a tuple of int bitmasks (bit j of adj[i] = edge i-j).  All
invariants are exact: BFS for distances and components (the frontier is a
vertex mask, and the next one is the union of its rows less the vertices
seen, so a root costs one row union per vertex it reaches, and the search
stops once every vertex is seen), a triangle test
and then BFS for girth, one pivoting branch and bound for the clique number
and the heaviest clique under positive vertex weights, increasing-cardinality
search for domination, and for planarity a split at cut vertices followed
by the path addition of Demoucron, Malgrange and Pertuiset on each
2-connected part.  Each invariant is computed once per Graph and kept on it,
so every caller asking about the same graph shares one computation.  A
Graph holds its vertices beside its rows, and a vertex's label is
str(vertex): for an ideal, its label, searched when first read and kept on
the ring.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import GraphTooLarge
from .ring_core import mask_members

MAX_EXACT_GRAPH_ORDER = 64


@dataclass(frozen=True)
class Graph:
    adj: tuple[int, ...]
    # vertices[v] is the object at vertex v, and str(vertices[v]) its label
    vertices: tuple
    # invariant name -> value, filled by the memoized invariants below
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.vertices) != len(self.adj):
            raise ValueError(
                f"{len(self.vertices)} vertices for {len(self.adj)} adjacency rows"
            )

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.n) for j in range(i + 1, self.n)
            if self.adj[i] >> j & 1
        ]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()


def graph_from_edges(
    n: int, edges: Iterable[tuple[int, int]], vertices: Sequence | None = None
) -> Graph:
    """The graph on n vertices with the given edges; vertex v is vertices[v],
    by default its number as a string."""
    adj = [0] * n
    for i, j in edges:
        if i == j:
            continue
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if vertices is None:
        vertices = [str(i) for i in range(n)]
    return Graph(adj=tuple(adj), vertices=tuple(vertices))


def build_intersection_graph(ideals: Sequence) -> Graph:
    """Intersection graph of a family of ideal sets, in the order given:
    two vertices are adjacent when their ideals meet outside zero.  A
    vertex's label, the label of its ideal, is searched when it is first
    read."""
    n = len(ideals)
    if n > MAX_EXACT_GRAPH_ORDER:
        raise GraphTooLarge(f"{n} vertices exceeds the exact-invariant cap")
    nonzero = [i.mask & ~i.ring.zero_mask for i in ideals]
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if nonzero[i] & nonzero[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(adj=tuple(adj), vertices=tuple(ideals))


def _per_graph(fn):
    """Compute an invariant once per Graph; later calls read the memo."""
    name = fn.__name__

    @functools.wraps(fn)
    def memoized(g: Graph):
        memo = g.memo
        if name not in memo:
            memo[name] = fn(g)
        return memo[name]

    return memoized


# ---------------------------------------------------------------------------
# distances and connectivity


def _neighbours(adj: Sequence[int], mask: int) -> int:
    """The union of the rows of the vertices in mask."""
    union = 0
    for u in mask_members(mask):
        union |= adj[u]
    return union


def _reach(adj: Sequence[int], root_mask: int) -> tuple[int, int]:
    """Mask of the vertices reachable from a nonempty root_mask, and their
    greatest distance from it.  The BFS keeps its frontier as a mask: the
    next one is the union of the frontier's rows, less the vertices already
    seen.  It stops once every vertex is seen, as no layer can follow."""
    everyone = (1 << len(adj)) - 1
    seen = frontier = root_mask
    depth = 0
    while seen != everyone:
        frontier = _neighbours(adj, frontier) & ~seen
        if not frontier:
            break
        depth += 1
        seen |= frontier
    return seen, depth


def _components(adj: Sequence[int], vertices: int) -> list[int]:
    """The vertex masks of the components of the subgraph on `vertices`."""
    adj = [row & vertices for row in adj]
    comps = []
    while vertices:
        comp, _ = _reach(adj, vertices & -vertices)
        comps.append(comp)
        vertices &= ~comp
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    return [mask_members(comp) for comp in _components(g.adj, (1 << g.n) - 1)]


@_per_graph
def is_connected(g: Graph) -> bool:
    """The empty graph counts as connected."""
    return len(connected_components(g)) <= 1


@_per_graph
def diameter(g: Graph) -> float:
    """Longest shortest path; inf when disconnected, 0 for at most one
    vertex."""
    if g.n <= 1:
        return 0
    everyone = (1 << g.n) - 1
    best = 0
    for root in range(g.n):
        seen, eccentricity = _reach(g.adj, 1 << root)
        if seen != everyone:
            return math.inf
        best = max(best, eccentricity)
    return best


@_per_graph
def girth(g: Graph) -> float:
    """Length of a shortest cycle, inf for forests.

    Triangles first: an edge (u, w) whose endpoints share a neighbour,
    adj[u] & adj[w] != 0, closes one, and no cycle is shorter.  Only a
    triangle-free graph runs one BFS per root; a non-tree edge (u, w) seen
    from root r closes a walk of length dist[u] + dist[w] + 1 that always
    contains a cycle no longer than itself, and for a root on a shortest
    cycle the bound is attained, so the minimum over roots is exact.
    """
    adj = g.adj
    for u in range(g.n):
        for w in mask_members(adj[u] >> (u + 1) << (u + 1)):
            if adj[u] & adj[w]:
                return 3
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in mask_members(g.adj[u]):
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


# ---------------------------------------------------------------------------
# clique number and domination number


def _check_order(g: Graph) -> None:
    if g.n > MAX_EXACT_GRAPH_ORDER:
        raise GraphTooLarge(
            f"exact invariant requested on {g.n} vertices (cap {MAX_EXACT_GRAPH_ORDER})"
        )


def clique_number(g: Graph, weight: Sequence[int] | None = None) -> int:
    """Exact maximum clique size; 0 for the empty graph.  Given positive
    vertex weights, the greatest total weight of a clique instead.

    One branch and bound serves both: a branch stops when its weight plus
    that of every candidate left cannot beat the best clique found, and it
    extends only by the non-neighbors of the candidate with the most
    candidate neighbors (a pivot), since every maximal clique, and so the
    heaviest one, holds the pivot or one of those.  The unweighted answer is
    kept on the Graph, and all-ones weights read it too.
    """
    if weight is not None and all(w == 1 for w in weight):
        weight = None
    if weight is None and "clique_number" in g.memo:
        return g.memo["clique_number"]
    _check_order(g)
    adj = g.adj
    w = (1,) * g.n if weight is None else weight
    best = 0

    def expand(total: int, p: int) -> None:
        nonlocal best
        if p == 0:
            best = max(best, total)
            return
        candidates = mask_members(p)
        if total + sum(w[v] for v in candidates) <= best:
            return
        pivot = max(candidates, key=lambda v: (adj[v] & p).bit_count())
        for v in mask_members(p & ~adj[pivot]):
            expand(total + w[v], p & adj[v])
            p &= ~(1 << v)

    expand(0, (1 << g.n) - 1)
    if weight is None:
        g.memo["clique_number"] = best
    return best


@_per_graph
def domination_number(g: Graph) -> int:
    """Exact minimum dominating set size; 0 for the empty graph.

    Isolated vertices are forced into every dominating set, so they are
    peeled off before the combinatorial search on the rest.
    """
    _check_order(g)
    if g.n == 0:
        return 0
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    rest = [v for v in range(g.n) if g.adj[v] != 0]
    need = 0
    for v in rest:
        need |= 1 << v
    if need == 0:
        return len(isolated)
    for k in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover & need == need:
                return len(isolated) + k
    return g.n


# ---------------------------------------------------------------------------
# shape tests


def is_complete(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return all(g.adj[v] == full & ~(1 << v) for v in range(g.n))


def is_null(g: Graph) -> bool:
    """No edges at all (any number of vertices)."""
    return all(m == 0 for m in g.adj)


def is_star(g: Graph) -> bool:
    """Some center adjacent to all other vertices, which are pairwise
    non-adjacent; single vertices and single edges count."""
    return star_center(g) is not None


def is_regular(g: Graph) -> bool:
    """All vertices share one degree; vertexless graphs count."""
    degs = {g.degree(v) for v in range(g.n)}
    return len(degs) <= 1


def star_center(g: Graph) -> int | None:
    """The dominating vertex of a star, when the graph is one; for a single
    edge the lower-indexed endpoint is reported."""
    full = (1 << g.n) - 1
    for c in range(g.n):
        others = full & ~(1 << c)
        if g.adj[c] == others and all(g.adj[v] == 1 << c for v in mask_members(others)):
            return c
    return None


# ---------------------------------------------------------------------------
# planarity


def _split(rows: Sequence[int], part: int) -> list[int]:
    """The parts a vertex set splits into: its components, or, when it is
    connected, those of part - v, each with v added back, for its first cut
    vertex v; [] when it has no cut vertex."""
    for cut in [0, *(1 << v for v in mask_members(part))]:
        pieces = _components(rows, part & ~cut)
        if len(pieces) > 1:
            return [piece | cut for piece in pieces]
    return []


def _path(rows: Sequence[int], inside: int, a: int, b: int) -> list[int]:
    """The inner vertices of a shortest a-b path through the connected
    vertex set `inside`, which both a and b touch, listed from a's end."""
    layers, seen = [rows[b] & inside], rows[b] & inside
    while not layers[-1] & rows[a]:
        layers.append(_neighbours(rows, layers[-1]) & inside & ~seen)
        seen |= layers[-1]
    path, row = [], rows[a]
    for layer in reversed(layers):
        path.append(mask_members(layer & row)[0])
        row = rows[path[-1]]
    return path


def _embeds(rows: Sequence[int], part: int) -> bool:
    """Whether a connected vertex set of at least three vertices and without
    cut vertices has a plane drawing, by the path addition of Demoucron,
    Malgrange and Pertuiset (1964).

    The drawing starts as one edge, read as a face with two sides.  The rest
    of the graph falls into fragments: each undrawn edge between drawn
    vertices, and each component of the undrawn vertices with the vertices
    it attaches to.  A fragment fits a face holding all its attachments.
    When some fragment fits no face the graph is not planar; otherwise a
    path through a fragment with the fewest fitting faces is drawn across
    one of them, which splits in two.  Faces are kept as cycles of vertices
    and as vertex masks.
    """
    u = mask_members(part)[0]
    w = mask_members(rows[u] & part)[0]
    faces, face_masks = [[u, w]], [1 << u | 1 << w]
    drawn = face_masks[0]
    drawn_rows = [0] * len(rows)
    drawn_rows[u], drawn_rows[w] = 1 << w, 1 << u
    while True:
        # (attachments, inner vertices) of each fragment
        fragments = [
            (1 << v | 1 << x, 0)
            for v in mask_members(drawn)
            for x in mask_members(rows[v] & drawn & ~drawn_rows[v])
            if x > v
        ]
        for inner in _components(rows, part & ~drawn):
            fragments.append((_neighbours(rows, inner) & drawn, inner))
        if not fragments:
            return True
        fits = [
            [i for i, mask in enumerate(face_masks) if not attachments & ~mask]
            for attachments, _ in fragments
        ]
        if not all(fits):
            return False
        _, k = min((len(f), k) for k, f in enumerate(fits))
        (attachments, inner), i = fragments[k], fits[k][0]
        a, b = mask_members(attachments)[:2]
        interior = _path(rows, inner, a, b) if inner else []
        path = [a, *interior, b]
        for x, y in zip(path, path[1:]):
            drawn_rows[x] |= 1 << y
            drawn_rows[y] |= 1 << x
        drawn |= sum(1 << v for v in interior)
        face = faces[i]
        at = face.index(a)
        face = face[at:] + face[:at]
        at = face.index(b)
        halves = [face[: at + 1] + interior[::-1], face[at:] + [a] + interior]
        faces[i : i + 1] = halves
        face_masks[i : i + 1] = [sum(1 << v for v in half) for half in halves]


@_per_graph
def is_planar(g: Graph) -> bool:
    """Whether the graph has a plane drawing.

    Up to four vertices or eight edges every graph is planar, and above
    3n - 6 edges none is.  Otherwise the graph is planar exactly when the
    parts it splits into at its cut vertices, and between its components,
    are.  A part of at most four vertices is planar, and a larger one
    without a cut vertex is drawn face by face (`_embeds`).
    """
    n, m = g.n, g.edge_count
    if n <= 4 or m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    parts = [(1 << n) - 1]
    while parts:
        part = parts.pop()
        if part.bit_count() <= 4:
            continue
        pieces = _split(g.adj, part)
        if pieces:
            parts.extend(pieces)
        elif not _embeds(g.adj, part):
            return False
    return True


# ---------------------------------------------------------------------------
# bundled report


def classify_shape(g: Graph) -> dict:
    return {
        "null": is_null(g),
        "complete": is_complete(g),
        "star": is_star(g),
        "regular": is_regular(g),
        "connected": is_connected(g),
    }


def graph_invariants(g: Graph) -> dict:
    return {
        "order": g.n,
        "size": g.edge_count,
        "components": len(connected_components(g)),
        "diameter": diameter(g),
        "girth": girth(g),
        "clique_number": clique_number(g),
        "domination_number": domination_number(g),
        "degree_sequence": sorted((g.degree(v) for v in range(g.n)), reverse=True),
        "planar": is_planar(g),
        **classify_shape(g),
    }


# ---------------------------------------------------------------------------
# export


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(g: Graph, format: str = "dot") -> str:
    """Deterministic serialization: DOT text or a JSON document that bundles
    vertices, edges, and the invariant report (infinities as the string
    "inf")."""
    if format == "dot":
        lines = ["graph G {"]
        for v, vertex in enumerate(g.vertices):
            lines.append(f"  v{v} [label={_dot_quote(str(vertex))}];")
        for u, w in g.edges:
            lines.append(f"  v{u} -- v{w};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        inv = {
            k: ("inf" if v == math.inf else v)
            for k, v in graph_invariants(g).items()
        }
        doc = {
            "vertices": [
                {"id": v, "label": str(vertex)} for v, vertex in enumerate(g.vertices)
            ],
            "edges": [[u, w] for u, w in g.edges],
            "invariants": inv,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown export format: {format!r}")
