"""Independent brute-force reference implementations for the test suite.

Everything here recomputes answers from first principles, trading speed for
obviousness, so the package's optimized code paths can be checked against a
second opinion on small inputs.
"""

from __future__ import annotations

import itertools
from math import inf

import numpy as np

from idealgraphs.errors import InvalidConstruction


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# --- ring axioms, checked on every pair and triple


def _as_table(table, n: int, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != (n, n):
        raise InvalidConstruction(f"{what} table must be {n}x{n}, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise InvalidConstruction(f"{what} table has entries outside 0..{n - 1}")
    return arr


def _validate_abelian_group(add, zero: int, neg, n: int, what: str) -> np.ndarray:
    A = _as_table(add, n, f"{what} addition")
    if not np.array_equal(A, A.T):
        raise InvalidConstruction(f"{what} addition is not commutative")
    if not np.array_equal(A[zero], np.arange(n)):
        raise InvalidConstruction(f"{what} zero element {zero} is not neutral")
    ng = np.asarray(neg, dtype=np.int64)
    if ng.shape != (n,) or (n and (ng.min() < 0 or ng.max() >= n)):
        raise InvalidConstruction(f"{what} negation table malformed")
    if not np.array_equal(A[np.arange(n), ng], np.full(n, zero)):
        raise InvalidConstruction(f"{what} negation is not an additive inverse")
    for a in range(n):
        # (a+b)+c vs a+(b+c) as two n x n arrays
        if not np.array_equal(A[A[a]], A[a][A]):
            raise InvalidConstruction(f"{what} addition not associative (witness row {a})")
    return A


def exhaustive_validate_ring_tables(add, mul, zero: int, one: int, neg, n: int) -> bool:
    """Full ring axiom check over all triples; returns the commutativity flag."""
    if one == zero:
        raise InvalidConstruction("unity must differ from zero")
    A = _validate_abelian_group(add, zero, neg, n, "ring")
    M = _as_table(mul, n, "ring multiplication")
    if not np.array_equal(M[one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not left-neutral")
    if not np.array_equal(M[:, one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not right-neutral")
    for a in range(n):
        if not np.array_equal(M[M[a]], M[a][M]):
            raise InvalidConstruction(f"multiplication not associative (witness row {a})")
        # a*(b+c) == a*b + a*c
        if not np.array_equal(M[a][A], A[np.ix_(M[a], M[a])]):
            raise InvalidConstruction(f"left distributivity fails (witness {a})")
        # (b+c)*a == b*a + c*a
        col = M[:, a]
        if not np.array_equal(col[A], A[np.ix_(col, col)]):
            raise InvalidConstruction(f"right distributivity fails (witness {a})")
    return bool(np.array_equal(M, M.T))


def brute_additive_span(add, zero: int, seed_mask: int) -> int:
    """Smallest additive subgroup holding the seeds: add every pairwise sum
    until nothing changes."""
    members = {zero} | {x for x in range(len(add)) if seed_mask >> x & 1}
    while True:
        grown = members | {add[a][b] for a in members for b in members}
        if grown == members:
            return sum(1 << x for x in members)
        members = grown


def brute_left_ideal_masks(ring) -> set[int]:
    """All left ideal masks by scanning subsets whose size divides |R|."""
    n = ring.size
    zero = ring.zero
    others = [x for x in range(n) if x != zero]
    found = set()
    for d in divisors(n):
        for combo in itertools.combinations(others, d - 1):
            members = (zero,) + combo
            mask = 0
            for x in members:
                mask |= 1 << x
            closed = all(
                mask >> ring.add[x][y] & 1 for x in members for y in members
            )
            if not closed:
                continue
            absorbing = all(
                mask >> ring.mul[r][x] & 1 for r in range(n) for x in members
            )
            if absorbing:
                found.add(mask)
    return found


def brute_graded_left_ideal_masks(ring, grading) -> set[int]:
    """Left ideals all of whose members decompose inside the ideal."""
    out = set()
    for mask in brute_left_ideal_masks(ring):
        if all(
            all(mask >> part & 1 for _, part in grading.decomposition[x])
            for x in range(ring.size)
            if mask >> x & 1
        ):
            out.add(mask)
    return out


def brute_submodule_masks(module) -> set[int]:
    n = module.size
    zero = module.zero
    others = [x for x in range(n) if x != zero]
    found = set()
    for d in divisors(n):
        for combo in itertools.combinations(others, d - 1):
            members = (zero,) + combo
            mask = 0
            for x in members:
                mask |= 1 << x
            if not all(
                mask >> module.add[x][y] & 1 for x in members for y in members
            ):
                continue
            if all(
                mask >> module.act[r][x] & 1
                for r in range(module.ring.size)
                for x in members
            ):
                found.add(mask)
    return found


# --- graph references (adjacency given as a dict vertex -> set of vertices)


def _neighbor_sets(graph) -> list[set[int]]:
    return [
        {w for w in range(graph.n) if graph.adj[v] >> w & 1} for v in range(graph.n)
    ]


def brute_clique_number(graph) -> int:
    nbrs = _neighbor_sets(graph)
    best = 0
    for r in range(graph.n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(graph.n), r):
            if all(b in nbrs[a] for a, b in itertools.combinations(combo, 2)):
                best = max(best, r)
                break
    return best


def brute_domination_number(graph) -> int:
    if graph.n == 0:
        return 0
    nbrs = _neighbor_sets(graph)
    for r in range(1, graph.n + 1):
        for combo in itertools.combinations(range(graph.n), r):
            covered = set(combo)
            for v in combo:
                covered |= nbrs[v]
            if len(covered) == graph.n:
                return r
    return graph.n


def brute_girth(graph):
    """Shortest cycle by BFS from each edge with that edge removed."""
    nbrs = _neighbor_sets(graph)
    best = inf
    for u in range(graph.n):
        for w in sorted(nbrs[u]):
            if w <= u:
                continue
            dist = {u: 0}
            frontier = [u]
            while frontier:
                nxt = []
                for a in frontier:
                    for b in nbrs[a]:
                        if (a, b) in ((u, w), (w, u)):
                            continue
                        if b not in dist:
                            dist[b] = dist[a] + 1
                            nxt.append(b)
                frontier = nxt
            if w in dist:
                best = min(best, dist[w] + 1)
    return best


def brute_diameter(graph):
    if graph.n <= 1:
        return 0
    nbrs = _neighbor_sets(graph)
    dist = [[0 if i == j else inf for j in range(graph.n)] for i in range(graph.n)]
    for v in range(graph.n):
        for w in nbrs[v]:
            dist[v][w] = 1
    for k in range(graph.n):
        for i in range(graph.n):
            for j in range(graph.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return max(max(row) for row in dist)


def brute_components(graph) -> int:
    nbrs = _neighbor_sets(graph)
    seen: set[int] = set()
    count = 0
    for v in range(graph.n):
        if v in seen:
            continue
        count += 1
        stack = [v]
        while stack:
            a = stack.pop()
            if a in seen:
                continue
            seen.add(a)
            stack.extend(nbrs[a])
    return count
