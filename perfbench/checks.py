"""Output checks made apart from the program.

Rings are rebuilt from their documents with numpy, straight from each
construction's defining formula and the README's element index layouts.
Ideal families, graphs, invariants and check verdicts are then judged
against those tables, networkx, and searches written here.  Nothing in this
module imports the program.

Every check function returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import CHECK_KINDS, group_identity, group_table_of

# ---------------------------------------------------------------------------
# reference rings


@dataclass
class Ref:
    n: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    zero: int
    one: int


def _digits(n_elems: int, radix: int, length: int) -> np.ndarray:
    idx = np.arange(n_elems)
    return np.stack([(idx // radix**i) % radix for i in range(length)], axis=1)


def _undigits(cols, radix: int) -> np.ndarray:
    out = np.zeros_like(cols[0])
    for c in reversed(cols):
        out = out * radix + c
    return out


def _pairs(a: np.ndarray, b: np.ndarray):
    return a[:, None], b[None, :]


def ref_ring(node) -> Ref:
    """Tables of a ring document, computed from its defining formula."""
    ((key, val),) = node.items()
    if key == "zn":
        a = np.arange(val)
        return Ref(val, (a[:, None] + a) % val, (a[:, None] * a) % val, (-a) % val, 0, 1 % val)
    if key == "product":
        left, right = ref_ring(val[0]), ref_ring(val[1])
        n = left.n * right.n
        r, s = np.arange(n) // right.n, np.arange(n) % right.n
        rr, ss = _pairs(r, r), _pairs(s, s)
        return Ref(
            n,
            left.add[rr] * right.n + right.add[ss],
            left.mul[rr] * right.n + right.mul[ss],
            left.neg[r] * right.n + right.neg[s],
            left.zero * right.n + right.zero,
            left.one * right.n + right.one,
        )
    if key == "poly_quotient":
        return _poly_ring(ref_ring(val["base"]), val["modulus"])
    if key == "algebra":
        return _algebra_ring(val["n"], val["dim"], np.asarray(val["table"]) % val["n"])
    if key == "group_ring":
        return _group_ring(ref_ring(val["base"]), np.asarray(group_table_of(val["group"])))
    if key == "idealization":
        return _idealization(ref_ring(val["base"]), val["module"])
    raise ValueError(f"unknown ring constructor {key!r}")


def _digitwise(base: Ref, length: int):
    n = base.n**length
    D = _digits(n, base.n, length)
    add = _undigits([base.add[_pairs(D[:, i], D[:, i])] for i in range(length)], base.n)
    neg = _undigits([base.neg[D[:, i]] for i in range(length)], base.n)
    zero = int(_undigits([np.array(base.zero)] * length, base.n))
    return n, D, add, neg, zero


def _poly_ring(base: Ref, modulus) -> Ref:
    """base[x]/(f): the product of a and b is sum_k c_k (x^k mod f) with
    c_k = sum_{i+j=k} a_i b_j."""
    d = len(modulus) - 1
    n, D, add, neg, zero = _digitwise(base, d)
    # x^k mod f as coefficient vectors, by repeated multiplication by x
    powers = []
    vec = [base.zero] * d
    vec[0] = base.one
    for _ in range(2 * d - 1):
        powers.append(list(vec))
        top = vec[-1]
        shifted = [base.zero] + vec[:-1]
        vec = [
            int(base.add[shifted[i], base.neg[base.mul[top, modulus[i]]]])
            for i in range(d)
        ]
    conv = []
    for k in range(2 * d - 1):
        acc = np.full((n, n), base.zero)
        for i in range(max(0, k - d + 1), min(k, d - 1) + 1):
            acc = base.add[acc, base.mul[_pairs(D[:, i], D[:, k - i])]]
        conv.append(acc)
    cols = []
    for t in range(d):
        acc = np.full((n, n), base.zero)
        for k in range(2 * d - 1):
            acc = base.add[acc, base.mul[conv[k], powers[k][t]]]
        cols.append(acc)
    one = int(_undigits([np.array(base.one)] + [np.array(base.zero)] * (d - 1), base.n))
    return Ref(n, add, _undigits(cols, base.n), neg, zero, one)


def _algebra_ring(modn: int, dim: int, table: np.ndarray) -> Ref:
    """Coefficient vectors mod n; (a b)_k = sum_ij a_i b_j table[i][j][k]."""
    n = modn**dim
    D = _digits(n, modn, dim)
    add = _undigits([(D[:, i][:, None] + D[:, i]) % modn for i in range(dim)], modn)
    neg = _undigits([(-D[:, i]) % modn for i in range(dim)], modn)
    cols = [np.zeros((n, n), dtype=np.int64) for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            coef = (D[:, i][:, None] * D[:, j]) % modn
            for k in range(dim):
                if table[i][j][k]:
                    cols[k] = (cols[k] + coef * table[i][j][k]) % modn
    one = 1
    return Ref(n, add, _undigits(cols, modn), neg, 0, one)


def _group_ring(base: Ref, G: np.ndarray) -> Ref:
    """(a b)_g = sum over hk = g of a_h b_k, coefficients in the base."""
    g = len(G)
    n, D, add, neg, zero = _digitwise(base, g)
    cols = [np.full((n, n), base.zero) for _ in range(g)]
    for h in range(g):
        for k in range(g):
            t = G[h][k]
            cols[t] = base.add[cols[t], base.mul[_pairs(D[:, h], D[:, k])]]
    e = group_identity(G.tolist())
    one_digits = [np.array(base.zero)] * g
    one_digits[e] = np.array(base.one)
    return Ref(n, add, _undigits(cols, base.n), neg, zero, int(_undigits(one_digits, base.n)))


def _idealization(base: Ref, module) -> Ref:
    """(r, m)(r', m') = (r r', r.m' + r'.m) at index r |M| + m."""
    if module == "self":
        madd, mneg, act, mzero, m = base.add, base.neg, base.mul, base.zero, base.n
    else:
        m = module["zn_quotient"]
        a = np.arange(m)
        madd, mneg, mzero = (a[:, None] + a) % m, (-a) % m, 0
        act = (np.arange(base.n)[:, None] * a) % m
    n = base.n * m
    r, x = np.arange(n) // m, np.arange(n) % m
    rr, xx = _pairs(r, r), _pairs(x, x)
    mul = base.mul[rr] * m + madd[act[r[:, None], x[None, :]], act[r[None, :], x[:, None]]]
    return Ref(
        n,
        base.add[rr] * m + madd[xx],
        mul,
        base.neg[r] * m + mneg[x],
        base.zero * m + mzero,
        base.one * m + mzero,
    )


def check_tables(ref: Ref, add, mul, neg, zero: int, one: int) -> list[str]:
    problems = []
    for name, got, want in (("addition", add, ref.add), ("multiplication", mul, ref.mul), ("negation", neg, ref.neg)):
        got = np.asarray(got)
        if got.shape != want.shape:
            problems.append(f"{name} table has shape {got.shape}, want {want.shape}")
        elif not np.array_equal(got, want):
            bad = np.argwhere(got != want)
            problems.append(f"{name} table differs at {len(bad)} entries, first {bad[0].tolist()}")
    if (zero, one) != (ref.zero, ref.one):
        problems.append(f"zero/one are {zero}/{one}, want {ref.zero}/{ref.one}")
    return problems


# ---------------------------------------------------------------------------
# sets as masks


def to_bool(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


def to_mask(members: np.ndarray) -> int:
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def sumset(add: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a), dtype=bool)
    out[add[np.ix_(np.flatnonzero(a), np.flatnonzero(b))].ravel()] = True
    return out


def additive_span(ref: Ref, gens) -> np.ndarray:
    span = np.zeros(ref.n, dtype=bool)
    span[ref.zero] = True
    span[list(gens)] = True
    while True:
        grown = sumset(ref.add, span, span)
        if np.array_equal(grown, span):
            return span
        span = grown


def principal_left_ideal(ref: Ref, x: int) -> np.ndarray:
    """R x, which is already closed under sums and contains x."""
    out = np.zeros(ref.n, dtype=bool)
    out[ref.mul[:, x]] = True
    return out


# ---------------------------------------------------------------------------
# gradings


@dataclass
class RefGrading:
    integers: bool
    table: list | None  # finite grade group table
    components: dict  # degree -> bool array, nonzero components only


def _digit_components(ref: Ref, base: Ref, length: int) -> dict:
    D = _digits(ref.n, base.n, length)
    comps = {}
    for k in range(length):
        others = np.delete(D, k, axis=1)
        comps[k] = (others == base.zero).all(axis=1)
    return comps


def ref_grading(doc: dict, ref: Ref) -> RefGrading:
    node = doc["grading"]
    ((rkey, rval),) = doc["ring"].items()
    if node == "canonical":
        if rkey == "group_ring":
            table = group_table_of(rval["group"])
            comps = _digit_components(ref, ref_ring(rval["base"]), len(table))
            return RefGrading(False, table, comps)
        if rkey == "poly_quotient":
            comps = _digit_components(ref, ref_ring(rval["base"]), len(rval["modulus"]) - 1)
            return RefGrading(True, None, comps)
        if rkey == "idealization":
            base = ref_ring(rval["base"])
            m = ref.n // base.n
            idx = np.arange(ref.n)
            mod_zero = base.zero if rval["module"] == "self" else 0
            comps = {0: idx % m == mod_zero, 1: idx // m == base.zero}
            return RefGrading(False, [[0, 1], [1, 0]], comps)
        raise ValueError(f"no canonical grading for {rkey}")
    ((gkey, gval),) = node.items()
    group = gval.get("group")
    integers = group == "integers"
    table = None if integers else (group_table_of(group) if group else [[0]])
    if gkey == "trivial":
        ident = 0 if integers else group_identity(table)
        return RefGrading(integers, table, {ident: np.ones(ref.n, dtype=bool)})
    comps = {}
    for deg, gens in gval["components"].items():
        span = additive_span(ref, gens)
        if span.sum() > 1:
            comps[int(deg)] = span
    return RefGrading(integers, table, comps)


def _same(a: RefGrading, b: RefGrading) -> bool:
    if a.integers != b.integers or (not a.integers and a.table != b.table):
        return False
    return a.components.keys() == b.components.keys() and all(
        np.array_equal(a.components[d], b.components[d]) for d in a.components
    )


def expected_kinds(doc: dict, ref: Ref, grading: RefGrading) -> set[str]:
    """Which construction kinds a document's instance matches."""
    kinds = set()
    if grading.integers:
        kinds.add("integer")
    rkey = next(iter(doc["ring"]))
    if rkey in ("group_ring", "idealization"):
        canonical = ref_grading({"ring": doc["ring"], "grading": "canonical"}, ref)
        if _same(grading, canonical):
            kinds.add(rkey)
            if rkey == "idealization" and doc["ring"]["idealization"]["module"] == "self":
                kinds.add("self_idealization")
    return kinds


def expected_skipped(doc: dict, ref: Ref, grading: RefGrading) -> set[str]:
    kinds = expected_kinds(doc, ref, grading)
    return {t for t, need in CHECK_KINDS.items() if not set(need) <= kinds}


def homogeneous(grading: RefGrading) -> np.ndarray:
    return np.logical_or.reduce(list(grading.components.values()))


def is_graded_set(ref: Ref, grading: RefGrading, members: np.ndarray) -> bool:
    """The set equals the direct sum of its intersections with the components."""
    total = np.zeros(ref.n, dtype=bool)
    total[ref.zero] = True
    for comp in grading.components.values():
        total = sumset(ref.add, total, members & comp)
    return bool(np.array_equal(total, members))


# ---------------------------------------------------------------------------
# ideal families


def is_left_ideal(ref: Ref, members: np.ndarray) -> bool:
    idx = np.flatnonzero(members)
    return bool(
        members[ref.zero]
        and members[ref.add[np.ix_(idx, idx)]].all()
        and members[ref.mul[:, idx]].all()
    )


def check_family(ref: Ref, grading: RefGrading, masks: list[int], graded: bool) -> list[str]:
    """A family the program reports as every (graded) left ideal.

    Every member is a left ideal (and graded, for a graded family); every
    principal left ideal R x (x homogeneous, for a graded family) is a
    member; the family is closed under sums.  A family with these three
    properties is exactly the set of (graded) left ideals: each such ideal is
    the sum of the principal ideals of its (homogeneous) members.
    """
    problems = []
    sets = [to_bool(m, ref.n) for m in masks]
    keys = set(masks)
    if len(keys) != len(masks):
        problems.append("family lists an ideal twice")
    for m, s in zip(masks, sets):
        if not is_left_ideal(ref, s):
            problems.append(f"member {m:#x} is not a left ideal")
        elif graded and not is_graded_set(ref, grading, s):
            problems.append(f"member {m:#x} is not graded")
    gens = np.flatnonzero(homogeneous(grading)) if graded else range(ref.n)
    for x in gens:
        p = to_mask(principal_left_ideal(ref, int(x)))
        if p not in keys:
            problems.append(f"principal left ideal of {int(x)} is missing")
            break
    for (ma, a), (mb, b) in itertools.combinations(zip(masks, sets), 2):
        if ma | mb in (ma, mb):
            continue
        if to_mask(sumset(ref.add, a, b)) not in keys:
            problems.append(f"sum of {ma:#x} and {mb:#x} is missing")
            break
    return problems


def enumerate_ideals(ref: Ref, grading: RefGrading, graded: bool) -> list[int]:
    """Every (graded) left ideal, as sums of principal ones."""
    gens = np.flatnonzero(homogeneous(grading)) if graded else range(ref.n)
    principal = {to_mask(principal_left_ideal(ref, int(x))) for x in gens}
    principal = [to_bool(p, ref.n) for p in sorted(principal)]
    zero = np.zeros(ref.n, dtype=bool)
    zero[ref.zero] = True
    found = {to_mask(zero): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for s in frontier:
            for p in principal:
                if (p <= s).all():
                    continue
                t = sumset(ref.add, s, p)
                key = to_mask(t)
                if key not in found:
                    found[key] = t
                    nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda m: (m.bit_count(), m))


def vertices(ref: Ref, family: list[int]) -> list[int]:
    full = (1 << ref.n) - 1
    zero = 1 << ref.zero
    return sorted((m for m in family if m not in (zero, full)), key=lambda m: (m.bit_count(), m))


# ---------------------------------------------------------------------------
# graphs


def own_edges(vertex_masks: list[int], zero_mask: int) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(vertex_masks)), 2)
        if vertex_masks[i] & vertex_masks[j] & ~zero_mask
    ]


def adjacency_edges(adj: list[int]) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(adj)) for j in range(i + 1, len(adj)) if adj[i] >> j & 1]


def domination_number(n: int, edges) -> int:
    """Smallest dominating set, component by component."""
    closed = [1 << v for v in range(n)]
    for i, j in edges:
        closed[i] |= 1 << j
        closed[j] |= 1 << i
    total = 0
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        comp, stack = 1 << v, [v]
        while stack:
            u = stack.pop()
            new = closed[u] & ~comp
            comp |= new
            stack.extend(w for w in range(n) if new >> w & 1)
        seen |= comp
        members = [w for w in range(n) if comp >> w & 1]
        for k in range(1, len(members) + 1):
            if any(
                comp & ~_union(closed, combo) == 0
                for combo in itertools.combinations(members, k)
            ):
                total += k
                break
    return total


def _union(closed, combo) -> int:
    out = 0
    for v in combo:
        out |= closed[v]
    return out


def check_invariants(n: int, edges, inv: dict) -> list[str]:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    connected = n == 0 or nx.is_connected(g)
    if n <= 1:
        diameter = 0
    else:
        diameter = nx.diameter(g) if connected else math.inf
    want = {
        "order": n,
        "size": len(edges),
        "components": nx.number_connected_components(g),
        "connected": connected,
        "diameter": diameter,
        "girth": nx.girth(g),
        "clique_number": max((len(c) for c in nx.find_cliques(g)), default=0),
        "domination_number": domination_number(n, edges),
    }
    problems = []
    for key, value in want.items():
        got = inv.get(key)
        got = math.inf if got == "inf" else got
        if got != value:
            problems.append(f"{key} is {got}, want {value}")
    if inv.get("planar") is not None and inv["planar"] != nx.check_planarity(g)[0]:
        problems.append(f"planar is {inv['planar']}, networkx says otherwise")
    return problems


def check_graph(ref: Ref, vertex_masks: list[int], n: int, adj: list[int]) -> list[str]:
    if n != len(vertex_masks):
        return [f"graph has {n} vertices, want {len(vertex_masks)}"]
    if adjacency_edges(adj) != own_edges(vertex_masks, 1 << ref.zero):
        return ["graph edges differ from the pairwise intersections"]
    return []


# ---------------------------------------------------------------------------
# verdicts and command-line output

VERDICTS = ("PASS", "FAIL", "VACUOUS", "SKIPPED")


def check_verdicts(verdicts: list[tuple[str, str]], skipped: set[str]) -> list[str]:
    problems = []
    ids = [t for t, _ in verdicts]
    if ids != list(CHECK_KINDS):
        problems.append(f"checks ran were {ids}, want the 32 registered ids in order")
    for t, v in verdicts:
        if v not in VERDICTS:
            problems.append(f"{t}: unknown verdict {v}")
        elif v == "FAIL":
            problems.append(f"{t}: FAIL")
        elif (v == "SKIPPED") != (t in skipped):
            problems.append(f"{t}: {v}, but the construction kind says otherwise")
    return problems


_CHECK_LINE = re.compile(r"^  (\S+)\s+(PASS|FAIL|VACUOUS|SKIPPED)(  witness: .*)?$")
_SUMMARY = re.compile(
    r"^checks: (\d+)  pass: (\d+)  fail: (\d+)  vacuous: (\d+)  skipped: (\d+)$"
)
_CORPUS_SUMMARY = re.compile(
    r"^instances: (\d+)  pass: (\d+)  fail: (\d+)  vacuous: (\d+)  skipped: (\d+)$"
)


def _verify_blocks(lines: list[str]) -> list[tuple[str, list[tuple[str, str]]]]:
    blocks = []
    for line in lines:
        if line.endswith(":") and not line.startswith(" "):
            blocks.append((line[:-1], []))
        elif (m := _CHECK_LINE.match(line)) and blocks:
            blocks[-1][1].append((m.group(1), m.group(2)))
    return blocks


def _counts(verdicts) -> list[int]:
    return [sum(v == k for _, v in verdicts) for k in VERDICTS]


def _doc_truth(doc: dict):
    ref = ref_ring(doc["ring"])
    return ref, ref_grading(doc, ref)


def check_cli(args: list[str], doc: dict | None, code: int, out: str, corpus_dir: Path) -> list[str]:
    """Judge one command-line invocation from its exit code and stdout."""
    if code != 0:
        return [f"exit code {code}"]
    lines = out.splitlines()
    verb = args[0]
    if verb == "corpus":
        return _check_corpus(lines, corpus_dir)
    ref, grading = _doc_truth(doc)
    if verb == "verify":
        blocks = _verify_blocks(lines)
        m = _SUMMARY.match(lines[-1]) if lines else None
        if len(blocks) != 1 or not m:
            return ["verify output has no single instance block and summary"]
        verdicts = blocks[0][1]
        problems = check_verdicts(verdicts, expected_skipped(doc, ref, grading))
        if [int(x) for x in m.groups()] != [len(verdicts)] + _counts(verdicts):
            problems.append("checks: summary disagrees with the per-check lines")
        return problems
    all_family = enumerate_ideals(ref, grading, graded=False)
    graded_family = enumerate_ideals(ref, grading, graded=True)
    if verb == "ideals":
        want = graded_family if "--graded-only" in args else all_family
        head = re.match(r"^ring size (\d+), left ideals listed: (\d+)$", lines[0])
        rows = lines[1:]
        problems = []
        if not head or int(head.group(1)) != ref.n or int(head.group(2)) != len(want):
            problems.append(f"header {lines[0]!r}, want {ref.n} elements and {len(want)} ideals")
        sizes = sorted(int(re.search(r" size +(\d+)", r).group(1)) for r in rows)
        if sizes != sorted(m.bit_count() for m in want) or len(rows) != len(want):
            problems.append("ideal sizes differ")
        tagged = sum(r.rstrip().endswith("graded") for r in rows)
        if tagged != sum(m in set(graded_family) for m in want):
            problems.append(f"{tagged} rows tagged graded, want {len(graded_family)}")
        return problems
    if verb == "classify":
        info = dict(line.split(": ", 1) for line in lines if ": " in line)
        commutative = bool(np.array_equal(ref.mul, ref.mul.T))
        want = {
            "graded left ideals": str(len(graded_family)),
            "left ideals": str(len(all_family)),
            "graded graph": f"{len(graded_family) - 2} vertices",
            "full graph": f"{len(all_family) - 2} vertices",
        }
        problems = [f"{k}: {info.get(k)!r}, want {v!r}" for k, v in want.items() if info.get(k) != v]
        ring_line = info.get("ring", "")
        if f"{ref.n} elements, {'commutative' if commutative else 'noncommutative'}" not in ring_line:
            problems.append(f"ring line {ring_line!r}")
        return problems
    if verb == "graph":
        which = args[args.index("--which") + 1] if "--which" in args else "graded"
        family = all_family if which == "all" else graded_family
        verts = vertices(ref, family)
        g = json.loads(out)
        edges = [tuple(e) for e in g["edges"]]
        problems = []
        if len(g["vertices"]) != len(verts):
            return [f"graph has {len(g['vertices'])} vertices, want {len(verts)}"]
        if edges != own_edges(verts, 1 << ref.zero):
            problems.append("graph edges differ from the pairwise intersections")
        return problems + check_invariants(len(verts), edges, g["invariants"])
    raise ValueError(f"unknown verb {verb}")


def _check_corpus(lines: list[str], corpus_dir: Path) -> list[str]:
    problems = []
    blocks = _verify_blocks(lines)
    names = [p.stem for p in sorted(corpus_dir.glob("*.json"))]
    if [name for name, _ in blocks] != names:
        return [f"corpus blocks {[n for n, _ in blocks]}, want {names}"]
    totals = [0, 0, 0, 0]
    for name, verdicts in blocks:
        doc = json.loads((corpus_dir / f"{name}.json").read_text())
        ref, grading = _doc_truth(doc)
        problems += [f"{name}: {p}" for p in check_verdicts(verdicts, expected_skipped(doc, ref, grading))]
        totals = [a + b for a, b in zip(totals, _counts(verdicts))]
    summary = next((m for line in lines if (m := _CORPUS_SUMMARY.match(line))), None)
    if not summary or [int(x) for x in summary.groups()] != [len(names)] + totals:
        problems.append("corpus summary disagrees with the per-check lines")
    return problems
