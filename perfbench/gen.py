"""Seeded instance documents for the benchmark workloads.

The program only ever sees the JSON documents built here.  Every document
uses a form that ``idealgraphs.cli.parse_instance`` accepts.

Each workload is a fixed list of slots.  A slot fixes the constructor, the
size class and, for ``lattice-checks`` and ``ring-ladder``, the ring up to
isomorphism; the seed and the round index choose a presentation of it (a
relabelled group table, a shifted polynomial variable, a sheared algebra
basis, a factor order, a grade group).  So every seed gives the same
operation count and almost the same amount of work, while the tables the
program builds differ from one presentation to the next.  Within one run a
slot never repeats a ring document until its pool of presentations is
exhausted.  Two ring-ladder slots have a single presentation (Z_n, and Z32
with a Z16 module at 512 elements), so they repeat in every round after the
first.
"""

from __future__ import annotations

import json
import random
from math import comb

WORKLOADS = ("cli-small", "ring-ladder", "lattice-checks")

# Registry of the 32 check ids and the construction kind each one needs
# (README "Structure checks"); used to predict SKIPPED verdicts.
CHECK_KINDS = {
    "lemma_b": (), "lemma_r1": (), "t1": (), "c1": (), "c11": (), "c101": (),
    "t2": (), "t51": (), "t52": (), "t6": (), "l18": (), "l187": (), "t3": (),
    "t4": (), "t100": (), "lemma51": (), "t1001": (), "conn_equiv": (),
    "gamma_eq": (), "omega_formula": (), "lemma_l0": (), "t56": (),
    "groupring_example": ("group_ring",),
    "lemma17": ("idealization",),
    "t777": ("idealization",),
    "t777_cor": ("self_idealization",),
    "t231": ("self_idealization",),
    "planarity_cor": ("self_idealization",),
    "lemma_ll": ("integer",),
    "t543": ("integer",),
    "t544": ("integer",),
    "r545": ("integer",),
}


def round_rng(workload: str, seed: int, round_index: int, slot: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}/{slot}")


def canonical_json(node) -> str:
    return json.dumps(node, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# groups


def cyclic_table(k: int, rng: random.Random) -> list[list[int]]:
    """Cayley table of C_k with its elements relabelled at random."""
    perm = list(range(k))
    rng.shuffle(perm)
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            table[perm[a]][perm[b]] = perm[(a + b) % k]
    return table


def klein_table(rng: random.Random) -> list[list[int]]:
    perm = list(range(4))
    rng.shuffle(perm)
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            table[perm[a]][perm[b]] = perm[a ^ b]
    return table


def cyclic_group_node(k: int, rng: random.Random) -> dict:
    """C_k either in the cyclic form or as a relabelled table."""
    if rng.random() < 0.3:
        return {"cyclic": k}
    return {"table": cyclic_table(k, rng)}


def group_table_of(node) -> list[list[int]]:
    if "cyclic" in node:
        k = node["cyclic"]
        return [[(a + b) % k for b in range(k)] for a in range(k)]
    return node["table"]


def group_identity(table) -> int:
    k = len(table)
    return next(e for e in range(k) if all(table[e][a] == a for a in range(k)))


def trivial_grade_group(rng: random.Random):
    """A grading group for a trivial grading: none, integers, cyclic or table."""
    pick = rng.randrange(4)
    if pick == 0:
        return {"trivial": {}}
    if pick == 1:
        return {"trivial": {"group": "integers"}}
    if pick == 2:
        return {"trivial": {"group": {"cyclic": rng.randrange(2, 7)}}}
    return {"trivial": {"group": {"table": cyclic_table(rng.randrange(2, 5), rng)}}}


# ---------------------------------------------------------------------------
# polynomial quotients over Z_n


def shifted_power(n: int, c: int, k: int) -> list[int]:
    """Coefficients of (x - c)^k mod n, low degree first."""
    return [comb(k, i) * pow(-c, k - i) % n for i in range(k + 1)]


def digits_index(digits, radix: int) -> int:
    idx = 0
    for d in reversed(digits):
        idx = idx * radix + d
    return idx


def poly_doc(n: int, d: int, c: int) -> dict:
    """Z_n[x]/((x - c)^d), integer graded by powers of y = x - c.

    With c = 0 the canonical grading is used; otherwise the same grading is
    written out explicitly through generators y^k.
    """
    ring = {"poly_quotient": {"base": {"zn": n}, "modulus": shifted_power(n, c, d)}}
    if c == 0:
        return {"ring": ring, "grading": "canonical"}
    comps = {
        str(k): [digits_index(shifted_power(n, c, k) + [0] * (d - 1 - k), n)]
        for k in range(d)
    }
    return {"ring": ring, "grading": {"explicit": {"group": "integers", "components": comps}}}


# ---------------------------------------------------------------------------
# finite-basis algebras


def truncated_poly_table(d: int) -> list:
    """Structure constants of Z_n[x]/(x^d) on the basis 1, x, ..., x^(d-1)."""
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            cell = [0] * d
            if i + j < d:
                cell[i + j] = 1
            row.append(cell)
        table.append(row)
    return table


def upper_triangular_table() -> list:
    """2x2 upper triangular matrices on the basis I, E12, E22."""
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    z = [0, 0, 0]
    return [
        [e[0], e[1], e[2]],
        [e[1], z, e[1]],
        [e[2], z, e[2]],
    ]


def cyclic_algebra_table(k: int) -> list:
    """The group algebra of C_k on the basis g^0, ..., g^(k-1)."""
    return [
        [[1 if t == (i + j) % k else 0 for t in range(k)] for j in range(k)]
        for i in range(k)
    ]


def sheared_algebra(n: int, table: list, shifts: list[int]) -> list:
    """Structure constants on the basis b_0 = e_0, b_i = e_i + shifts[i] e_0.

    e_0 must be the unity.  The result is the same ring written in another
    basis, so its element indices are relabelled.
    """
    d = len(table)
    k = [0] + list(shifts)

    def to_b(v):
        w = list(v)
        w[0] = (v[0] - sum(k[i] * v[i] for i in range(1, d))) % n
        return [x % n for x in w]

    out = []
    for i in range(d):
        row = []
        for j in range(d):
            v = [0] * d
            for t in range(d):
                v[t] += table[i][j][t]
                if j:
                    v[t] += k[j] * table[i][0][t]
                if i:
                    v[t] += k[i] * table[0][j][t]
            if i and j:
                v[0] += k[i] * k[j]
            row.append(to_b(v))
        out.append(row)
    return out


def algebra_node(n: int, table: list, rng: random.Random, named: bool) -> dict:
    d = len(table)
    shifts = [rng.randrange(n) for _ in range(d - 1)]
    node = {"n": n, "dim": d, "table": sheared_algebra(n, table, shifts)}
    if named:
        node["basis"] = ["1"] + [f"b{i}" for i in range(1, d)]
    return {"algebra": node}


# ---------------------------------------------------------------------------
# gradings of products and group rings


def group_ring_node(base: dict, group: dict) -> dict:
    return {"group_ring": {"base": base, "group": group}}


def product_node(left: dict, right: dict) -> dict:
    return {"product": [left, right]}


def product_of_group_rings_graded(
    rng: random.Random, left: tuple[int, int], right: tuple[int, int], k: int
) -> dict:
    """Z_a[C_p] x Z_b[C_q] graded by C_k, where p and q divide k.

    C_p sits in C_k as the multiples of k/p.  The degree-g component is the
    product of the factors' degree-g components.
    """
    (a, p), (b, q) = left, right
    gl, gr = cyclic_table(p, rng), cyclic_table(q, rng)
    grade = cyclic_table(k, rng)
    # perm[t], el[t], er[t]: the labels of g^t in each relabelled table
    perm = _relabelling(grade, k)
    el, er = _relabelling(gl, p), _relabelling(gr, q)
    size_r = b**q
    comps: dict[str, list[int]] = {}
    for t in range(p):
        deg = perm[t * (k // p)]
        comps.setdefault(str(deg), []).append(a ** el[t] * size_r)
    for t in range(q):
        deg = perm[t * (k // q)]
        comps.setdefault(str(deg), []).append(b ** er[t])
    ring = product_node(
        group_ring_node({"zn": a}, {"table": gl}), group_ring_node({"zn": b}, {"table": gr})
    )
    return {"ring": ring, "grading": {"explicit": {"group": {"table": grade}, "components": comps}}}


def _relabelling(table, k: int) -> list[int]:
    """perm with perm[t] = the label of g^t for a generator g of the table."""
    e = group_identity(table)
    for g in range(k):
        seq = [e]
        for _ in range(k - 1):
            seq.append(table[seq[-1]][g])
        if len(set(seq)) == k:
            return seq
    raise ValueError("table is not cyclic")


# ---------------------------------------------------------------------------
# workload: ring-ladder

LADDER_SIZES = (64, 256, 512)
LADDER_KINDS = ("zn", "poly_quotient", "group_ring", "algebra", "idealization", "product")
# rings re-validated through ring_from_tables (the 512 rung is left out:
# it would add about 2.4 s per ring to a round that already takes ~22 s)
LADDER_REVALIDATE = (64, 256)

_POLY_SHAPE = {64: (4, 3), 256: (4, 4), 512: (8, 3)}
_GROUP_SHAPE = {64: (2, 6), 256: (2, 8), 512: (2, 9)}
_ALGEBRA_SHAPE = {64: (4, "T2"), 256: (4, 4), 512: (8, 3)}
# (base, module) of the idealization slot: a relabelled group ring doubled
# by itself where the size is a square, Z_n with a Z_m module at 512
_IDEALIZATION_SHAPE = {64: ((2, 3), "self"), 256: ((2, 4), "self"), 512: (32, 16)}
# the two group-ring factors Z2[C_p] x Z2[C_q] of the product slot
_PRODUCT_SHAPE = {64: (2, 4), 256: (4, 4), 512: (4, 5)}


def _ladder_doc(kind: str, size: int, rng: random.Random) -> dict:
    if kind == "zn":
        return {"ring": {"zn": size}, "grading": trivial_grade_group(rng)}
    if kind == "poly_quotient":
        n, d = _POLY_SHAPE[size]
        return poly_doc(n, d, rng.randrange(n))
    if kind == "group_ring":
        n, k = _GROUP_SHAPE[size]
        return {"ring": group_ring_node({"zn": n}, cyclic_group_node(k, rng)), "grading": "canonical"}
    if kind == "algebra":
        n, shape = _ALGEBRA_SHAPE[size]
        table = upper_triangular_table() if shape == "T2" else cyclic_algebra_table(shape)
        return {"ring": algebra_node(n, table, rng, rng.random() < 0.5), "grading": trivial_grade_group(rng)}
    if kind == "idealization":
        base, module = _IDEALIZATION_SHAPE[size]
        if module == "self":
            n, k = base
            node = {"base": group_ring_node({"zn": n}, {"table": cyclic_table(k, rng)}), "module": "self"}
        else:
            node = {"base": {"zn": base}, "module": {"zn_quotient": module}}
        return {"ring": {"idealization": node}, "grading": "canonical"}
    if kind == "product":
        p, q = _PRODUCT_SHAPE[size]
        ring = product_node(
            group_ring_node({"zn": 2}, {"table": cyclic_table(p, rng)}),
            group_ring_node({"zn": 2}, {"table": cyclic_table(q, rng)}),
        )
        return {"ring": ring, "grading": trivial_grade_group(rng)}
    raise ValueError(kind)


def ladder_round(seed: int, round_index: int, used: set) -> list[dict]:
    """One round: every constructor at every rung, smallest rung first."""
    ops = []
    slot = 0
    for size in LADDER_SIZES:
        for kind in LADDER_KINDS:
            doc = _fresh(
                lambda rng, k=kind, s=size: _ladder_doc(k, s, rng),
                "ring-ladder", seed, round_index, slot, used,
            )
            ops.append({
                "slot": f"{kind}-{size}",
                "doc": doc,
                "revalidate": size in LADDER_REVALIDATE,
            })
            slot += 1
    return ops


# ---------------------------------------------------------------------------
# workload: lattice-checks


def _lattice_doc(slot: str, rng: random.Random) -> dict:
    # Factor orders stay fixed: swapping factors changes the element layout
    # and with it the cost of run_all by up to half.
    if slot == "small-group-rings-product":
        # Z2[C2] x Z4[C2], trivially graded by C2: 64 elements, 21 ideals
        left = group_ring_node({"zn": 2}, {"table": cyclic_table(2, rng)})
        right = group_ring_node({"zn": 4}, {"table": cyclic_table(2, rng)})
        return {"ring": product_node(left, right), "grading": {"trivial": {"group": {"cyclic": 2}}}}
    if slot == "group-rings-product-trivial":
        # Z2[C4] x Z4[C2], trivially graded: 35 ideals, and the identity
        # component is the whole ring
        left = group_ring_node({"zn": 2}, {"table": cyclic_table(4, rng)})
        right = group_ring_node({"zn": 4}, {"table": cyclic_table(2, rng)})
        grading = {"trivial": {"group": rng.choice([{"cyclic": 2}, {"table": cyclic_table(3, rng)}])}}
        return {"ring": product_node(left, right), "grading": grading}
    if slot == "group-rings-product-graded":
        # Z2[C4] x Z4[C2] graded by C4 through both factors
        return product_of_group_rings_graded(rng, (2, 4), (4, 2), 4)
    if slot == "self-idealization":
        # Z4[x]/((x - c)^2) doubled by itself: 25 graded, 47 left ideals
        c = rng.randrange(4)
        base = {"poly_quotient": {"base": {"zn": 4}, "modulus": shifted_power(4, c, 2)}}
        return {"ring": {"idealization": {"base": base, "module": "self"}}, "grading": "canonical"}
    if slot == "self-idealization-group-ring":
        # Z2[C4] doubled by itself: 15 graded, 23 left ideals
        base = group_ring_node({"zn": 2}, {"table": cyclic_table(4, rng)})
        return {"ring": {"idealization": {"base": base, "module": "self"}}, "grading": "canonical"}
    if slot == "integer-poly":
        # Z4[x]/((x - c)^4) graded by powers of x - c: 15 graded, 23 ideals
        return poly_doc(4, 4, rng.randrange(4))
    if slot == "integer-trivial-product":
        # Z4 x Z2[C6], trivially graded by the integers: 27 ideals
        right = group_ring_node({"zn": 2}, {"table": cyclic_table(6, rng)})
        return {"ring": product_node({"zn": 4}, right), "grading": {"trivial": {"group": "integers"}}}
    raise ValueError(slot)


LATTICE_SLOTS = (
    "small-group-rings-product",
    "integer-poly",
    "self-idealization-group-ring",
    "group-rings-product-graded",
    "self-idealization",
    "group-rings-product-trivial",
    "integer-trivial-product",
)


def lattice_round(seed: int, round_index: int, used: set) -> list[dict]:
    ops = []
    for slot, name in enumerate(LATTICE_SLOTS):
        doc = _fresh(
            lambda rng, s=name: _lattice_doc(s, rng),
            "lattice-checks", seed, round_index, slot, used,
        )
        ops.append({"slot": name, "doc": doc})
    return ops


# ---------------------------------------------------------------------------
# workload: cli-small


def _small_commutative_base(rng: random.Random, max_size: int) -> dict:
    """A commutative ring of at most max_size elements, in any constructor."""
    options = []
    for n in range(2, max_size + 1):
        options.append({"zn": n})
    for a in range(2, max_size + 1):
        for b in range(2, max_size // a + 1):
            options.append(product_node({"zn": a}, {"zn": b}))
    for n, d in ((2, 2), (2, 3), (3, 2)):
        if n**d <= max_size:
            for c in range(n):
                options.append({"poly_quotient": {"base": {"zn": n}, "modulus": shifted_power(n, c, d)}})
    if max_size >= 4:
        options.append({"poly_quotient": {"base": {"zn": 2}, "modulus": [1, 1, 1]}})
    if max_size >= 8:
        options.append(group_ring_node({"zn": 2}, {"table": cyclic_table(3, rng)}))
    return rng.choice(options)


def _cli_doc(slot: str, rng: random.Random) -> tuple[list[str], dict]:
    """(verb arguments without the file, document) for one cli-small slot."""
    if slot == "zn-classify":
        return ["classify"], {"ring": {"zn": rng.randrange(2, 65)}, "grading": trivial_grade_group(rng)}
    if slot == "zn-integers-verify":
        n = rng.randrange(2, 33)
        return ["verify"], {"ring": {"zn": n}, "grading": {"trivial": {"group": "integers"}}}
    if slot == "zn-ideals":
        n = rng.randrange(2, 65)
        return ["ideals"], {"ring": {"zn": n}, "grading": {"trivial": {"group": {"cyclic": rng.randrange(2, 6)}}}}
    if slot == "product-graph":
        a = rng.randrange(2, 9)
        b = rng.randrange(2, 64 // a + 1)
        return ["graph", "--format", "json", "--which", rng.choice(["graded", "all"])], {
            "ring": product_node({"zn": a}, {"zn": b}), "grading": trivial_grade_group(rng)}
    if slot == "product-verify":
        a = rng.randrange(2, 5)
        b = rng.randrange(2, 16 // a + 1)
        left = {"zn": a} if rng.random() < 0.5 else {"poly_quotient": {"base": {"zn": 2}, "modulus": [1, 1, 1]}}
        return ["verify"], {"ring": product_node(left, {"zn": b}), "grading": {"trivial": {}},
                            "limits": {"max_ring_size": 1024}}
    if slot == "poly-canonical-ideals":
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (7, 2), (8, 2)])
        return ["ideals", "--graded-only"] if rng.random() < 0.5 else ["ideals"], {
            "ring": {"poly_quotient": {"base": {"zn": n}, "modulus": [0] * d + [1]}}, "grading": "canonical"}
    if slot == "poly-modulus-classify":
        d = rng.randrange(2, 6)
        modulus = [rng.randrange(2) for _ in range(d)] + [1]
        return ["classify"], {"ring": {"poly_quotient": {"base": {"zn": 2}, "modulus": modulus}},
                              "grading": {"trivial": {"group": {"cyclic": 2}}}}
    if slot == "poly-explicit-verify":
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
        return ["verify"], poly_doc(n, d, rng.randrange(1, n))
    if slot == "poly-explicit-graph":
        n, d = rng.choice([(2, 5), (2, 6), (3, 3), (4, 3), (5, 2), (7, 2), (8, 2)])
        return ["graph", "--format", "json"], poly_doc(n, d, rng.randrange(1, n))
    if slot == "group-ring-cyclic-graph":
        n, k = rng.choice([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2), (4, 3)])
        return ["graph", "--format", "json"], {"ring": group_ring_node({"zn": n}, {"cyclic": k}), "grading": "canonical"}
    if slot == "group-ring-table-verify":
        n, k = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
        return ["verify"], {"ring": group_ring_node({"zn": n}, {"table": cyclic_table(k, rng)}), "grading": "canonical"}
    if slot == "group-ring-table-classify":
        if rng.random() < 0.3:
            group = {"table": klein_table(rng)}
        else:
            group = {"table": cyclic_table(rng.randrange(2, 7), rng)}
        return ["classify"], {"ring": group_ring_node({"zn": 2}, group), "grading": "canonical"}
    if slot == "algebra-named-ideals":
        n = rng.choice([2, 3, 4])
        table = upper_triangular_table() if rng.random() < 0.5 else truncated_poly_table(3)
        return ["ideals"], {"ring": algebra_node(n, table, rng, True), "grading": trivial_grade_group(rng)}
    if slot == "algebra-bare-graph":
        n = rng.choice([2, 3])
        table = upper_triangular_table() if rng.random() < 0.5 else truncated_poly_table(3)
        return ["graph", "--format", "json", "--which", "all"], {
            "ring": algebra_node(n, table, rng, False), "grading": trivial_grade_group(rng)}
    if slot == "algebra-explicit-verify":
        n, d = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
        comps = {str(k): [n**k] for k in range(d)}
        return ["verify"], {"ring": {"algebra": {"n": n, "dim": d, "table": truncated_poly_table(d)}},
                            "grading": {"explicit": {"group": "integers", "components": comps}}}
    if slot == "self-idealization-verify":
        base = _small_commutative_base(rng, 4)
        return ["verify"], {"ring": {"idealization": {"base": base, "module": "self"}}, "grading": "canonical"}
    if slot == "self-idealization-graph":
        base = _small_commutative_base(rng, 8)
        return ["graph", "--format", "json"], {"ring": {"idealization": {"base": base, "module": "self"}},
                                               "grading": "canonical"}
    if slot == "quotient-idealization-classify":
        n = rng.choice([4, 6, 8, 9, 10, 12, 16])
        m = rng.choice([d for d in range(2, n + 1) if n % d == 0 and n * d <= 64])
        return ["classify"], {"ring": {"idealization": {"base": {"zn": n}, "module": {"zn_quotient": m}}},
                              "grading": "canonical"}
    if slot == "quotient-idealization-verify":
        n = rng.choice([2, 3, 4, 6, 8])
        m = rng.choice([d for d in range(2, n + 1) if n % d == 0 and n * d <= 32])
        return ["verify"], {"ring": {"idealization": {"base": {"zn": n}, "module": {"zn_quotient": m}}},
                            "grading": "canonical"}
    if slot == "cyclic-explicit-ideals":
        # Z_n[x]/(x^d) graded by C_k through degrees mod k
        n, d = rng.choice([(2, 4), (2, 5), (2, 6), (3, 3), (4, 3), (2, 3)])
        k = rng.randrange(2, d + 1)
        comps: dict[str, list[int]] = {}
        for i in range(d):
            comps.setdefault(str(i % k), []).append(n**i)
        return ["ideals"], {"ring": {"poly_quotient": {"base": {"zn": n}, "modulus": [0] * d + [1]}},
                            "grading": {"explicit": {"group": {"cyclic": k}, "components": comps}}}
    if slot == "group-ring-explicit-graph":
        # the canonical grading of Z_n[C_k] written out over the same table
        n, k = rng.choice([(2, 3), (2, 4), (3, 2), (4, 2), (2, 5), (3, 3)])
        table = cyclic_table(k, rng)
        comps = {str(g): [n**g] for g in range(k)}
        return ["graph", "--format", "json"], {"ring": group_ring_node({"zn": n}, {"table": table}),
                                               "grading": {"explicit": {"group": {"table": table}, "components": comps}}}
    if slot == "product-group-ring-classify":
        left = group_ring_node({"zn": 2}, {"cyclic": rng.randrange(2, 4)})
        right = {"zn": rng.randrange(2, 9)}
        ring = product_node(left, right) if rng.random() < 0.5 else product_node(right, left)
        return ["classify"], {"ring": ring, "grading": {"trivial": {"group": "integers"}}}
    raise ValueError(slot)


CLI_SLOTS = (
    "zn-classify",
    "zn-integers-verify",
    "zn-ideals",
    "product-graph",
    "product-verify",
    "poly-canonical-ideals",
    "poly-modulus-classify",
    "poly-explicit-verify",
    "poly-explicit-graph",
    "group-ring-cyclic-graph",
    "group-ring-table-verify",
    "group-ring-table-classify",
    "algebra-named-ideals",
    "algebra-bare-graph",
    "algebra-explicit-verify",
    "self-idealization-verify",
    "self-idealization-graph",
    "quotient-idealization-classify",
    "quotient-idealization-verify",
    "cyclic-explicit-ideals",
    "group-ring-explicit-graph",
    "product-group-ring-classify",
)


def cli_round(seed: int, round_index: int, used: set) -> list[dict]:
    """One round of CLI invocations, then one sweep of the shipped corpus."""
    ops = []
    for slot, name in enumerate(CLI_SLOTS):
        holder = {}

        def draw(rng, s=name):
            holder["args"], doc = _cli_doc(s, rng)
            return doc

        doc = _fresh(draw, "cli-small", seed, round_index, slot, used)
        ops.append({"slot": name, "verb": holder["args"], "doc": doc})
    ops.append({"slot": "corpus", "verb": ["corpus"], "doc": None})
    return ops


def write_cli_docs(workload: str, out, round_index: int, ops: list[dict]) -> None:
    """Write a cli-small round's documents and set each op's argv."""
    if workload != "cli-small":
        return
    for i, op in enumerate(ops):
        if op["doc"] is None:
            op["argv"] = op["verb"] + ["corpus"]
            continue
        path = out / f"r{round_index}_{i}_{op['slot']}.json"
        path.write_text(json.dumps(op["doc"]))
        op["argv"] = op["verb"] + [str(path)]


# ---------------------------------------------------------------------------


def _fresh(draw, workload: str, seed: int, round_index: int, slot: int, used: set) -> dict:
    """Draw a document whose ring was not used earlier in the run.

    Tries a bounded number of draws; when a slot's pool is exhausted the last
    draw is kept, so a run always has the same number of operations.
    """
    rng = round_rng(workload, seed, round_index, slot)
    for _ in range(64):
        doc = draw(rng)
        key = canonical_json(doc["ring"])
        if key not in used:
            break
    used.add(key)
    return doc


ROUND_BUILDERS = {
    "cli-small": cli_round,
    "ring-ladder": ladder_round,
    "lattice-checks": lattice_round,
}
