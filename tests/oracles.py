"""Independent brute-force reference implementations for the test suite.

Everything here recomputes answers from first principles, trading speed for
obviousness, so the package's optimized code paths can be checked against a
second opinion on small inputs.
"""

from __future__ import annotations

import itertools
from math import inf

import numpy as np

from idealgraphs.errors import InvalidConstruction, NotASubring
from idealgraphs.grading import validate_grading
from idealgraphs.ring_core import (
    FiniteGroup,
    _induced_ring,
    additive_span,
    mask_members,
    ring_from_tables,
)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def as_lists(table) -> list:
    """A table, or one row of it, as nested lists of Python ints: the
    package keeps its tables as arrays of a compact dtype, whose arithmetic
    wraps where Python ints grow, so every reference loop reads them here."""
    return np.asarray(table).tolist()


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


def frontier_bfs_generators(T, start: int, what: str, sym: str) -> list[int]:
    """The greedy generator search before its closure doubled: Light's test
    with a column gather for x (s y), then the reached set grown by one right
    multiplication by the generators per round (n - 1 rounds on Z_n)."""
    gens = []
    reached = np.zeros(len(T), dtype=bool)
    reached[start] = True
    while not reached.all():
        s = int(np.argmin(reached))
        bad = T[T[:, s]] != T[:, T[s]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise InvalidConstruction(f"{what} not associative (witness ({x}{sym}{s}){sym}{y})")
        gens.append(s)
        G = np.array(gens)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = T[frontier[:, None], G].ravel()
            frontier = step[~reached[step]]
            reached[frontier] = True
    return gens


def first_non_additive_column(F, A, edges):
    """The first column x of F, then the first edge (src, via, dst) in edge
    order, with F[dst][x] != A[F[src][x]][F[via][x]], as (x, src, via);
    None when every column is additive on the edges."""
    F, A = as_lists(F), as_lists(A)
    src, via, dst = (as_lists(e) for e in edges)
    for x in range(len(F[0])):
        for s, v, d in zip(src, via, dst):
            if A[F[s][x]][F[v][x]] != F[d][x]:
                return x, s, v
    return None


# --- groups, modules and unital subrings, by the element loops the library
# used before its generator validator


def exhaustive_group_from_table(op, names=None) -> FiniteGroup:
    """Identity and inverses by search, associativity row by row: O(n^3)."""
    n = len(op)
    T = _as_table(op, n, "group")
    identity = None
    for e in range(n):
        if np.array_equal(T[e], np.arange(n)) and np.array_equal(T[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise InvalidConstruction("group table has no two-sided identity")
    inv = []
    for a in range(n):
        hits = [b for b in range(n) if T[a][b] == identity and T[b][a] == identity]
        if not hits:
            raise InvalidConstruction(f"group element {a} has no inverse")
        inv.append(hits[0])
    for a in range(n):
        if not np.array_equal(T[T[a]], T[a][T]):
            raise InvalidConstruction(f"group operation not associative (witness row {a})")
    if names is None:
        names = tuple(str(a) for a in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise InvalidConstruction("group names length mismatch")
    return FiniteGroup(size=n, op_array=T.copy(), identity=identity, inv=tuple(inv), names=names)


def pairwise_is_subgroup(group, members) -> bool:
    """Closure test product by product, as the library made it on tuple
    tables: a set holding the identity and closed under the operation."""
    op = as_lists(group.op_array)
    s = set(members)
    if group.identity not in s:
        return False
    return all(op[a][b] in s for a in s for b in s)


def exhaustive_validate_module(mod) -> None:
    """Every module law for every ring element: O(|R| |M|^2)."""
    n, m = mod.ring.size, mod.size
    MA = _validate_abelian_group(mod.add_array, mod.zero, mod.neg, m, "module")
    ACT = np.asarray(mod.act_array, dtype=np.int64)
    if ACT.shape != (n, m) or (ACT.size and (ACT.min() < 0 or ACT.max() >= m)):
        raise InvalidConstruction("module action table malformed")
    if not np.array_equal(ACT[mod.ring.one], np.arange(m)):
        raise InvalidConstruction("unity does not act as identity on the module")
    RA = mod.ring.add_array
    RM = mod.ring.mul_array
    for r in range(n):
        if not np.array_equal(ACT[r][ACT], ACT[RM[r]]):
            raise InvalidConstruction(f"module action not associative (witness {r})")
        if not np.array_equal(ACT[RA[r]], MA[ACT[r][None, :], ACT]):
            raise InvalidConstruction(f"module action not additive in the ring (witness {r})")
        if not np.array_equal(ACT[r][MA], MA[np.ix_(ACT[r], ACT[r])]):
            raise InvalidConstruction(f"module action not additive in the module (witness {r})")


def entrywise_zn_quotient_module(n: int, m: int) -> dict:
    """Tables of Z_m as a Z_n-module, entry by entry."""
    return {
        "add": tuple(tuple((a + b) % m for b in range(m)) for a in range(m)),
        "neg": tuple((-a) % m for a in range(m)),
        "act": tuple(tuple((r * x) % m for x in range(m)) for r in range(n)),
        "names": tuple(str(a) for a in range(m)),
    }


def exhaustive_unital_ring_on(parent, members):
    """Identity by search over the members, then additive closure pair by
    pair, before the induced ring is built."""
    ms = sorted(set(members))
    if parent.zero not in ms:
        raise NotASubring("subset misses the zero element")
    sset = set(ms)
    add, mul = as_lists(parent.add_array), as_lists(parent.mul_array)
    one = None
    for e in ms:
        if all(mul[e][a] == a and mul[a][e] == a for a in ms):
            one = e
            break
    if one is None:
        raise InvalidConstruction("subset has no internal identity element")
    for a in ms:
        if any(add[a][b] not in sset for b in ms):
            raise NotASubring(f"subset not additively closed (witness {a})")
    return _induced_ring(parent, ms, one, "unital_subring")


def brute_additive_span(add, zero: int, seed_mask: int) -> int:
    """Smallest additive subgroup holding the seeds: add every pairwise sum
    until nothing changes.  `add` is the addition as nested lists."""
    members = {zero} | {x for x in range(len(add)) if seed_mask >> x & 1}
    while True:
        grown = members | {add[a][b] for a in members for b in members}
        if grown == members:
            return sum(1 << x for x in members)
        members = grown


def relabelled_ring(ring, at):
    """The same ring with element x stored at index at[x], built and
    validated from its tables."""
    n = ring.size
    ring_add, ring_mul = as_lists(ring.add_array), as_lists(ring.mul_array)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    names = [""] * n
    for a in range(n):
        names[at[a]] = ring.names[a]
        for b in range(n):
            add[at[a]][at[b]] = at[ring_add[a][b]]
            mul[at[a]][at[b]] = at[ring_mul[a][b]]
    return ring_from_tables(add, mul, at[ring.zero], at[ring.one], names)


# --- display labels, by the search the library used before its principal
# spans and memo


def ideal_label(ring, mask: int) -> str:
    """Deterministic display label: a smallest generating set in angle
    brackets when one of size <= 2 exists, else the member list."""
    if mask == ring.zero_mask:
        return "<0>"
    nonzero = [x for x in mask_members(mask) if x != ring.zero]
    lm = ring.left_multiple_masks
    for x in nonzero:
        if additive_span(ring, lm[x]) == mask:
            return f"<{ring.names[x]}>"
    for x, y in itertools.combinations(nonzero, 2):
        if additive_span(ring, lm[x] | lm[y]) == mask:
            return f"<{ring.names[x]},{ring.names[y]}>"
    return "{" + ",".join(ring.names[x] for x in mask_members(mask)) + "}"


def brute_left_ideal_masks(ring) -> set[int]:
    """All left ideal masks by scanning subsets whose size divides |R|."""
    n = ring.size
    zero = ring.zero
    others = [x for x in range(n) if x != zero]
    add, mul = as_lists(ring.add_array), as_lists(ring.mul_array)
    found = set()
    for d in divisors(n):
        for combo in itertools.combinations(others, d - 1):
            members = (zero,) + combo
            mask = 0
            for x in members:
                mask |= 1 << x
            closed = all(
                mask >> add[x][y] & 1 for x in members for y in members
            )
            if not closed:
                continue
            absorbing = all(
                mask >> mul[r][x] & 1 for r in range(n) for x in members
            )
            if absorbing:
                found.add(mask)
    return found


def is_graded(grading, mask: int) -> bool:
    """A subset is graded when it holds every homogeneous part of each of
    its members: the member walk the library's count test replaced."""
    return all(
        mask >> part & 1
        for x in mask_members(mask)
        for _, part in grading.decomposition[x]
    )


def brute_graded_left_ideal_masks(ring, grading) -> set[int]:
    """Left ideals all of whose members decompose inside the ideal."""
    return {mask for mask in brute_left_ideal_masks(ring) if is_graded(grading, mask)}


def brute_submodule_masks(module) -> set[int]:
    n = module.size
    zero = module.zero
    add, act = as_lists(module.add_array), as_lists(module.act_array)
    others = [x for x in range(n) if x != zero]
    found = set()
    for d in divisors(n):
        for combo in itertools.combinations(others, d - 1):
            members = (zero,) + combo
            mask = 0
            for x in members:
                mask |= 1 << x
            if not all(
                mask >> add[x][y] & 1 for x in members for y in members
            ):
                continue
            if all(
                mask >> act[r][x] & 1
                for r in range(module.ring.size)
                for x in members
            ):
                found.add(mask)
    return found


# --- the Python loops over table rows that the library's readers replaced
# with array gathers, kept as they were


def relabelled_grading(grading, at):
    """The same grading on relabelled_ring(grading.ring, at)."""
    ring = relabelled_ring(grading.ring, at)
    components = {
        deg: sum(1 << at[x] for x in mask_members(mask))
        for deg, mask in grading.components.items()
    }
    return validate_grading(ring, grading.grades, components)


def span_of_products(grading, ds: int, dt: int) -> int:
    ring = grading.ring
    right = mask_members(grading.component(dt))
    products = set()
    for a in mask_members(grading.component(ds)):
        row = as_lists(ring.mul_array[a])
        products.update([row[b] for b in right])
    prod_mask = 0
    for p in products:
        prod_mask |= 1 << p
    return additive_span(ring, prod_mask)


def is_sigma_faithful(grading, sigma: int) -> bool:
    ring = grading.ring
    g = grading.grades
    mul = as_lists(ring.mul_array)
    for tau in grading.support:
        left = mask_members(grading.component(g.op(sigma, g.inv(tau))))
        for x in mask_members(grading.component(tau)):
            if x == ring.zero:
                continue
            if all(mul[a][x] == ring.zero for a in left):
                return False
    return True


def ideal_product(ring, a_mask: int, b_mask: int) -> int:
    seed = 0
    mul = as_lists(ring.mul_array)
    for a in mask_members(a_mask):
        row = mul[a]
        for b in mask_members(b_mask):
            seed |= 1 << row[b]
    return additive_span(ring, seed)


def is_unit(ring, x: int) -> bool:
    row, column = as_lists(ring.mul_array[x]), as_lists(ring.mul_array[:, x])
    for y in range(ring.size):
        if row[y] == ring.one and column[y] == ring.one:
            return True
    return False


def is_nilpotent(ring, x: int) -> bool:
    column = as_lists(ring.mul_array[:, x])
    seen = set()
    p = x
    while p not in seen:
        if p == ring.zero:
            return True
        seen.add(p)
        p = column[p]
    return False


def is_graded_domain(grading) -> bool:
    ring = grading.ring
    if not ring.commutative:
        return False
    hom = sorted(
        {x for cm in grading.components.values() for x in mask_members(cm) if x != ring.zero}
    )
    mul = as_lists(ring.mul_array)
    return all(mul[a][b] != ring.zero for a in hom for b in hom)


def first_unembedded_pair(base, ring, embed):
    """The groupring_example witness: the first pair of base elements whose
    sum or product `embed` does not carry into the ring."""
    badd, bmul = as_lists(base.add_array), as_lists(base.mul_array)
    radd, rmul = as_lists(ring.add_array), as_lists(ring.mul_array)
    for a in range(base.size):
        for b in range(base.size):
            if (
                embed[badd[a][b]] != radd[embed[a]][embed[b]]
                or embed[bmul[a][b]] != rmul[embed[a]][embed[b]]
            ):
                return a, b
    return None


def pair_mask(module, i_mask: int, n_mask: int) -> int:
    out = 0
    for r in mask_members(i_mask):
        for m in mask_members(n_mask):
            out |= 1 << (r * module.size + m)
    return out


def compatible_pairs(module, base_family, module_family) -> dict:
    """The lemma17 expected set: pair mask -> (ideal, submodule) for each
    ideal moving the whole module into the submodule."""
    act = module.act_array.tolist()
    expected = {}
    for bi in base_family:
        for sm_mask in module_family:
            if all(
                sm_mask >> act[r][m] & 1
                for r in bi.members
                for m in range(module.size)
            ):
                expected[pair_mask(module, bi.mask, sm_mask)] = (
                    bi.mask,
                    sm_mask,
                )
    return expected


# --- entrywise constructor tables: every sum and product one entry at a time,
# with elements as coefficient tuples packed as base-|base| digits, low first


def index_to_digits(idx: int, radix: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(idx % radix)
        idx //= radix
    return tuple(out)


def digits_to_index(digits, radix: int) -> int:
    idx = 0
    for d in reversed(digits):
        idx = idx * radix + d
    return idx


def pmul(base, modulus, a, b) -> tuple[int, ...]:
    """Schoolbook product of two coefficient tuples, reduced by the monic
    modulus from the top degree down."""
    d = len(modulus) - 1
    badd, bmul = as_lists(base.add_array), as_lists(base.mul_array)
    bneg, bzero = base.neg, base.zero
    prod = [bzero] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = badd[prod[i + j]][bmul[ai][bj]]
    for k in range(2 * d - 2, d - 1, -1):
        c, prod[k] = prod[k], bzero
        for i in range(d):
            prod[k - d + i] = badd[prod[k - d + i]][bneg[bmul[c][modulus[i]]]]
    return tuple(prod[:d])


def gmul(base, group, a, b) -> tuple[int, ...]:
    op = as_lists(group.op_array)
    badd, bmul = as_lists(base.add_array), as_lists(base.mul_array)
    out = [base.zero] * group.size
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            k = op[i][j]
            out[k] = badd[out[k]][bmul[ci][cj]]
    return tuple(out)


def vmul(n: int, table, a, b) -> tuple[int, ...]:
    dim = len(table)
    acc = [0] * dim
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k in range(dim):
                acc[k] = (acc[k] + ai * bj * table[i][j][k]) % n
    return tuple(acc)


def sheared_structure(n: int, table, shifts) -> list:
    """Structure constants over Z_n in the basis b_0 = e_0, b_i = e_i +
    shifts[i-1] e_0, by expanding b_i b_j bilinearly in the e basis and
    writing the result back in the b basis (w_0 = v_0 - sum k_t v_t)."""
    d = len(table)
    k = [0] + list(shifts)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            v = [
                table[i][j][t] + k[j] * table[i][0][t] + k[i] * table[0][j][t]
                + k[i] * k[j] * table[0][0][t]
                for t in range(d)
            ]
            w = [x % n for x in v]
            w[0] = (v[0] - sum(k[t] * v[t] for t in range(1, d))) % n
            row.append(w)
        out.append(row)
    return out


def _entrywise_tables(base_add, base_neg, radix: int, dim: int, product) -> dict:
    elems = [index_to_digits(i, radix, dim) for i in range(radix**dim)]
    return {
        "size": len(elems),
        "elems": elems,
        "add": [
            [digits_to_index([base_add[x][y] for x, y in zip(ea, eb)], radix) for eb in elems]
            for ea in elems
        ],
        "mul": [[digits_to_index(product(ea, eb), radix) for eb in elems] for ea in elems],
        "neg": [digits_to_index([base_neg[x] for x in ea], radix) for ea in elems],
    }


def _join_terms(terms) -> str:
    return "+".join(terms) if terms else "0"


def entrywise_polynomial_quotient(base, modulus) -> dict:
    d = len(modulus) - 1
    out = _entrywise_tables(
        as_lists(base.add_array), base.neg, base.size, d, lambda a, b: pmul(base, modulus, a, b)
    )

    def term(c, k):
        name = base.names[c]
        xpow = "x" if k == 1 else f"x^{k}"
        return name if k == 0 else (xpow if name == "1" else name + xpow)

    out["names"] = [
        _join_terms([term(c, k) for k, c in reversed(list(enumerate(e))) if c != base.zero])
        for e in out["elems"]
    ]
    out["zero"] = digits_to_index([base.zero] * d, base.size)
    out["one"] = digits_to_index([base.one] + [base.zero] * (d - 1), base.size)
    out["construction"] = {"kind": "poly_quotient", "modulus": list(modulus)}
    return out


def entrywise_group_ring(base, group) -> dict:
    g = group.size
    out = _entrywise_tables(
        as_lists(base.add_array), base.neg, base.size, g, lambda a, b: gmul(base, group, a, b)
    )

    def term(c, k):
        name = base.names[c]
        if k == group.identity:
            return name
        return group.names[k] if name == "1" else name + group.names[k]

    out["names"] = [
        _join_terms([term(c, k) for k, c in enumerate(e) if c != base.zero])
        for e in out["elems"]
    ]
    one = [base.zero] * g
    one[group.identity] = base.one
    out["zero"] = digits_to_index([base.zero] * g, base.size)
    out["one"] = digits_to_index(one, base.size)
    out["construction"] = {"kind": "group_ring", "base": base.construction}
    return out


def entrywise_algebra_over_zn(n: int, table, basis) -> dict:
    dim = len(table)
    tab = [[[c % n for c in cell] for cell in row] for row in table]
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    neg = [(-a) % n for a in range(n)]
    out = _entrywise_tables(add, neg, n, dim, lambda a, b: vmul(n, tab, a, b))
    out["names"] = [
        _join_terms([basis[i] if c == 1 else f"{c}{basis[i]}" for i, c in enumerate(e) if c])
        for e in out["elems"]
    ]
    out["zero"], out["one"] = 0, 1
    out["construction"] = {"kind": "algebra", "n": n, "dim": dim, "table": tab, "basis": list(basis)}
    return out


def entrywise_idealization(base, module) -> dict:
    """(r, m) at index r*|M| + m, with (r, m)(r', m') = (rr', r.m' + r'.m)."""
    pairs = [(r, m) for r in range(base.size) for m in range(module.size)]
    k = module.size
    add, act = as_lists(module.add_array), as_lists(module.act_array)
    badd, bmul = as_lists(base.add_array), as_lists(base.mul_array)
    return {
        "add": [[badd[r][s] * k + add[m][p] for s, p in pairs] for r, m in pairs],
        "mul": [
            [bmul[r][s] * k + add[act[r][p]][act[s][m]] for s, p in pairs]
            for r, m in pairs
        ],
        "neg": [base.neg[r] * k + module.neg[m] for r, m in pairs],
    }


def brute_left_multiple_masks(ring) -> list[int]:
    """Mask of R*x for every x, one product at a time."""
    mul = as_lists(ring.mul_array)
    return [sum({1 << mul[r][x] for r in range(ring.size)}) for x in range(ring.size)]


def first_escaping_product(ring, grades, comps):
    """The grading product check as a plain loop: the first pair of nonzero
    homogeneous elements, over sorted degree pairs and ascending members,
    whose product leaves its degree's component; None when none does."""
    degs = sorted(d for d, mask in comps.items() if mask != 1 << ring.zero)
    members = {d: [x for x in range(ring.size) if comps[d] >> x & 1 and x != ring.zero] for d in degs}
    mul = as_lists(ring.mul_array)
    for ds, dt in itertools.product(degs, repeat=2):
        target = comps.get(grades.op(ds, dt), 1 << ring.zero)
        for a in members[ds]:
            for b in members[dt]:
                if not target >> mul[a][b] & 1:
                    return a, b, grades.op(ds, dt)
    return None


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
