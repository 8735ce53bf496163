"""Finite rings, groups, and modules as explicit operation tables.

Every carrier is the index range 0..size-1; operations are dense tables
(tuples of tuples), so all algebra below is table lookups.  Constructors
validate the complete ring axiom set before returning, which means
downstream code never has to re-check algebra laws.  The cubic laws are
checked on an additive generating set S of at most log2(n) elements
rather than on every triple: Light's test for associativity of `+`,
distributivity with one argument in S, and associativity of `*` on S^3,
which suffices because the associator is additive in each argument.  That
makes validation O(n^2 log n).  Subrings skip validation altogether: a
subset of a validated ring that is closed under `+`, `*` and negation is
a ring already, so only its unity and commutativity are settled.  Subsets
of a carrier travel as int bitmasks (bit i set = element i present), which
keeps the lattice and graph code allocation-free.

Tables are filled with numpy, never entry by entry.  Polynomial quotients,
algebras over Z_n and group rings are all base^d with a bilinear product
and share one constructor, `free_algebra`, which computes the product rows
of the monomials c*e_i and fills the other rows by additive extension.
Frozen tables draw every entry from one list of n shared ints, so an n x n
table costs n^2 pointers rather than n^2 int objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidConstruction, NotASubring, SizeLimit

MAX_RING_SIZE = 1024


# ---------------------------------------------------------------------------
# bitmask helpers


def mask_members(mask: int) -> list[int]:
    """Set bits in increasing order, peeling the lowest one each step."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# table validation


def _as_table(table, n: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError):
        raise InvalidConstruction(f"{what} table must be {n}x{n} integers")
    if arr.shape != (n, n):
        raise InvalidConstruction(f"{what} table must be {n}x{n}, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise InvalidConstruction(f"{what} table has entries outside 0..{n - 1}")
    return arr


def _validate_abelian_group(
    add, zero: int, neg, n: int, what: str
) -> tuple[np.ndarray, list[int]]:
    """Abelian group check; returns the table and an additive generating set.

    Generators are chosen greedily: the first element not yet reached from
    `zero` by adding chosen generators on the right.  Each one must pass
    Light's test, (x+s)+y == x+(s+y) for all x, y, before it is used; the
    elements passing that test are closed under `+`, and every element is a
    sum of generators, so `+` is associative.  A generator that passes also
    makes the reached set at least double, hence at most log2(n) of them.
    """
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
    gens: list[int] = []
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    while not reached.all():
        s = int(np.argmin(reached))
        # row x of each side: (x+s)+y and x+(s+y) over all y
        bad = A[A[:, s]] != A[:, A[s]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise InvalidConstruction(
                f"{what} addition not associative (witness ({x}+{s})+{y})"
            )
        gens.append(s)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = A[frontier, s]
            frontier = step[~reached[step]]
            reached[frontier] = True
    return A, gens


def _validate_ring_tables(add, mul, zero: int, one: int, neg, n: int) -> bool:
    """Full ring axiom check; returns the commutativity flag.

    With `+` an abelian group generated by S, distributivity in the second
    argument ranging over S extends to all of R, and the associator
    (xy)z - x(yz) is then additive in each argument, so associativity of `*`
    needs checking on S x S x S only.
    """
    if one == zero:
        raise InvalidConstruction("unity must differ from zero")
    A, gens = _validate_abelian_group(add, zero, neg, n, "ring")
    M = _as_table(mul, n, "ring multiplication")
    if not np.array_equal(M[one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not left-neutral")
    if not np.array_equal(M[:, one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not right-neutral")
    for s in gens:
        # a*(b+s) == a*b + a*s, rows a and columns b
        bad = M[:, A[s]] != A[M, M[:, s, None]]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise InvalidConstruction(
                f"left distributivity fails (witness {a}*({b}+{s}))"
            )
        # (b+s)*a == b*a + s*a, rows b and columns a
        bad = M[A[s]] != A[M, M[s]]
        if bad.any():
            b, a = np.argwhere(bad)[0]
            raise InvalidConstruction(
                f"right distributivity fails (witness ({b}+{s})*{a})"
            )
    G = np.asarray(gens)
    P = M[np.ix_(G, G)]
    bad = M[P][:, :, G] != M[G][:, P]
    if bad.any():
        x, y, z = G[np.argwhere(bad)[0]]
        raise InvalidConstruction(
            f"multiplication not associative (witness ({x}*{y})*{z})"
        )
    return bool(np.array_equal(M, M.T))


def _freeze(table) -> tuple[tuple[int, ...], ...]:
    """An n x n table over 0..n-1 as tuples of shared ints: each row points
    into one list of n int objects instead of owning n of its own."""
    arr = np.asarray(table)
    ints = list(range(len(arr)))
    return tuple(tuple(map(ints.__getitem__, row.tolist())) for row in arr)


# ---------------------------------------------------------------------------
# groups


@dataclass(eq=False)
class FiniteGroup:
    size: int
    op: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    names: tuple[str, ...]


def cyclic_group(k: int) -> FiniteGroup:
    if k < 1:
        raise InvalidConstruction("cyclic group order must be positive")
    g = np.arange(k)
    op = _freeze((g[:, None] + g) % k)
    inv = tuple((-g % k).tolist())
    names = tuple("e" if a == 0 else ("g" if a == 1 else f"g^{a}") for a in range(k))
    return FiniteGroup(size=k, op=op, identity=0, inv=inv, names=names)


def group_from_table(op, names: Sequence[str] | None = None) -> FiniteGroup:
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
    return FiniteGroup(size=n, op=_freeze(T), identity=identity, inv=tuple(inv), names=names)


def is_subgroup(group: FiniteGroup, members: Iterable[int]) -> bool:
    """Closure test; in a finite group, op-closure of a set containing the
    identity already implies inverses."""
    s = set(members)
    if group.identity not in s:
        return False
    return all(group.op[a][b] in s for a in s for b in s)


# ---------------------------------------------------------------------------
# rings


@dataclass(eq=False)
class FiniteRing:
    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    neg: tuple[int, ...]
    commutative: bool
    construction: dict
    names: tuple[str, ...]
    # live sub-objects for composite constructors (base ring, group, module,
    # factors, parent + embedding); never serialized, never compared
    parts: dict = field(default_factory=dict, repr=False)
    # display label by ideal mask, filled by ideal_lattice.ideal_label; it
    # holds only ints and strings, so it never points back at the ring
    label_memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def zero_mask(self) -> int:
        return 1 << self.zero

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    @cached_property
    def left_multiple_masks(self) -> tuple[int, ...]:
        """mask of R*x for every x; the building block of left ideals."""
        n = self.size
        hit = np.zeros((n, n), dtype=bool)
        hit[np.arange(n), np.asarray(self.mul)] = True  # hit[x, r*x]
        packed = np.packbits(hit, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def span_extend(add, base_mask: int, base_members: list[int], extra_mask: int) -> int:
    """Additive span of a closed subgroup H (mask and member list) and extras.

    Coset stepping: for each extra g not yet reached, H + <g> is the union
    of the cosets H + kg, and the first k with kg in H ends the chain, so
    every coset added before it is new.  The next coset is the previous one
    shifted by g.  Extras already reached are skipped as a mask, so a span
    costs O(|result|) table lookups plus one bitmask step per generator used.
    """
    mask = base_mask
    members = list(base_members)
    pending = extra_mask & ~mask
    while pending:
        g = (pending & -pending).bit_length() - 1
        row = add[g]
        coset = members
        while not mask >> row[coset[0]] & 1:
            coset = [row[y] for y in coset]
            for y in coset:
                mask |= 1 << y
            members += coset
        pending &= ~mask
    return mask


def additive_span(ring: FiniteRing, seed_mask: int) -> int:
    """Smallest additive subgroup containing the seed set: the coset-stepping
    extension of {0} by the seeds, O(|result|)."""
    return span_extend(ring.add, ring.zero_mask, [ring.zero], seed_mask)


def is_additive_subgroup(ring: FiniteRing, mask: int) -> bool:
    """A subset is an additive subgroup exactly when it is its own span."""
    return additive_span(ring, mask) == mask


def _finish_ring(
    size: int,
    add,
    mul,
    zero: int,
    one: int,
    neg,
    construction: dict,
    names: Sequence[str],
    parts: dict | None = None,
) -> FiniteRing:
    commutative = _validate_ring_tables(add, mul, zero, one, neg, size)
    return FiniteRing(
        size=size,
        add=_freeze(add),
        mul=_freeze(mul),
        zero=zero,
        one=one,
        neg=tuple(int(x) for x in neg),
        commutative=commutative,
        construction=construction,
        names=tuple(names),
        parts=dict(parts or {}),
    )


def _check_size(size: int, max_size: int) -> None:
    if size > max_size:
        raise SizeLimit(f"carrier size {size} exceeds the cap {max_size}")
    if size < 1:
        raise InvalidConstruction("carrier must be nonempty")


def make_cyclic_ring(n: int, max_size: int = MAX_RING_SIZE) -> FiniteRing:
    """Integers mod n."""
    if n < 2:
        raise InvalidConstruction("modulus must be at least 2 so unity differs from zero")
    _check_size(n, max_size)
    a = np.arange(n)
    add = (a[:, None] + a) % n
    mul = a[:, None] * a % n
    neg = -a % n
    names = [str(x) for x in range(n)]
    return _finish_ring(n, add, mul, 0, 1 % n, neg, {"kind": "zn", "n": n}, names)


def ring_from_tables(
    add,
    mul,
    zero: int,
    one: int,
    names: Sequence[str] | None = None,
    max_size: int = MAX_RING_SIZE,
) -> FiniteRing:
    """Raw tables from outside the package, validated in full; negation is
    recovered by search."""
    n = len(add)
    _check_size(n, max_size)
    to_zero = _as_table(add, n, "ring addition") == zero
    has_inverse = to_zero.any(axis=1)
    if not has_inverse.all():
        raise InvalidConstruction(
            f"element {np.argmin(has_inverse)} has no additive inverse"
        )
    neg = to_zero.argmax(axis=1)
    if names is None:
        names = [str(a) for a in range(n)]
    return _finish_ring(n, add, mul, zero, one, neg, {"kind": "table"}, names)


def direct_product(
    left: FiniteRing, right: FiniteRing, max_size: int = MAX_RING_SIZE
) -> FiniteRing:
    """Componentwise product; element (r, s) sits at index r*|S| + s."""
    n1, n2 = left.size, right.size
    n = n1 * n2
    _check_size(n, max_size)
    A1 = np.asarray(left.add)
    A2 = np.asarray(right.add)
    M1 = np.asarray(left.mul)
    M2 = np.asarray(right.mul)
    r = np.repeat(np.arange(n1), n2)
    s = np.tile(np.arange(n2), n1)
    add = A1[np.ix_(r, r)] * n2 + A2[np.ix_(s, s)]
    mul = M1[np.ix_(r, r)] * n2 + M2[np.ix_(s, s)]
    neg = np.asarray(left.neg)[r] * n2 + np.asarray(right.neg)[s]
    zero = left.zero * n2 + right.zero
    one = left.one * n2 + right.one
    names = [f"({left.names[a]},{right.names[b]})" for a in range(n1) for b in range(n2)]
    return _finish_ring(
        n,
        add,
        mul,
        zero,
        one,
        neg,
        {"kind": "product", "left": left.construction, "right": right.construction},
        names,
        parts={"left": left, "right": right},
    )


def _digit_array(radix: int, dim: int) -> np.ndarray:
    """digits[x, k] is coordinate k of element x: base-`radix` digits, low first."""
    return np.arange(radix**dim)[:, None] // radix ** np.arange(dim) % radix


def _linear_names(
    base: FiniteRing,
    dim: int,
    basis: Sequence[str],
    bare: int | None = None,
    descending: bool = False,
) -> list[str]:
    """Names of the elements of base^dim as sums of coefficient-basis terms.

    Zero terms are left out; a coefficient named "1" shows the basis name
    alone, and a term on basis index `bare` shows the coefficient alone.
    """
    order = range(dim - 1, -1, -1) if descending else range(dim)

    def term(c: int, k: int) -> str:
        cname = base.names[c]
        if k == bare:
            return cname
        return basis[k] if cname == "1" else f"{cname}{basis[k]}"

    return [
        "+".join(term(row[k], k) for k in order if row[k] != base.zero) or "0"
        for row in _digit_array(base.size, dim).tolist()
    ]


def free_algebra(
    base: FiniteRing,
    structure,
    unit: int,
    construction: dict,
    names: Sequence[str],
    parts: dict | None = None,
) -> FiniteRing:
    """The free base-module on e_0..e_{d-1} with a bilinear product.

    structure[i][j][k] is coefficient k (a base index) of e_i*e_j, and
    (sum a_i e_i)(sum b_j e_j) = sum_k (sum_ij (a_i b_j) structure[i][j][k]) e_k;
    base.one*e_unit must be the unity.  An element is its coefficient vector
    packed as base-|base| digits, low coordinate first.  Addition and
    negation are digitwise gathers.  The product rows of the monomials c*e_i
    are computed over all right operands at once; every other row follows by
    additive extension, (low + c*e_k)*b = c*e_k*b + low*b, where `low` runs
    over the elements whose digits from k up are zero, one gather per digit.
    """
    S = np.asarray(structure, dtype=np.int64)
    d = len(S)
    r, z = base.size, base.zero
    n = r**d
    digits = _digit_array(r, d)
    weights = r ** np.arange(d)
    BA, BM = np.asarray(base.add), np.asarray(base.mul)
    add = sum(BA[digits[:, None, k], digits[None, :, k]] * weights[k] for k in range(d))
    neg = np.asarray(base.neg)[digits] @ weights
    cb = BM[:, digits]  # cb[c, b, j] = c * b_j
    mono = []
    for i in range(d):
        terms = BM[cb[..., None], S[i]]  # (c * b_j) * structure[i][j][k]
        coeff = terms[:, :, 0]
        for j in range(1, d):
            coeff = BA[coeff, terms[:, :, j]]
        mono.append(coeff @ weights)  # mono[i][c] is the row of c*e_i
    zero = int(z * weights.sum())
    mul = np.empty((n, n), dtype=np.int64)
    mul[zero] = zero
    low = np.array([zero])
    for k in range(d):
        rows = low + ((np.arange(r) - z) * weights[k])[:, None]
        mul[rows] = add[mono[k][:, None, :], mul[low]]
        low = rows.ravel()
    one = zero + int((base.one - z) * weights[unit])
    return _finish_ring(n, add, mul, zero, one, neg, construction, names, parts)


def polynomial_quotient(
    base: FiniteRing, modulus: Sequence[int], max_size: int = MAX_RING_SIZE
) -> FiniteRing:
    """base[x] modulo a monic polynomial.

    `modulus` lists base-element indices for coefficients in increasing
    degree order; the last entry must be the unity (monic) and the degree at
    least 1.  Elements are coefficient tuples of length deg(modulus), again
    low degree first, packed as base-|base| digits.
    """
    if not base.commutative:
        raise InvalidConstruction("polynomial quotients need a commutative base")
    d = len(modulus) - 1
    if d < 1:
        raise InvalidConstruction("modulus degree must be at least 1")
    if modulus[-1] != base.one:
        raise InvalidConstruction("modulus must be monic")
    for c in modulus:
        if not 0 <= c < base.size:
            raise InvalidConstruction("modulus coefficient out of range")
    _check_size(base.size**d, max_size)
    badd, bmul, bneg, bzero = base.add, base.mul, base.neg, base.zero
    # x^m reduced for m < 2d-1: x^(m+1) = x*x^m, and x^d = -(low part of modulus)
    powers = [[base.one if k == m else bzero for k in range(d)] for m in range(d)]
    for _ in range(d - 1):
        top = powers[-1][-1]
        shifted = [bzero] + powers[-1][:-1]
        powers.append(
            [badd[s][bneg[bmul[top][c]]] for s, c in zip(shifted, modulus[:d])]
        )
    structure = [[powers[i + j] for j in range(d)] for i in range(d)]
    basis = ["1", "x"] + [f"x^{k}" for k in range(2, d)]
    return free_algebra(
        base,
        structure,
        0,
        {"kind": "poly_quotient", "modulus": [int(c) for c in modulus]},
        _linear_names(base, d, basis, bare=0, descending=True),
        parts={"base": base},
    )


def algebra_over_zn(
    n: int,
    dim: int,
    table: Sequence[Sequence[Sequence[int]]],
    basis_names: Sequence[str] | None = None,
    max_size: int = MAX_RING_SIZE,
) -> FiniteRing:
    """Free Z_n-module on `dim` basis elements with bilinear multiplication.

    table[i][j] is the coefficient vector (length dim, entries mod n) of the
    product of basis elements i and j.  Basis element 0 must act as unity;
    that is enforced by the table validation.  Element index packs the
    coefficient vector as base-n digits, low coordinate first.
    """
    if n < 2 or dim < 1:
        raise InvalidConstruction("need modulus >= 2 and at least one basis element")
    _check_size(n**dim, max_size)
    if len(table) != dim or any(len(row) != dim for row in table):
        raise InvalidConstruction(f"structure table must be {dim}x{dim}")
    tab = []
    for row in table:
        tab.append([tuple(int(c) % n for c in cell) for cell in row])
        for cell in tab[-1]:
            if len(cell) != dim:
                raise InvalidConstruction("structure table cell has wrong length")
    if basis_names is None:
        basis_names = [f"b{i}" for i in range(dim)]
    basis_names = list(basis_names)
    if len(basis_names) != dim:
        raise InvalidConstruction("basis names length mismatch")
    base = make_cyclic_ring(n, max_size)
    return free_algebra(
        base,
        tab,
        0,
        {
            "kind": "algebra",
            "n": n,
            "dim": dim,
            "table": [[list(cell) for cell in row] for row in tab],
            "basis": basis_names,
        },
        _linear_names(base, dim, basis_names),
    )


def group_ring(
    base: FiniteRing, group: FiniteGroup, max_size: int = MAX_RING_SIZE
) -> FiniteRing:
    """Formal base-linear combinations of group elements.

    An element is the coefficient tuple indexed by group position, packed as
    base-|base| digits (coefficient of group element k is digit k).
    """
    g = group.size
    _check_size(base.size**g, max_size)
    structure = [
        [[base.one if k == group.op[i][j] else base.zero for k in range(g)] for j in range(g)]
        for i in range(g)
    ]
    return free_algebra(
        base,
        structure,
        group.identity,
        {"kind": "group_ring", "base": base.construction},
        _linear_names(base, g, group.names, bare=group.identity),
        parts={"base": base, "group": group},
    )


# ---------------------------------------------------------------------------
# modules and idealization


@dataclass(eq=False)
class FiniteModule:
    ring: FiniteRing
    size: int
    add: tuple[tuple[int, ...], ...]
    zero: int
    neg: tuple[int, ...]
    act: tuple[tuple[int, ...], ...]  # act[r][m] = r.m
    names: tuple[str, ...]
    construction: dict


def _validate_module(mod: FiniteModule) -> None:
    n, m = mod.ring.size, mod.size
    MA, _ = _validate_abelian_group(mod.add, mod.zero, mod.neg, m, "module")
    ACT = np.asarray(mod.act, dtype=np.int64)
    if ACT.shape != (n, m) or (ACT.size and (ACT.min() < 0 or ACT.max() >= m)):
        raise InvalidConstruction("module action table malformed")
    if not np.array_equal(ACT[mod.ring.one], np.arange(m)):
        raise InvalidConstruction("unity does not act as identity on the module")
    RA = np.asarray(mod.ring.add)
    RM = np.asarray(mod.ring.mul)
    for r in range(n):
        if not np.array_equal(ACT[r][ACT], ACT[RM[r]]):
            raise InvalidConstruction(f"module action not associative (witness {r})")
        if not np.array_equal(ACT[RA[r]], MA[ACT[r][None, :], ACT]):
            raise InvalidConstruction(f"module action not additive in the ring (witness {r})")
        if not np.array_equal(ACT[r][MA], MA[np.ix_(ACT[r], ACT[r])]):
            raise InvalidConstruction(f"module action not additive in the module (witness {r})")


def module_self(ring: FiniteRing) -> FiniteModule:
    """The ring acting on itself by left multiplication."""
    mod = FiniteModule(
        ring=ring,
        size=ring.size,
        add=ring.add,
        zero=ring.zero,
        neg=ring.neg,
        act=ring.mul,
        names=ring.names,
        construction={"kind": "self"},
    )
    _validate_module(mod)
    return mod


def module_zn_quotient(ring: FiniteRing, m: int) -> FiniteModule:
    """Z_m as a module over Z_n, for m dividing n."""
    if ring.construction.get("kind") != "zn":
        raise InvalidConstruction("quotient modules are only defined over integers mod n")
    n = ring.construction["n"]
    if m < 1 or n % m != 0:
        raise InvalidConstruction(f"modulus {m} must divide {n}")
    mod = FiniteModule(
        ring=ring,
        size=m,
        add=tuple(tuple((a + b) % m for b in range(m)) for a in range(m)),
        zero=0,
        neg=tuple((-a) % m for a in range(m)),
        act=tuple(tuple((r * x) % m for x in range(m)) for r in range(ring.size)),
        names=tuple(str(a) for a in range(m)),
        construction={"kind": "zn_quotient", "m": m},
    )
    _validate_module(mod)
    return mod


def idealization(
    base: FiniteRing, module: FiniteModule, max_size: int = MAX_RING_SIZE
) -> FiniteRing:
    """Square-zero extension of a commutative base by a module.

    Carrier is pairs (r, m) at index r*|M| + m, with multiplication
    (r, m)(r', m') = (rr', r.m' + r'.m); the module part multiplies to zero.
    """
    if module.ring is not base:
        raise InvalidConstruction("module is not over the given base ring")
    if not base.commutative:
        raise InvalidConstruction("idealization needs a commutative base")
    n1, n2 = base.size, module.size
    n = n1 * n2
    _check_size(n, max_size)
    MA = np.asarray(module.add)
    ACT = np.asarray(module.act)
    r = np.repeat(np.arange(n1), n2)[:, None]
    m = np.tile(np.arange(n2), n1)[:, None]
    add = np.asarray(base.add)[r, r.T] * n2 + MA[m, m.T]
    # (r, m)(r', m') = (rr', r.m' + r'.m); rows are (r, m), columns (r', m')
    mul = np.asarray(base.mul)[r, r.T] * n2 + MA[ACT[r, m.T], ACT[r.T, m]]
    neg = np.asarray(base.neg)[r[:, 0]] * n2 + np.asarray(module.neg)[m[:, 0]]
    zero = base.zero * n2 + module.zero
    one = base.one * n2 + module.zero
    names = [
        f"({base.names[r]}|{module.names[m]})" for r in range(n1) for m in range(n2)
    ]
    return _finish_ring(
        n,
        add,
        mul,
        zero,
        one,
        neg,
        {
            "kind": "idealization",
            "base": base.construction,
            "module": module.construction,
        },
        names,
        parts={"base": base, "module": module},
    )


# ---------------------------------------------------------------------------
# subrings


def _induced_ring(
    parent: FiniteRing, members: list[int], one_parent: int, kind: str
) -> tuple[FiniteRing, tuple[int, ...]]:
    """The ring structure a validated parent induces on a subset.

    A subset containing zero and closed under `+`, `*` and negation inherits
    every axiom from the parent, and `one_parent` is two-sided neutral on it
    by the callers' choice, so the tables are not validated again.
    """
    sub = np.asarray(members, dtype=np.int64)
    index_of = np.full(parent.size, -1, dtype=np.int64)
    index_of[sub] = np.arange(len(members))
    add = index_of[np.asarray([parent.add[a] for a in members])[:, sub]]
    mul = index_of[np.asarray([parent.mul[a] for a in members])[:, sub]]
    escapes = (add < 0) | (mul < 0)
    if escapes.any():
        a, b = sub[np.argwhere(escapes)[0]]
        raise NotASubring(f"subset not closed under operations (witness {a}, {b})")
    neg = index_of[np.asarray(parent.neg)[sub]]
    if (neg < 0).any():
        raise NotASubring(
            f"subset not closed under negation (witness {sub[np.argmax(neg < 0)]})"
        )
    if one_parent == parent.zero:
        raise InvalidConstruction("unity must differ from zero")
    embedding = tuple(members)
    ring = FiniteRing(
        size=len(members),
        add=_freeze(add),
        mul=_freeze(mul),
        zero=int(index_of[parent.zero]),
        one=int(index_of[one_parent]),
        neg=tuple(neg.tolist()),
        commutative=bool(np.array_equal(mul, mul.T)),
        construction={"kind": kind, "members": list(members)},
        names=tuple(parent.names[p] for p in members),
        parts={"parent": parent, "embedding": embedding},
    )
    return ring, embedding


def subring_on(
    parent: FiniteRing, members: Iterable[int]
) -> tuple[FiniteRing, tuple[int, ...]]:
    """Unital subring on a subset containing 0 and 1; returns the induced
    ring plus the embedding (new index -> parent index)."""
    ms = sorted(set(members))
    if parent.zero not in ms:
        raise NotASubring("subset misses the zero element")
    if parent.one not in ms:
        raise NotASubring("subset misses the unity")
    return _induced_ring(parent, ms, parent.one, "subring")


def unital_ring_on(
    parent: FiniteRing, members: Iterable[int]
) -> tuple[FiniteRing, tuple[int, ...]]:
    """Closed subset that is a ring with its own identity (found by search);
    the identity need not be the parent's unity.  This is how a direct-sum
    factor of a ring becomes a ring in its own right."""
    ms = sorted(set(members))
    if parent.zero not in ms:
        raise NotASubring("subset misses the zero element")
    sset = set(ms)
    one = None
    for e in ms:
        if all(parent.mul[e][a] == a and parent.mul[a][e] == a for a in ms):
            one = e
            break
    if one is None:
        raise InvalidConstruction("subset has no internal identity element")
    for a in ms:
        if any(parent.add[a][b] not in sset for b in ms):
            raise NotASubring(f"subset not additively closed (witness {a})")
    return _induced_ring(parent, ms, one, "unital_subring")
