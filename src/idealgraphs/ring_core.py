"""Finite rings, groups, and modules as explicit operation tables.

Every carrier is the index range 0..size-1; operations are dense tables,
so all algebra below is table lookups.  Constructors validate every axiom
before returning, so downstream code never re-checks algebra laws.  Each
axiom costs a fixed number of passes over a table, however many generators
the addition needs.  An addition, of a ring or a module, picks the greedy
generating set S of at most log2(n) elements (each the first element not
yet reached) and steps the cosets of each new generator, its multiples
found by doubling; the layers form `_additive_edges`, the normal-form
spanning tree of (R,+) plus one power relation per generator, n - 1 + |S|
edges.  Associativity of + is proved on that tree in one pass of row
gathers, with the generators' translations checked to commute (the proof
is in `_validate_abelian_group`).  A map out of (R,+) is additive exactly
when it is additive on those edges: every column of `*` is checked by
whole-row gathers, after which left distributivity needs the rows of S
only, and associativity of `*` and of a module action needs S x S x S,
because the associator is additive in each argument.  Group tables, which
need not commute, keep Light's test on each generator in `_generators`,
two row gathers and an n x n comparison per generator; it also names the
witness when an addition fails.  A module is validated where it enters a
ring, in `idealization`, after its size check.  Subrings skip validation
altogether: a subset of a validated ring closed under `+`, `*` and
negation is a ring already.  Subsets of a carrier travel as int bitmasks
(bit i set = element i present), which keeps the lattice and graph code
allocation-free; spans grow them by coset stepping along one row of the
addition array per generator.

Tables are filled with numpy, never entry by entry.  Polynomial quotients,
algebras over Z_n and group rings are all base^d with a bilinear product
and share one constructor, `free_algebra`, which builds the addition as a
direct product of copies of the base and fills the product rows from the
products of monomials by additive extension, one gather per digit; direct
products and idealizations are broadcast outer sums over pairs.  Tables
are stored once, as read-only arrays of the smallest signed dtype holding
n-1 (int16 at the cap): a ring's addition and multiplication, a module's
addition and action, a group's operation.  Every reader gathers from them.

What only some readers need is built on its first read, once.  A ring's
or module's element names come from the naming function its constructor
passes, so a ring that is never printed formats none.  The orbit masks R*x
of a ring fill one table by column: a reader asks for the columns it reads,
and those not built yet are scattered in one pass over that block of the
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidConstruction, NotASubring, SizeLimit

MAX_RING_SIZE = 1024
_BLOCK = 1 << 16  # entries per block of a gather, which bounds its index arrays


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


def _compact_dtype(n: int) -> np.dtype:
    """The smallest signed integer dtype holding 0..n-1 (and -1)."""
    return np.min_scalar_type(-n)


def _as_table(table, n: int, what: str) -> np.ndarray:
    """The table as an n x n array of the compact dtype; an array that
    already has that dtype is range-checked and passed through."""
    dtype = _compact_dtype(n)
    if not (isinstance(table, np.ndarray) and table.dtype == dtype):
        try:
            table = np.asarray(table, dtype=np.int64)
        except (TypeError, ValueError):
            raise InvalidConstruction(f"{what} table must be {n}x{n} integers")
    if table.shape != (n, n):
        raise InvalidConstruction(f"{what} table must be {n}x{n}, got {table.shape}")
    if table.size and (table.min() < 0 or table.max() >= n):
        raise InvalidConstruction(f"{what} table has entries outside 0..{n - 1}")
    return table.astype(dtype, copy=False)


def _refuse(bad: np.ndarray, message: str) -> None:
    """Raise InvalidConstruction naming the first position where `bad` holds."""
    if bad.any():
        raise InvalidConstruction(message.format(*np.argwhere(bad)[0]))


def _generators(
    T: np.ndarray,
    start: int,
    what: str,
    sym: str,
    Tt: np.ndarray | None = None,
) -> list[int]:
    """Greedy generating set of a table's operation, proving it associative.

    Each generator, the first element not reached from the neutral `start`,
    passes Light's test, (x s) y == x (s y) for all x, y, before use; the
    elements that pass are closed under the operation and generate it, so
    all pass.  Both sides are row gathers, x (s y) from `Tt`, T transposed;
    a commutative table, as every addition is, is its own transpose.  The
    reached set, the submagma generated so far, takes the coset H s of a
    new generator and then the products of what is new with the generators
    and with itself, which stay in it; a cyclic run doubles each round.  It
    is closed under every chosen generator, a subgroup H of a group table,
    so there are at most log2(n) generators.
    """
    Tt = T if Tt is None else Tt
    gens: list[int] = []
    reached = np.zeros(len(T), dtype=bool)
    reached[start] = True
    while not reached.all():
        s = int(np.argmin(reached))
        # row x of each side: (x s) y and x (s y) over all y
        bad = T[T[:, s]] != Tt[T[s]].T
        _refuse(bad, f"{what} not associative (witness ({{}}{sym}{s}){sym}{{}})")
        gens.append(s)
        G = np.array(gens)
        step = T[np.flatnonzero(reached), s]
        while True:
            fresh = np.zeros_like(reached)
            fresh[step] = True
            fresh &= ~reached
            if not fresh.any():
                break
            reached |= fresh
            new = np.flatnonzero(fresh)
            step = T[new[:, None], np.concatenate([G, new])]
    return gens


def _identity(T: np.ndarray, members: np.ndarray) -> int | None:
    """Position of the first two-sided neutral member, or None; T is the
    operation gathered on the members, T[i, j] = members[i] * members[j]."""
    neutral = (T == members).all(axis=1) & (T == members[:, None]).all(axis=0)
    return int(np.argmax(neutral)) if neutral.any() else None


def _inverses(T: np.ndarray, e: int, missing: str) -> list[int]:
    """The first two-sided inverse of each element; `missing` names one without."""
    hit = (T == e) & (T.T == e)
    _refuse(~hit.any(axis=1), missing)
    return hit.argmax(axis=1).tolist()


def _validate_abelian_group(
    add, zero: int, neg, n: int, what: str
) -> tuple[np.ndarray, list[int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Abelian group check; returns the table, an additive generating set S
    and the edges of `_additive_edges` on it.

    Associativity is proved on the translation tree of S, with no pass per
    generator.  Write L_x for the translation y -> x + y, row x of the
    table.  On every edge (src, s, dst) row dst must equal row src read at
    row s, (src + s) + y = src + (s + y), and the translations of the
    generators must commute, s + (t + y) = t + (s + y).  By induction along
    the tree, which reaches every element from zero with L_zero the
    identity, every L_x = L_src L_s then lies in the monoid the L_s
    generate, and that monoid is commutative.  Two members f and g with
    f(0) = g(0) are equal: f(y) = f(L_y(0)) = L_y(f(0)) = g(y), as zero is
    neutral on both sides of the commutative table.  L_a L_b and
    L_(a+b) agree at 0, so (a + b) + y = a + (b + y).  A table that fails,
    or whose layers form no tree, is not a group, and Light's test in
    `_generators` names its witness, as it did when it was the proof.
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
    tree = _additive_edges(A, zero)
    if tree is None or not _translation_tree_holds(A, *tree):
        # Light's test raises here: a table that passes it is associative
        _generators(A, zero, f"{what} addition", "+")
        raise InvalidConstruction(f"{what} addition not associative")
    return A, *tree


def _edge_blocks(edges, width: int):
    """The edges with one via s at a time, in blocks of about _BLOCK
    entries of rows of `width`, as (s, src, dst); `_additive_edges` lists
    the edges of each generator together."""
    src, via, dst = edges
    step = max(_BLOCK // max(width, 1), 1)
    cuts = (np.flatnonzero(np.diff(via)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(via)]):
        for lo in range(a, b, step):
            yield int(via[a]), src[lo : min(lo + step, b)], dst[lo : min(lo + step, b)]


def _translation_tree_holds(A: np.ndarray, gens: Sequence[int], edges) -> bool:
    """The two checks of the translation-tree proof: row dst is row src
    read at row s on every edge, and the generators' translations commute."""
    for s, src, dst in _edge_blocks(edges, len(A)):
        if not (A[src][:, A[s]] == A[dst]).all():
            return False
    R = A[np.asarray(gens, dtype=np.int64)]
    after = R[:, R]  # after[i, j, y] = s_i + (s_j + y)
    return bool(np.array_equal(after, after.transpose(1, 0, 2)))


def _additive_edges(
    A: np.ndarray, zero: int, gens: Sequence[int] | None = None
) -> tuple[list[int], tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
    """A generating set S with the edges (src, via, dst), dst = src + via
    and via in S: a map f out of the abelian group (A, zero) generated by S
    is additive exactly when f(dst) = f(src) + f(via) on each of its
    n - 1 + |S| edges.

    H_k = <s_1..s_k> is the union of the layers H_(k-1) + j s_k for j below
    m_k, the first j with j s_k in H_(k-1).  The edges b -> b + s_k between
    consecutive layers form a spanning tree along normal forms, n - 1 edges;
    one more edge per generator, (m_k - 1) s_k -> m_k s_k, is the power
    relation of s_k.  A map f with f(src + via) = f(src) + f(via) on every
    edge has f(0) = 0 (edge 0 -> s_1), equals on every element the sum its
    normal form gives, and that sum is a well-defined homomorphism because
    it respects every relation of the presentation (von Dyck).

    With no `gens`, each generator is the first element not yet reached, the
    greedy choice `_generators` makes too.  A table not yet proved a group
    gets None when a new layer meets the reached set or repeats an element,
    when the layers miss an element, or when the multiples of a generator
    pass n without returning to H.
    """
    n = len(A)
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    H = np.array([zero])
    src, via, dst = [H[:0]], [H[:0]], [H[:0]]  # the trivial group has no edges
    chosen = []

    def first_unreached():
        while len(H) < n:
            yield int(reached.argmin())

    for s in first_unreached() if gens is None else gens:
        chosen.append(s)
        # multiples j s for j < m by doubling: (L + i) s = i s + L s
        mults = H[:1]
        while True:
            nxt = A[mults, A[mults[-1], s]]
            hit = reached[nxt]
            if hit.any():
                mults = np.concatenate([mults, nxt[: hit.argmax()]])
                break
            mults = np.concatenate([mults, nxt])
            if len(mults) > n:
                return None
        layers = A[mults[:, None], H]  # layers[j] = H + j s
        src += [layers[:-1].ravel(), mults[-1:]]
        dst += [layers[1:].ravel(), A[mults[-1:], s]]
        via.append(np.repeat(s, layers.size - len(H) + 1))
        H = layers.ravel()
        reached[H] = True
        # reached was H's old layer, so any overlap or repeat leaves it short
        if np.count_nonzero(reached) < len(H):
            return None
    if len(H) < n:
        return None
    return chosen, (np.concatenate(src), np.concatenate(via), np.concatenate(dst))


def _columns_additive(F: np.ndarray, A: np.ndarray, edges) -> tuple[int, int, int] | None:
    """The first column of F, a map into the group with addition table A,
    that is not additive on `edges` (src, via, dst), with the first edge on
    which it fails, as (column, src, via); None when F[dst] = A[F[src],
    F[via]] entrywise.  Whole-row gathers read A from the flat table at an
    index of about _BLOCK entries.  The blocks run over the edges, so a
    failure replaces the one found so far only when its column is smaller,
    and the scan goes on to the last block."""
    src, via, dst = edges
    n, flat = len(A), A.ravel()
    step = max(_BLOCK // max(F.shape[1], 1), 1)
    first = None
    for lo in range(0, len(src), step):
        e = slice(lo, lo + step)
        at = F[src[e]].astype(np.intp)
        at *= n
        at += F[via[e]]
        bad = flat.take(at) != F[dst[e]]
        if bad.any():
            x = int(bad.any(axis=0).argmax())
            if first is None or x < first[0]:
                k = lo + int(bad[:, x].argmax())
                first = x, int(src[k]), int(via[k])
    return first


def _validate_ring_tables(
    add, mul, zero: int, one: int, neg, n: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Full ring axiom check; returns the addition and multiplication as
    compact arrays and the additive generating set.

    Every column of `*` must be additive (right distributivity), checked on
    the n - 1 + |S| edges of `_additive_edges` by whole-row gathers.  Then
    the rows a with a(b + c) = ab + ac for all b, c are closed under +, as
    (a + a')b = ab + a'b, so left distributivity needs checking on the rows
    of S only.  The associator (xy)z - x(yz) is then additive in each
    argument, so associativity of `*` needs checking on S x S x S only.  A
    failure is named by the least row that does not distribute, else by the
    least such column, each with its first failing edge.
    """
    if one == zero:
        raise InvalidConstruction("unity must differ from zero")
    A, gens, edges = _validate_abelian_group(add, zero, neg, n, "ring")
    M = _as_table(mul, n, "ring multiplication")
    if not np.array_equal(M[one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not left-neutral")
    if not np.array_equal(M[:, one], np.arange(n)):
        raise InvalidConstruction(f"unity {one} is not right-neutral")
    G = np.asarray(gens)
    # column a of M is b -> b*a and column a of M.T, row a of M, is b -> a*b;
    # the columns of M.T[:, G] are the rows of S
    if _columns_additive(M, A, edges) or _columns_additive(M.T[:, G], A, edges):
        for F, message in (
            (M.T, "left distributivity fails (witness {}*({}+{}))"),
            (M, "right distributivity fails (witness ({1}+{2})*{0})"),
        ):
            bad = _columns_additive(F, A, edges)
            if bad is not None:
                raise InvalidConstruction(message.format(*bad))
    P = M[np.ix_(G, G)]
    bad = M[P][:, :, G] != M[G][:, P]
    if bad.any():
        x, y, z = G[np.argwhere(bad)[0]]
        raise InvalidConstruction(
            f"multiplication not associative (witness ({x}*{y})*{z})"
        )
    return A, M, gens


# ---------------------------------------------------------------------------
# groups


@dataclass(eq=False)
class FiniteGroup:
    size: int
    # the validated operation, read-only, in the compact dtype of `size`
    op_array: np.ndarray = field(repr=False)
    identity: int
    inv: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.op_array.flags.writeable = False


def cyclic_group(k: int) -> FiniteGroup:
    if k < 1:
        raise InvalidConstruction("cyclic group order must be positive")
    g = np.arange(k)
    op = ((g[:, None] + g) % k).astype(_compact_dtype(k))
    inv = tuple((-g % k).tolist())
    names = tuple("e" if a == 0 else ("g" if a == 1 else f"g^{a}") for a in range(k))
    return FiniteGroup(size=k, op_array=op, identity=0, inv=inv, names=names)


def group_from_table(op, names: Sequence[str] | None = None) -> FiniteGroup:
    n = len(op)
    T = _as_table(op, n, "group")
    identity = _identity(T, np.arange(n))
    if identity is None:
        raise InvalidConstruction("group table has no two-sided identity")
    inv = _inverses(T, identity, "group element {} has no inverse")
    _generators(T, identity, "group operation", "*", T.T)
    names = tuple(map(str, range(n))) if names is None else tuple(names)
    if len(names) != n:
        raise InvalidConstruction("group names length mismatch")
    # the group keeps its own table: a caller's array is copied, never shared
    return FiniteGroup(
        size=n, op_array=T.copy(), identity=identity, inv=tuple(inv), names=names
    )


# ---------------------------------------------------------------------------
# rings


@dataclass(eq=False)
class FiniteRing:
    size: int
    # the validated tables, read-only, in the compact dtype of `size`
    add_array: np.ndarray = field(repr=False)
    mul_array: np.ndarray = field(repr=False)
    zero: int
    one: int
    neg: tuple[int, ...]
    commutative: bool
    # the constructor that built the ring: "zn", "table", "product",
    # "poly_quotient", "algebra", "group_ring", "idealization", "subring"
    # or "unital_subring"
    kind: str
    # returns the display name of every element; `names` calls it once
    naming: Callable[[], Iterable[str]] = field(repr=False)
    # the live sub-objects that readers of a composite ring read: "base",
    # "group", "module" and the polynomial "modulus"; never compared
    parts: dict = field(default_factory=dict, repr=False)
    # display label by ideal mask, filled by ideal_lattice.ideal_label; it
    # holds only ints and strings, so it never points back at the ring
    label_memo: dict = field(default_factory=dict, init=False, repr=False)
    # orbit_memo[x] is the mask of R*x once a reader has asked for it, else None
    orbit_memo: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.add_array.flags.writeable = False
        self.mul_array.flags.writeable = False
        self.orbit_memo = [None] * self.size

    @property
    def add(self) -> np.ndarray:
        """`add_array` under its older name, kept only because
        `perfbench/worker.py` reads it (ROADMAP item 11)."""
        return self.add_array

    @property
    def mul(self) -> np.ndarray:
        """`mul_array` under its older name, kept only because
        `perfbench/worker.py` reads it (ROADMAP item 11)."""
        return self.mul_array

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Display name of each element, formatted on first read."""
        return tuple(self.naming())

    @cached_property
    def add_generators(self) -> tuple[int, ...]:
        """An additive generating set.  Validation finds one and stores it
        here; induced subrings, which skip validation, compute it on demand."""
        return tuple(_additive_edges(self.add_array, self.zero)[0])

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def zero_mask(self) -> int:
        return 1 << self.zero

    def left_multiples(self, xs: Iterable[int]) -> list[int | None]:
        """The orbit table, orbit_memo, with the mask of R*x built for every
        x in xs; the columns of `*` not built yet are scattered in one
        `column_masks` pass, and entries never asked for stay None."""
        memo = self.orbit_memo
        missing = [x for x in xs if memo[x] is None]
        if missing:
            for x, mask in zip(missing, column_masks(self.mul_array, missing)):
                memo[x] = mask
        return memo

    @property
    def left_multiple_masks(self) -> list[int]:
        """mask of R*x for every x; the building block of left ideals."""
        return self.left_multiples(range(self.size))


def column_masks(table: np.ndarray, columns: Sequence[int]) -> tuple[int, ...]:
    """Mask of the entries of each given column of a table over 0..m-1, m
    its width: R*x for column x of a multiplication or an action table.
    The n x k block of those columns is scattered into a k x m bit matrix,
    about _BLOCK entries at a time, and packed row by row."""
    n, m = table.shape
    hit = np.zeros((len(columns), m), dtype=bool)
    flat = hit.ravel()
    step = max(_BLOCK // n, 1)
    for lo in range(0, len(columns), step):
        block = table[:, columns[lo : lo + step]]
        # hit[j, table[r, columns[j]]], at flat index j * m + table[r, columns[j]]
        flat[block + np.arange(lo * m, (lo + block.shape[1]) * m, m)] = True
    packed = np.packbits(hit, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def index_mask(indices: np.ndarray, size: int) -> int:
    """Mask of the entries of an index array over 0..size-1."""
    hit = np.zeros(size, dtype=bool)
    hit[indices] = True
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def span_extend(
    add: np.ndarray,
    base_mask: int,
    base_members: list[int],
    extra_mask: int,
    rows: dict[int, list[int]] | None = None,
) -> int:
    """Additive span of a closed subgroup H (mask and member list) and extras.

    Coset stepping: for each extra g not yet reached, H + <g> is the union
    of the cosets H + kg, and the first k with kg in H ends the chain, so
    every coset added before it is new.  The next coset is the previous one
    shifted by g, read from row g of the addition array.  Extras already
    reached are skipped as a mask, so a span costs O(|result|) table lookups
    plus one row read and one bitmask step per generator used.  A row is
    read as a list, kept in `rows`: a caller that spans many times over one
    table, as an enumeration does, passes one dict and reads each row once.
    """
    rows = {} if rows is None else rows
    mask = base_mask
    members = list(base_members)
    pending = extra_mask & ~mask
    while pending:
        g = (pending & -pending).bit_length() - 1
        row = rows.get(g)
        if row is None:
            row = rows[g] = add[g].tolist()
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
    return span_extend(ring.add_array, ring.zero_mask, [ring.zero], seed_mask)


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
    kind: str,
    naming: Callable[[], Iterable[str]],
    parts: dict | None = None,
) -> FiniteRing:
    """The validated ring; `naming` returns the element names, and is
    called only when they are first read."""
    A, M, gens = _validate_ring_tables(add, mul, zero, one, neg, size)
    # `*` is biadditive, so it commutes exactly when it does on S x S
    P = M[np.ix_(gens, gens)]
    ring = FiniteRing(
        size=size,
        add_array=A,
        mul_array=M,
        zero=zero,
        one=one,
        neg=tuple(np.asarray(neg).tolist()),
        commutative=bool(np.array_equal(P, P.T)),
        kind=kind,
        naming=naming,
        parts=dict(parts or {}),
    )
    vars(ring)["add_generators"] = tuple(gens)  # the set the axioms were checked on
    return ring


def _check_size(size: int, max_size: int) -> None:
    if size > max_size:
        raise SizeLimit(f"carrier size {size} exceeds the cap {max_size}")
    if size < 1:
        raise InvalidConstruction("carrier must be nonempty")


def _cyclic_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication of Z_n in the compact dtype.  Row a of
    the addition is the window a..a+n-1 of 0..n-1 written twice; products
    are taken in the compact dtype of n^2, which holds each of them."""
    twice = np.tile(np.arange(n, dtype=_compact_dtype(n)), 2)
    add = np.lib.stride_tricks.sliding_window_view(twice, n)[:n].copy()
    a = np.arange(n, dtype=_compact_dtype(n * n))
    return add, (a[:, None] * a % n).astype(_compact_dtype(n))


def make_cyclic_ring(n: int, max_size: int = MAX_RING_SIZE) -> FiniteRing:
    """Integers mod n."""
    if n < 2:
        raise InvalidConstruction("modulus must be at least 2 so unity differs from zero")
    _check_size(n, max_size)
    add, mul = _cyclic_tables(n)
    return _finish_ring(
        n, add, mul, 0, 1, -np.arange(n) % n, "zn", lambda: map(str, range(n))
    )


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
    # the ring keeps its own tables: a caller's array is copied, never shared
    add, mul = (np.array(t) if isinstance(t, np.ndarray) else t for t in (add, mul))
    A = _as_table(add, n, "ring addition")
    neg = _inverses(A, zero, "element {} has no additive inverse")
    if names is not None:
        names = tuple(names)
        if len(names) != n:
            raise InvalidConstruction("ring names length mismatch")
    return _finish_ring(
        n, A, mul, zero, one, neg, "table",
        lambda: map(str, range(n)) if names is None else names,
    )


def direct_product(
    left: FiniteRing, right: FiniteRing, max_size: int = MAX_RING_SIZE
) -> FiniteRing:
    """Componentwise product; element (r, s) sits at index r*|S| + s."""
    n1, n2 = left.size, right.size
    n = n1 * n2
    _check_size(n, max_size)
    add = _pair_table(left.add_array, right.add_array)
    mul = _pair_table(left.mul_array, right.mul_array)
    neg = (np.asarray(left.neg)[:, None] * n2 + np.asarray(right.neg)).ravel()
    zero = left.zero * n2 + right.zero
    one = left.one * n2 + right.one
    return _finish_ring(
        n,
        add,
        mul,
        zero,
        one,
        neg,
        "product",
        lambda: (f"({a},{b})" for a in left.names for b in right.names),
    )


def _pair_table(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Entry ((r, s), (r', s')) = L[r, r'] |R| + R[s, s'] of an operation on
    pairs at index r |R| + s, one broadcast outer sum over (r, s, r', s');
    L is widened to the pair dtype before scaling, which then holds every sum."""
    n1, n2 = len(L), len(R)
    scaled = L.astype(_compact_dtype(n1 * n2)) * n2
    return (scaled[:, None, :, None] + R[None, :, None, :]).reshape(n1 * n2, n1 * n2)


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
    kind: str,
    naming: Callable[[], Iterable[str]],
    parts: dict | None = None,
) -> FiniteRing:
    """The free base-module on e_0..e_{d-1} with a bilinear product.

    structure[i][j][k] is coefficient k (a base index) of e_i*e_j, and
    (sum a_i e_i)(sum b_j e_j) = sum_k (sum_ij (a_i b_j) structure[i][j][k]) e_k;
    base.one*e_unit must be the unity.  An element is its coefficient vector
    packed as base-|base| digits, low coordinate first.  Addition is the
    direct product of d copies of the base, one `_pair_table` per digit.
    The product rows follow from the products of monomials by additive
    extension over the elements `low` whose digits from k up are zero, one
    gather per digit: first the rows of the monomials,
    (c*e_i)(low + b*e_k) = (c*e_i)low + (c*e_i)(b*e_k), then all others,
    (low + c*e_k)y = (c*e_k)y + low*y.
    """
    S = np.asarray(structure, dtype=np.int64)
    d = len(S)
    r, z = base.size, base.zero
    n = r**d
    # sums are taken in the algebra's dtype, which holds every weighted digit
    # sum (at most n - 1)
    weights = (r ** np.arange(d)).astype(_compact_dtype(n))
    BM = base.mul_array
    add = np.zeros((1, 1), dtype=weights.dtype)
    for k in range(d):  # element (hi, lo) of base x base^k at hi r^k + lo
        add = _pair_table(base.add_array, add)
    neg = np.asarray(base.neg)[_digit_array(r, d)] @ weights
    # pairs[i, c, b, k] = (c*e_i)(b*e_k), whose coefficient m is (c*b)*structure[i][k][m]
    pairs = BM[BM[None, :, :, None, None], S[:, None, None]] @ weights
    zero = int(z * weights.sum())
    # lows[k]: the elements whose digits from k up are zero, r^k indices in
    # a row; low + b*e_k for b in order, each over lows[k], makes lows[k + 1]
    lows = [np.arange(r**k) + z * int(weights[k:].sum()) for k in range(d + 1)]
    mono = np.full((d, r, 1), zero, dtype=weights.dtype)  # mono[i, c] is the row of c*e_i
    for k in range(d):
        mono = add[mono[:, :, None, :], pairs[:, :, :, k, None]].reshape(d, r, -1)
    mul = np.empty((n, n), dtype=weights.dtype)
    mul[zero] = zero
    for k in range(d):
        mul[lows[k + 1]] = add[mono[k][:, None, :], mul[lows[k]]].reshape(-1, n)
    one = zero + int((base.one - z) * weights[unit])
    return _finish_ring(n, add, mul, zero, one, neg, kind, naming, parts)


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
    # x^m reduced for m < 2d-1: x^(m+1) = x*x^m, and x^d = -(low part of modulus)
    # low[c, k] = -(c * m_k), for the coefficients m_k of the modulus below x^d
    low = np.asarray(base.neg)[base.mul_array[:, np.asarray(modulus[:d])]]
    powers = np.full((2 * d - 1, d), base.zero)
    powers[np.arange(d), np.arange(d)] = base.one
    for m in range(d, 2 * d - 1):
        powers[m, 1:] = powers[m - 1, :-1]
        powers[m] = base.add_array[powers[m], low[powers[m - 1, -1]]]
    structure = powers[np.arange(d)[:, None] + np.arange(d)]
    basis = ["1", "x"] + [f"x^{k}" for k in range(2, d)]
    return free_algebra(
        base,
        structure,
        0,
        "poly_quotient",
        lambda: _linear_names(base, d, basis, bare=0, descending=True),
        parts={"base": base, "modulus": [int(c) for c in modulus]},
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
        "algebra",
        lambda: _linear_names(base, dim, basis_names),
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
    # e_i e_j = e_(ij): coefficient k is the unity where k = ij, else zero
    structure = np.where(group.op_array[:, :, None] == np.arange(g), base.one, base.zero)
    return free_algebra(
        base,
        structure,
        group.identity,
        "group_ring",
        lambda: _linear_names(base, g, group.names, bare=group.identity),
        parts={"base": base, "group": group},
    )


# ---------------------------------------------------------------------------
# modules and idealization


@dataclass(eq=False)
class FiniteModule:
    ring: FiniteRing
    size: int
    add_array: np.ndarray = field(repr=False)
    zero: int
    neg: tuple[int, ...]
    act_array: np.ndarray = field(repr=False)  # act_array[r, m] = r.m
    # returns the display name of every element; `names` calls it once
    naming: Callable[[], Iterable[str]] = field(repr=False)
    kind: str  # the constructor: "self" or "zn_quotient"

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Display name of each element, formatted on first read."""
        return tuple(self.naming())


def _validate_module(mod: FiniteModule) -> tuple[np.ndarray, np.ndarray]:
    """Module axioms on the ring's additive generators S: (r+s).x = r.x + s.x
    makes the action additive in r, so s.(x+y) = s.x + s.y extends to all of
    R, and so does (st).x = s.(t.x), whose two sides are additive in s and t.
    Additivity in r is checked on the edges of R by whole-row gathers,
    additivity in x on the edges of M (see `_additive_edges`).  Returns the
    module addition and the action as arrays.

    A module whose addition array, zero and negation are the ring's own, as
    in `module_self`, skips the abelian group check the ring passed already.
    """
    ring, m = mod.ring, mod.size
    RA = ring.add_array
    gens = ring.add_generators
    _, ring_edges = _additive_edges(RA, ring.zero, gens)
    if (
        mod.add_array is RA
        and mod.neg is ring.neg
        and (m, mod.zero) == (ring.size, ring.zero)
    ):
        MA, module_edges = RA, ring_edges
    else:
        MA, _, module_edges = _validate_abelian_group(
            mod.add_array, mod.zero, mod.neg, m, "module"
        )
    ACT = np.asarray(mod.act_array, dtype=np.int64)
    if ACT.shape != (ring.size, m) or (ACT.size and (ACT.min() < 0 or ACT.max() >= m)):
        raise InvalidConstruction("module action table malformed")
    if not np.array_equal(ACT[ring.one], np.arange(m)):
        raise InvalidConstruction("unity does not act as identity on the module")
    G = np.asarray(gens)
    # column x of ACT is r -> r.x, and column j of ACT[G].T is x -> G[j].x
    bad = _columns_additive(ACT, MA, ring_edges)
    if bad is not None:
        raise InvalidConstruction(
            "module action not additive in the ring (witness ({1}+{2}).{0})".format(*bad)
        )
    bad = _columns_additive(ACT[G].T, MA, module_edges)
    if bad is not None:
        j, a, b = bad
        raise InvalidConstruction(
            f"module action not additive in the module (witness {G[j]}.({a}+{b}))"
        )
    bad = ACT[ring.mul_array[np.ix_(G, G)]] != ACT[G][:, ACT[G]]
    if bad.any():
        s, t, x = np.argwhere(bad)[0]
        raise InvalidConstruction(
            f"module action not associative (witness ({G[s]}*{G[t]}).{x})"
        )
    return MA, ACT


def module_self(ring: FiniteRing) -> FiniteModule:
    """The ring acting on itself by left multiplication."""
    return FiniteModule(
        ring=ring,
        size=ring.size,
        add_array=ring.add_array,
        zero=ring.zero,
        neg=ring.neg,
        act_array=ring.mul_array,
        naming=lambda: ring.names,
        kind="self",
    )


def module_zn_quotient(ring: FiniteRing, m: int) -> FiniteModule:
    """Z_m as a module over Z_n, for m dividing n."""
    if ring.kind != "zn":
        raise InvalidConstruction("quotient modules are only defined over integers mod n")
    n = ring.size
    if m < 1 or n % m != 0:
        raise InvalidConstruction(f"modulus {m} must divide {n}")
    add, mul = _cyclic_tables(m)
    return FiniteModule(
        ring=ring,
        size=m,
        add_array=add,
        zero=0,
        neg=tuple((-np.arange(m) % m).tolist()),
        act_array=mul[np.arange(n) % m],  # r.x = (r mod m) x
        naming=lambda: map(str, range(m)),
        kind="zn_quotient",
    )


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
    MA, ACT = _validate_module(module)
    add = _pair_table(base.add_array, MA)
    # (r, m)(r', m') = (rr', r.m' + r'.m): the module term gathers the flat
    # module addition at (r.m') |M| + r'.m over (r, m, r', m'), a block of
    # about _BLOCK entries at a time
    act = ACT.astype(_compact_dtype(n2 * n2))
    scaled = base.mul_array.astype(_compact_dtype(n)) * n2
    mul = np.empty((n1, n2, n1, n2), dtype=scaled.dtype)
    step = max(_BLOCK // (n2 * n), 1)
    for lo in range(0, n1, step):
        at = (act[lo : lo + step] * n2)[:, None, None, :] + act.T[None, :, :, None]
        mul[lo : lo + step] = scaled[lo : lo + step, None, :, None] + MA.ravel()[at]
    mul = mul.reshape(n, n)
    neg = (np.asarray(base.neg)[:, None] * n2 + np.asarray(module.neg)).ravel()
    zero = base.zero * n2 + module.zero
    one = base.one * n2 + module.zero
    return _finish_ring(
        n,
        add,
        mul,
        zero,
        one,
        neg,
        "idealization",
        lambda: (f"({r}|{m})" for r in base.names for m in module.names),
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
    index_of = np.full(parent.size, -1, dtype=_compact_dtype(len(members)))
    index_of[sub] = np.arange(len(members))
    grid = np.ix_(sub, sub)
    add = index_of[parent.add_array[grid]]
    mul = index_of[parent.mul_array[grid]]
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
    ring = FiniteRing(
        size=len(members),
        add_array=add,
        mul_array=mul,
        zero=int(index_of[parent.zero]),
        one=int(index_of[one_parent]),
        neg=tuple(neg.tolist()),
        commutative=bool(np.array_equal(mul, mul.T)),
        kind=kind,
        naming=lambda: (parent.names[p] for p in members),
    )
    return ring, tuple(members)


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
    sub = np.asarray(ms, dtype=np.int64)
    one = _identity(parent.mul_array[np.ix_(sub, sub)], sub)
    if one is None:
        raise InvalidConstruction("subset has no internal identity element")
    return _induced_ring(parent, ms, ms[one], "unital_subring")
