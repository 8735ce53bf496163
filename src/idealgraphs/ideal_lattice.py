"""Left-ideal and submodule families of a finite carrier, as bitmasks.

Enumeration works on the closure system directly: starting from {0}, every
known closed set is extended by the orbit R*x of each candidate element, and
the closure of the union is taken.  That closure depends on x only through
its orbit, and many candidates share one, so each distinct orbit mask is
tried once per closed set, and one that already lies inside it is skipped as
a mask test; only the candidates' orbits are built (`left_multiples`).  For
left ideals the closure of (ideal + R*x) is just the additive span, because
the union of two sets closed under left multiplication is still closed under
it; that observation keeps the inner loop purely additive.

A sum is read from the lattice by its order before it is spanned.  For
additive subgroups A and B, |A + B| = |A| |B| / |A & B| (second isomorphism
theorem), so a known subgroup of that order holding A and B is A + B
(`known_sum`).  An enumeration keeps its closed sets in buckets by order and
spans only a sum it has not seen: |family| - 1 spans in all, plus one bucket
scan per (closed set, distinct orbit) pair.  Every span, from enumeration to
sums, products and labels, is one call to `ring_core.span_extend`, which
grows a closed subgroup H by a generator g one coset H + kg at a time and so
costs O(|result|) rather than the O(|result|^2) of closing under pairwise
sums.  Gradedness and direct-sum decompositions are counted, not spanned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IdealCountLimit, NotSubgroup, UngradedIdeal
from .grading import Grading
from .ring_core import (
    FiniteModule,
    FiniteRing,
    additive_span,
    column_masks,
    index_mask,
    is_additive_subgroup,
    mask_members,
    span_extend,
)

MAX_IDEALS = 4096


@dataclass(frozen=True)
class IdealSet:
    """One left ideal of a fixed ring, as a bitmask over element indices."""

    ring: FiniteRing
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> list[int]:
        return mask_members(self.mask)

    @property
    def is_zero(self) -> bool:
        return self.mask == self.ring.zero_mask

    @property
    def is_full(self) -> bool:
        return self.mask == self.ring.full_mask

    def contains(self, other: "IdealSet") -> bool:
        return self.mask | other.mask == self.mask

    def sort_key(self) -> tuple[int, int]:
        return (self.mask.bit_count(), self.mask)

    def label(self) -> str:
        return ideal_label(self.ring, self.mask)

    __str__ = label


def is_left_ideal(ring: FiniteRing, mask: int) -> bool:
    if not is_additive_subgroup(ring, mask):
        return False
    members = mask_members(mask)
    lm = ring.left_multiples(members)
    return all(lm[x] | mask == mask for x in members)


def is_graded(grading: Grading, mask: int) -> bool:
    """An additive subgroup I is graded when it is the sum of its parts
    I & R_d.  Those parts always sum directly inside I, so I is graded
    exactly when |I| is the product of their orders.  The count is only
    meaningful for a subgroup; every caller passes an ideal."""
    order = 1
    for component in grading.components.values():
        order *= (mask & component).bit_count()
    return order == mask.bit_count()


def generated_left_ideal(ring: FiniteRing, generators: Iterable[int]) -> int:
    """Smallest left ideal containing the generators: the additive span of
    their left-multiple sets (each R*x is already closed under left
    multiplication, and sums stay closed by distributivity)."""
    seed = 0
    generators = list(generators)
    lm = ring.left_multiples(generators)
    for x in generators:
        seed |= lm[x]
    return additive_span(ring, seed)


def sum_order(a_mask: int, b_mask: int) -> int:
    """|A + B| = |A| |B| / |A & B| for additive subgroups A and B."""
    return a_mask.bit_count() * b_mask.bit_count() // (a_mask & b_mask).bit_count()


def known_sum(by_order: dict[int, list[int]], a_mask: int, b_mask: int) -> int | None:
    """A + B read from known subgroups bucketed by order, or None if none
    of them is it.  A subgroup holding A and B holds A + B, so one whose
    order is |A + B| is A + B.  A, B and every bucketed mask must be
    additive subgroups."""
    seed = a_mask | b_mask
    for mask in by_order.get(sum_order(a_mask, b_mask), ()):
        if mask | seed == mask:
            return mask
    return None


def _enumerate_closed(
    add,
    zero: int,
    orbit_masks: Sequence[int],
    candidates: Sequence[int],
    max_count: int,
    what: str,
) -> list[int]:
    """Closed sets reached from {0} by adding orbits, sorted by (size, mask).

    Every orbit must be an additive subgroup, so that cur + orbit is one
    closed set and `known_sum` can find it.  A left ideal orbit R*x is one,
    since rx + sx = (r+s)x; a submodule orbit R*x | {x} equals R*x, since
    module validation requires 1*x = x.  A span whose order differs from
    the predicted one raises NotSubgroup."""
    zero_mask = 1 << zero
    # the closure of cur and x depends on x only through its orbit
    orbits = list(dict.fromkeys(orbit_masks[x] for x in candidates))
    by_order = {1: [zero_mask]}
    count = 1
    frontier = [zero_mask]
    rows: dict[int, list[int]] = {}  # addition rows read so far, as lists
    while frontier:
        nxt = []
        for cur in frontier:
            members = None  # listed before the first span from cur
            for orbit in orbits:
                if cur | orbit == cur or known_sum(by_order, cur, orbit) is not None:
                    continue
                if members is None:
                    members = mask_members(cur)
                closed = span_extend(add, cur, members, orbit, rows)
                order = sum_order(cur, orbit)
                if closed.bit_count() != order:
                    raise NotSubgroup(
                        f"{what} orbit {orbit:#x} is not an additive subgroup"
                    )
                count += 1
                if count > max_count:
                    raise IdealCountLimit(f"{what} family exceeds the cap {max_count}")
                by_order.setdefault(order, []).append(closed)
                nxt.append(closed)
        frontier = nxt
    return [m for order in sorted(by_order) for m in sorted(by_order[order])]


def enumerate_left_ideals(
    ring: FiniteRing, max_ideals: int = MAX_IDEALS
) -> list[IdealSet]:
    """Every left ideal, including the zero ideal and the whole ring,
    sorted by (size, mask)."""
    masks = _enumerate_closed(
        ring.add_array,
        ring.zero,
        ring.left_multiple_masks,
        range(ring.size),
        max_ideals,
        "left ideal",
    )
    return [IdealSet(ring, m) for m in masks]


def enumerate_graded_left_ideals(
    grading: Grading, max_ideals: int = MAX_IDEALS
) -> list[IdealSet]:
    """Every graded left ideal.  Extending only by homogeneous elements is
    complete because a graded ideal is generated by its homogeneous members,
    and sound because an ideal generated by homogeneous elements is graded."""
    ring = grading.ring
    candidates = [
        x for x in mask_members(grading.homogeneous_mask()) if x != ring.zero
    ]
    masks = _enumerate_closed(
        ring.add_array,
        ring.zero,
        ring.left_multiples(candidates),
        candidates,
        max_ideals,
        "graded left ideal",
    )
    for m in masks:
        if not is_graded(grading, m):
            raise UngradedIdeal(
                f"ideal {m:#x} generated by homogeneous elements is not graded"
            )
    return [IdealSet(ring, m) for m in masks]


def enumerate_submodules(
    module: FiniteModule, max_count: int = MAX_IDEALS
) -> list[int]:
    """All submodule masks of a finite module, sorted by (size, mask)."""
    # the orbit R.x + Zx of x: R.x holds x = 1.x already
    columns = range(module.size)
    orbit = [m | 1 << x for x, m in enumerate(column_masks(module.act_array, columns))]
    return _enumerate_closed(
        module.add_array, module.zero, orbit, range(module.size), max_count, "submodule"
    )


def nontrivial_proper(family: Sequence[IdealSet]) -> list[IdealSet]:
    """Drop the zero ideal and the whole ring: the vertex set convention."""
    return [i for i in family if not i.is_zero and not i.is_full]


def maximal_members(family: Sequence[IdealSet]) -> list[IdealSet]:
    """Maximal elements among the proper ideals of a full family."""
    proper = [i for i in family if not i.is_full]
    out = []
    for i in proper:
        if not any(j is not i and j.contains(i) and j.mask != i.mask for j in proper):
            out.append(i)
    return out


def minimal_members(family: Sequence[IdealSet]) -> list[IdealSet]:
    """Minimal elements among the nonzero proper ideals of a full family."""
    inner = nontrivial_proper(family)
    return [i for i in inner if is_minimal(i, family)]


def is_minimal(ideal: IdealSet, family: Sequence[IdealSet]) -> bool:
    """Minimal means: nonzero, proper, and containing no smaller nonzero
    member of the family."""
    if ideal.is_zero or ideal.is_full:
        return False
    return not any(
        not j.is_zero and j.mask != ideal.mask and ideal.contains(j) for j in family
    )


def is_maximal(ideal: IdealSet, family: Sequence[IdealSet]) -> bool:
    """Maximal means: proper, and contained in no larger proper member.
    The zero ideal qualifies when it is the only proper one."""
    if ideal.is_full:
        return False
    return not any(
        not j.is_full and j.mask != ideal.mask and j.contains(ideal) for j in family
    )


def is_essential(ideal: IdealSet, family: Sequence[IdealSet]) -> bool:
    """Essential means: nontrivial intersection with every nonzero member."""
    zero = ideal.ring.zero_mask
    return all(j.is_zero or (ideal.mask & j.mask) != zero for j in family)


def maximal_chain_term_counts(family: Sequence[IdealSet]) -> set[int]:
    """Lengths (term counts, endpoints included) of maximal chains from the
    zero ideal to the whole ring in the containment order."""
    masks = sorted({i.mask for i in family}, key=lambda m: (m.bit_count(), m))
    n = len(masks)
    leq = [[(masks[a] | masks[b]) == masks[b] for b in range(n)] for a in range(n)]
    covers: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            if any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(n)):
                continue
            covers[a].append(b)
    top = masks.index(max(masks, key=lambda m: m.bit_count()))
    bottom = 0
    lengths: set[int] = set()

    def walk(v: int, terms: int) -> None:
        if v == top:
            lengths.add(terms)
            return
        for w in covers[v]:
            walk(w, terms + 1)

    walk(bottom, 1)
    return lengths


def ideal_sum(ring: FiniteRing, a_mask: int, b_mask: int) -> int:
    """Smallest left ideal holding both: the additive span of the union.

    Both arguments must be left ideals (closed subgroups suffice).  When one
    holds the other it is the sum, and no span is taken; otherwise the
    span grows from the larger one, which leaves fewer cosets to add."""
    if a_mask.bit_count() < b_mask.bit_count():
        a_mask, b_mask = b_mask, a_mask
    if a_mask | b_mask == a_mask:
        return a_mask
    return span_extend(ring.add_array, a_mask, mask_members(a_mask), b_mask)


def ideal_product(ring: FiniteRing, a_mask: int, b_mask: int) -> int:
    """Span of pairwise products; for left ideals this is again a left ideal."""
    products = ring.mul_array[np.ix_(mask_members(a_mask), mask_members(b_mask))]
    return additive_span(ring, index_mask(products, ring.size))


def ideal_power(ring: FiniteRing, mask: int, k: int) -> int:
    if k == 0:
        return ring.full_mask
    out = mask
    for _ in range(k - 1):
        out = ideal_product(ring, out, mask)
    return out


def min_generator_count(
    ring: FiniteRing,
    mask: int,
    candidates: Sequence[int] | None = None,
    limit: int = 3,
) -> int | None:
    """Smallest number of generators (drawn from candidates, default all
    nonzero members) producing exactly this ideal; None if over the limit."""
    if mask == ring.zero_mask:
        return 0
    if candidates is None:
        candidates = [x for x in mask_members(mask) if x != ring.zero]
    for k in range(1, limit + 1):
        for combo in itertools.combinations(candidates, k):
            if generated_left_ideal(ring, combo) == mask:
                return k
    return None


def _is_unit(ring: FiniteRing, x: int) -> bool:
    # in a finite ring a one-sided inverse is two-sided; check both anyway
    M = ring.mul_array
    return bool(((M[x] == ring.one) & (M[:, x] == ring.one)).any())


def _is_nilpotent(ring: FiniteRing, x: int) -> bool:
    # x, x^2, .. up to the first zero power are distinct and nonzero, so a
    # nilpotent x has x^n = 0 for n = |R|, and then x^(2^k) = 0 for 2^k > n
    p = x
    for _ in range(ring.size.bit_length()):
        p = ring.mul_array[p, p]
    return int(p) == ring.zero


def _nonzero_homogeneous(grading: Grading) -> list[int]:
    zero = grading.ring.zero
    out = []
    for cm in grading.components.values():
        out.extend(x for x in mask_members(cm) if x != zero)
    return sorted(set(out))


def is_graded_division(grading: Grading) -> bool:
    """Every nonzero homogeneous element is invertible."""
    ring = grading.ring
    return all(_is_unit(ring, x) for x in _nonzero_homogeneous(grading))


def is_graded_field(grading: Grading) -> bool:
    return grading.ring.commutative and is_graded_division(grading)


def is_graded_domain(grading: Grading) -> bool:
    """Commutative, and no two nonzero homogeneous elements multiply to 0."""
    ring = grading.ring
    if not ring.commutative:
        return False
    hom = _nonzero_homogeneous(grading)
    return not (ring.mul_array[np.ix_(hom, hom)] == ring.zero).any()


def is_graded_reduced(grading: Grading) -> bool:
    """No nonzero homogeneous element is nilpotent."""
    ring = grading.ring
    return not any(_is_nilpotent(ring, x) for x in _nonzero_homogeneous(grading))


def is_graded_local(grading: Grading, graded_family: Sequence[IdealSet]) -> bool:
    """Exactly one maximal member among the proper graded left ideals."""
    return len(maximal_members(graded_family)) == 1


def internal_decompositions(
    ring: FiniteRing, family: Sequence[IdealSet]
) -> list[tuple[IdealSet, IdealSet]]:
    """Unordered pairs of nonzero proper members whose sum is the whole ring
    and whose intersection is zero: the internal direct sum decompositions.
    For members meeting in zero, |a + b| = |a| |b|, so the sum is the whole
    ring exactly when that product is |R|."""
    inner = nontrivial_proper(family)
    return [
        (a, b)
        for a, b in itertools.combinations(inner, 2)
        if a.mask & b.mask == ring.zero_mask and a.size * b.size == ring.size
    ]



def ideal_label(ring: FiniteRing, mask: int) -> str:
    """Deterministic display label: a smallest generating set in angle
    brackets when one of size <= 2 exists, else the member list.  Each
    label is searched once per ring and then read from the ring's memo."""
    label = ring.label_memo.get(mask)
    if label is None:
        label = ring.label_memo[mask] = _search_label(ring, mask)
    return label


def _search_label(ring: FiniteRing, mask: int) -> str:
    """The first generator x, then the first pair x < y, in member order.

    The principal span P[x] = span(R*x) is R*x itself, since rx + sx =
    (r+s)x, so one generator is a lookup.  A pair spans P[x] + P[y], of
    order |P[x]| |P[y]| / |P[x] & P[y]|; it cannot give the mask when either
    P lies outside it or that order differs from the mask's, so only the
    remaining pairs are confirmed with one coset-stepping span.
    """
    if mask == ring.zero_mask:
        return "<0>"
    nonzero = [x for x in mask_members(mask) if x != ring.zero]
    lm = ring.left_multiples(nonzero)
    for x in nonzero:
        if lm[x] == mask:
            return f"<{ring.names[x]}>"
    size = mask.bit_count()
    inside = [x for x in nonzero if lm[x] | mask == mask]
    for i, x in enumerate(inside):
        px = lm[x]
        px_size = px.bit_count()
        for y in inside[i + 1 :]:
            py = lm[y]
            if px_size * py.bit_count() != size * (px & py).bit_count():
                continue
            if span_extend(ring.add_array, px, mask_members(px), py) == mask:
                return f"<{ring.names[x]},{ring.names[y]}>"
    return "{" + ",".join(ring.names[x] for x in mask_members(mask)) + "}"
