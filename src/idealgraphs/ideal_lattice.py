"""Left-ideal and submodule families of a finite carrier, as bitmasks.

Enumeration works on the closure system directly: starting from {0}, every
known closed set is extended by every candidate element, and the closure of
the union is taken.  For left ideals the closure of (ideal + R*x) is just the
additive span, because the union of two sets closed under left multiplication
is still closed under it; that observation keeps the inner loop purely
additive.  Every span here, from enumeration to sums, products and labels, is
one call to `ring_core.span_extend`, which grows a closed subgroup H by a
generator g one coset H + kg at a time and so costs O(|result|) rather than
the O(|result|^2) of closing under pairwise sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import IdealCountLimit, UngradedIdeal
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
    graded: bool | None = field(default=None, compare=False)

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


def is_left_ideal(ring: FiniteRing, mask: int) -> bool:
    if not is_additive_subgroup(ring, mask):
        return False
    lm = ring.left_multiple_masks
    return all(lm[x] | mask == mask for x in mask_members(mask))


def is_graded(grading: Grading, mask: int) -> bool:
    """A subset is graded when it holds every homogeneous part of each of
    its members."""
    for x in mask_members(mask):
        for _, part in grading.decomposition[x]:
            if not mask & (1 << part):
                return False
    return True


def generated_left_ideal(ring: FiniteRing, generators: Iterable[int]) -> int:
    """Smallest left ideal containing the generators: the additive span of
    their left-multiple sets (each R*x is already closed under left
    multiplication, and sums stay closed by distributivity)."""
    seed = 0
    lm = ring.left_multiple_masks
    for x in generators:
        seed |= lm[x]
    return additive_span(ring, seed)


def _enumerate_closed(
    add,
    zero: int,
    orbit_masks: Sequence[int],
    candidates: Sequence[int],
    max_count: int,
    what: str,
) -> list[int]:
    zero_mask = 1 << zero
    found = {zero_mask}
    members_of = {zero_mask: [zero]}
    frontier = [zero_mask]
    memo: dict[int, int] = {}
    rows: dict[int, list[int]] = {}  # addition rows read so far, as lists
    while frontier:
        nxt = []
        for cur in frontier:
            base_members = members_of[cur]
            for x in candidates:
                if cur & (1 << x):
                    continue
                seed = cur | orbit_masks[x]
                closed = memo.get(seed)
                if closed is None:
                    closed = span_extend(add, cur, base_members, orbit_masks[x], rows)
                    memo[seed] = closed
                if closed not in found:
                    found.add(closed)
                    if len(found) > max_count:
                        raise IdealCountLimit(
                            f"{what} family exceeds the cap {max_count}"
                        )
                    members_of[closed] = mask_members(closed)
                    nxt.append(closed)
        frontier = nxt
    return sorted(found, key=lambda m: (m.bit_count(), m))


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
        ring.left_multiple_masks,
        candidates,
        max_ideals,
        "graded left ideal",
    )
    for m in masks:
        if not is_graded(grading, m):
            raise UngradedIdeal(
                f"ideal {m:#x} generated by homogeneous elements is not graded"
            )
    return [IdealSet(ring, m, graded=True) for m in masks]


def enumerate_submodules(
    module: FiniteModule, max_count: int = MAX_IDEALS
) -> list[int]:
    """All submodule masks of a finite module, sorted by (size, mask)."""
    # the orbit R.x + Zx of x: R.x holds x = 1.x already
    orbit = [m | 1 << x for x, m in enumerate(column_masks(module.act_array))]
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
    """Smallest left ideal holding both: the additive span of the union."""
    return span_extend(ring.add_array, a_mask, mask_members(a_mask), b_mask)


def ideal_intersect(a_mask: int, b_mask: int) -> int:
    return a_mask & b_mask


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
    and whose intersection is zero: the internal direct sum decompositions."""
    inner = nontrivial_proper(family)
    out = []
    for a, b in itertools.combinations(inner, 2):
        if a.mask & b.mask != ring.zero_mask:
            continue
        if ideal_sum(ring, a.mask, b.mask) == ring.full_mask:
            out.append((a, b))
    return out


def is_graded_indecomposable(
    grading: Grading, graded_family: Sequence[IdealSet]
) -> bool:
    """No internal direct sum splitting into two nonzero proper graded
    ideals."""
    return not internal_decompositions(grading.ring, graded_family)


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
    lm = ring.left_multiple_masks
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
