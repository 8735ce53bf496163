"""Group gradings on finite rings: validation, canonical builders, and the
faithful / strong classifier family.

A grading assigns to each degree an additive subgroup (its component) such
that the components sum directly to the whole ring and products respect
degrees.  Degrees live either in a finite group (indices into a FiniteGroup)
or in the integers (plain ints); the GradeGroup wrapper gives both the same
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotDirectSum,
    NotSubgroup,
    ProductEscapes,
    UnityNotInIdentityComponent,
    WrongConstruction,
)
from .ring_core import (
    FiniteGroup,
    FiniteRing,
    additive_span,
    cyclic_group,
    index_mask,
    is_additive_subgroup,
    is_subgroup,
    mask_members,
    span_extend,
)


@dataclass(eq=False)
class GradeGroup:
    kind: str  # "finite" or "integers"
    group: FiniteGroup | None = None

    @property
    def identity(self) -> int:
        return 0 if self.kind == "integers" else self.group.identity

    def op(self, a: int, b: int) -> int:
        if self.kind == "integers":
            return a + b
        return int(self.group.op_array[a, b])

    def inv(self, a: int) -> int:
        if self.kind == "integers":
            return -a
        return self.group.inv[a]

    def name(self, deg: int) -> str:
        if self.kind == "integers":
            return str(deg)
        return self.group.names[deg]


INTEGERS = GradeGroup(kind="integers")


def finite_grades(group: FiniteGroup) -> GradeGroup:
    return GradeGroup(kind="finite", group=group)


_C2 = finite_grades(cyclic_group(2))  # every idealization's grade group


@dataclass(eq=False)
class Grading:
    ring: FiniteRing
    grades: GradeGroup
    components: dict  # deg -> mask, nonzero components only; every mask holds 0
    support: tuple  # sorted degrees of the nonzero components
    # decomposition[x] = ((deg, part), ...) listing the nonzero homogeneous
    # parts of element x, sorted by degree
    decomposition: tuple

    def component(self, deg: int) -> int:
        return self.components.get(deg, self.ring.zero_mask)

    def homogeneous_mask(self) -> int:
        m = self.ring.zero_mask
        for cm in self.components.values():
            m |= cm
        return m

    def degree_of(self, x: int) -> int | None:
        """Degree of a nonzero homogeneous element, else None."""
        parts = self.decomposition[x]
        if len(parts) == 1:
            return parts[0][0]
        return None


def decompose(grading: Grading, x: int) -> dict:
    """Map degree -> homogeneous part of x, nonzero parts only."""
    return {deg: part for deg, part in grading.decomposition[x]}


def validate_grading(ring: FiniteRing, grades: GradeGroup, raw_components: dict) -> Grading:
    """Check the full grading contract and assemble the decomposition.

    raw_components maps degree -> mask.  Zero components are dropped; the
    remaining ones must be additive subgroups meeting pairwise in 0, summing
    directly to the ring, multiplying into the right degrees, and placing the
    unity in the identity-degree component.
    """
    comps: dict = {}
    for deg, mask in raw_components.items():
        if not is_additive_subgroup(ring, mask):
            raise NotSubgroup(f"component at degree {grades.name(deg)} is not a subgroup")
        if mask != ring.zero_mask:
            comps[deg] = mask
    degs = sorted(comps)
    sizes = [comps[d].bit_count() for d in degs]
    total = 1
    for s in sizes:
        total *= s
    if total != ring.size:
        raise NotDirectSum(
            f"component sizes multiply to {total}, ring has {ring.size} elements"
        )
    member_lists = [mask_members(comps[d]) for d in degs]
    # the sum of every combination of members, in itertools.product order
    sums = np.array([ring.zero])
    for ms in member_lists:
        sums = ring.add_array[sums[:, None], ms].ravel()
    order = np.argsort(sums, kind="stable")
    repeats = order[1:][sums[order[1:]] == sums[order[:-1]]]
    if repeats.size:
        s = sums[repeats.min()]
        raise NotDirectSum(
            f"element {ring.names[s]} decomposes two ways; components overlap"
        )
    # injective + size match means every element was hit exactly once
    where = np.empty(ring.size, dtype=np.int64)
    where[sums] = np.arange(ring.size)
    # one column of (degree, part) pairs per component, None for a zero part
    columns = []
    for d, ms, c in zip(degs, member_lists, np.unravel_index(where, sizes)):
        pairs = np.empty(len(ms), dtype=object)
        pairs[:] = [(d, p) if p != ring.zero else None for p in ms]
        columns.append(pairs[c].tolist())
    decomposition = [tuple(filter(None, row)) for row in zip(*columns)]
    # `*` is biadditive and each component a subgroup, so C_d C_e lies in
    # C_de exactly when the products of their additive generators do; all
    # of those are checked in one gather, against the component each
    # nonzero homogeneous element lies in (they meet only in zero): home -1
    # marks the other elements, target -2 a degree whose component is zero
    gens = [_subgroup_generators(ring, comps[d]) for d in degs]
    home = np.full(ring.size, -1)
    for i, ms in enumerate(member_lists):
        home[ms] = i
    index = {d: i for i, d in enumerate(degs)}
    target = np.array([[index.get(grades.op(ds, dt), -2) for dt in degs] for ds in degs])
    G = np.concatenate([np.asarray(g, dtype=np.int64) for g in gens])
    of = np.repeat(np.arange(len(degs)), [len(g) for g in gens])
    products = ring.mul_array[np.ix_(G, G)]
    escaped = (home[products] != target[of[:, None], of]) & (products != ring.zero)
    if escaped.any():
        # The witness is the first escape over degree pairs, then over
        # nonzero members in row-major order, and it is a product of
        # generators: the a in C_d with a C_e inside C_de form a subgroup K,
        # and the least member outside K is the greedy generator that first
        # leaves K (generators ascend); the same holds for b given a.
        rows, cols = (x.tolist() for x in np.nonzero(escaped))
        i, j, row, col = min(zip(of[rows].tolist(), of[cols].tolist(), rows, cols))
        raise ProductEscapes(
            f"product {ring.names[G[row]]} * {ring.names[G[col]]} leaves the degree "
            f"{grades.name(grades.op(degs[i], degs[j]))} component"
        )
    e = grades.identity
    if not comps.get(e, ring.zero_mask) & (1 << ring.one):
        raise UnityNotInIdentityComponent(
            "unity is not homogeneous of the identity degree"
        )
    return Grading(
        ring=ring,
        grades=grades,
        components=comps,
        support=tuple(degs),
        decomposition=tuple(decomposition),
    )


def _subgroup_generators(ring: FiniteRing, mask: int) -> list[int]:
    """Greedy additive generators of a subgroup, in ascending order: each
    the least member outside the span of those before, as
    `ring.add_generators` are for the whole ring."""
    if mask == ring.full_mask:
        return list(ring.add_generators)
    gens, span, rows = [], ring.zero_mask, {}
    while span != mask:
        rest = mask & ~span
        g = (rest & -rest).bit_length() - 1
        gens.append(g)
        span = span_extend(ring.add_array, span, mask_members(span), 1 << g, rows)
    return gens


# ---------------------------------------------------------------------------
# canonical builders


def trivial_grading(ring: FiniteRing, grades: GradeGroup | None = None) -> Grading:
    """Everything in the identity degree."""
    if grades is None:
        grades = finite_grades(cyclic_group(1))
    return validate_grading(ring, grades, {grades.identity: ring.full_mask})


def _coefficient_line(ring: FiniteRing, base: FiniteRing, k: int) -> int:
    """Mask of the elements of a free base-module whose coordinates other
    than k are zero.  Coordinates are base-|base| digits, low first, so the
    element with coefficient c at k and the base's zero elsewhere sits at
    ring.zero + (c - base.zero) * |base|^k (see ring_core.free_algebra)."""
    step = base.size**k
    mask = 0
    for c in range(base.size):
        mask |= 1 << (ring.zero + (c - base.zero) * step)
    return mask


def _canonical(ring: FiniteRing) -> tuple[GradeGroup, dict]:
    """Grade group and unvalidated components of a group ring's or
    idealization's canonical grading."""
    base: FiniteRing = ring.parts["base"]
    if ring.construction["kind"] == "group_ring":
        group: FiniteGroup = ring.parts["group"]
        lines = {k: _coefficient_line(ring, base, k) for k in range(group.size)}
        return finite_grades(group), lines
    module = ring.parts["module"]
    n2 = module.size
    comp0 = sum(1 << (r * n2 + module.zero) for r in range(base.size))
    comp1 = sum(1 << (base.zero * n2 + m) for m in range(n2))
    return _C2, {0: comp0, 1: comp1}


def group_ring_grading(ring: FiniteRing) -> Grading:
    """Degree k component = base-multiples of group element k."""
    if ring.construction.get("kind") != "group_ring":
        raise WrongConstruction("canonical group-ring grading needs a group-ring carrier")
    return validate_grading(ring, *_canonical(ring))


def idealization_grading(ring: FiniteRing) -> Grading:
    """Two-step grading of a square-zero extension: base in degree 0, module
    in degree 1 of a two-element grade group."""
    if ring.construction.get("kind") != "idealization":
        raise WrongConstruction("canonical idealization grading needs an idealization carrier")
    return validate_grading(ring, *_canonical(ring))


def poly_quotient_integer_grading(ring: FiniteRing) -> Grading:
    """Integer grading of base[x]/(x^d) with x in degree 1; requires the
    modulus to be a pure power of x."""
    if ring.construction.get("kind") != "poly_quotient":
        raise WrongConstruction("integer grading needs a polynomial-quotient carrier")
    modulus = ring.construction["modulus"]
    base: FiniteRing = ring.parts["base"]
    d = len(modulus) - 1
    if any(c != base.zero for c in modulus[:d]):
        raise WrongConstruction(
            "integer grading needs a pure-power modulus so degrees are preserved"
        )
    comps = {k: _coefficient_line(ring, base, k) for k in range(d)}
    return validate_grading(ring, INTEGERS, comps)


def explicit_grading(
    ring: FiniteRing, grades: GradeGroup, generators: dict
) -> Grading:
    """Components given by generating sets: each degree maps to a list of
    element indices whose additive span is the component."""
    comps = {}
    for deg, gens in generators.items():
        mask = 0
        for x in gens:
            if not 0 <= x < ring.size:
                raise NotSubgroup(f"generator index {x} out of range")
            mask |= 1 << x
        comps[deg] = additive_span(ring, mask)
    return validate_grading(ring, grades, comps)


def _has_components(grading: Grading, grades: GradeGroup, components: dict) -> bool:
    """Same degrees with the same nonzero components over the same kind of
    grade group (finite grade groups must share their operation table)."""
    if grading.grades.kind != grades.kind:
        return False
    if grades.kind == "finite" and not np.array_equal(
        grading.grades.group.op_array, grades.group.op_array
    ):
        return False
    zero = grading.ring.zero_mask
    return grading.components == {d: c for d, c in components.items() if c != zero}


def same_grading(a: Grading, b: Grading) -> bool:
    """The same grading of the same ring."""
    return a.ring is b.ring and _has_components(a, b.grades, b.components)


def is_canonical(grading: Grading) -> bool:
    """Whether a group ring or an idealization carries its canonical grading."""
    return _has_components(grading, *_canonical(grading.ring))


# ---------------------------------------------------------------------------
# classifiers


def _span_of_products(grading: Grading, ds: int, dt: int) -> int:
    ring = grading.ring
    left, right = (mask_members(grading.component(d)) for d in (ds, dt))
    products = ring.mul_array[np.ix_(left, right)]
    return additive_span(ring, index_mask(products, ring.size))


def is_sigma_faithful(grading: Grading, sigma: int) -> bool:
    """No nonzero homogeneous x of degree tau is killed by the whole
    component of degree sigma*tau^-1."""
    ring = grading.ring
    g = grading.grades
    for tau in grading.support:
        left = mask_members(grading.component(g.op(sigma, g.inv(tau))))
        right = mask_members(grading.component(tau) & ~ring.zero_mask)
        # column x holds a*x for every a on the left
        if (ring.mul_array[np.ix_(left, right)] == ring.zero).all(axis=0).any():
            return False
    return True


def is_e_faithful(grading: Grading) -> bool:
    return is_sigma_faithful(grading, grading.grades.identity)


def is_faithful(grading: Grading) -> bool:
    """sigma-faithful for every degree.

    Over the integers this fails whenever the ring is nonzero: the support is
    finite, so degrees far beyond it have zero components that kill every
    nonzero homogeneous element.
    """
    if grading.grades.kind == "integers":
        return not grading.support
    return all(is_sigma_faithful(grading, s) for s in range(grading.grades.group.size))


def is_strong(grading: Grading) -> bool:
    """Products of opposite-degree components span the unity at every degree.

    That single condition is equivalent to every R_sigma R_tau filling
    R_{sigma tau}: R_{st} = R_s R_{s^-1} R_{st} lands inside R_s R_t.
    """
    ring = grading.ring
    g = grading.grades
    if g.kind == "integers":
        # any degree outside the finite support already fails unless the
        # support is trivial
        if any(s != 0 for s in grading.support):
            return False
        return bool(_span_of_products(grading, 0, 0) & (1 << ring.one))
    for s in range(g.group.size):
        if not _span_of_products(grading, s, g.inv(s)) & (1 << ring.one):
            return False
    return True


def support_is_subgroup(grading: Grading) -> bool:
    if grading.grades.kind == "integers":
        return grading.support == (0,)
    return bool(grading.support) and is_subgroup(grading.grades.group, grading.support)


def is_first_strong(grading: Grading) -> bool:
    """Support forms a subgroup and the strong condition holds across it."""
    if not support_is_subgroup(grading):
        return False
    ring = grading.ring
    g = grading.grades
    return all(
        _span_of_products(grading, s, g.inv(s)) & (1 << ring.one) for s in grading.support
    )


def classify(grading: Grading) -> dict:
    """All classifier flags at once, for reports and the command line."""
    return {
        "support": [grading.grades.name(s) for s in grading.support],
        "e_faithful": is_e_faithful(grading),
        "faithful": is_faithful(grading),
        "strong": is_strong(grading),
        "first_strong": is_first_strong(grading),
        "support_is_subgroup": support_is_subgroup(grading),
    }
