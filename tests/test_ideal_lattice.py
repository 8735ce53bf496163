import contextlib
import dataclasses
import itertools
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import ideal_lattice
from idealgraphs import (
    IdealCountLimit,
    IdealSet,
    NotSubgroup,
    UngradedIdeal,
    algebra_over_zn,
    cyclic_group,
    direct_product,
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    enumerate_submodules,
    generated_left_ideal,
    group_ring,
    group_ring_grading,
    ideal_label,
    ideal_power,
    ideal_product,
    ideal_sum,
    internal_decompositions,
    is_essential,
    is_graded,
    is_graded_division,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_reduced,
    is_left_ideal,
    is_maximal,
    is_minimal,
    make_cyclic_ring,
    maximal_chain_term_counts,
    maximal_members,
    min_generator_count,
    minimal_members,
    module_self,
    module_zn_quotient,
    nontrivial_proper,
    poly_quotient_integer_grading,
    trivial_grading,
)
from idealgraphs.ideal_lattice import known_sum
from idealgraphs.ring_core import additive_span, is_additive_subgroup
from oracles import (
    as_lists,
    brute_additive_span,
    brute_graded_left_ideal_masks,
    brute_left_ideal_masks,
    brute_submodule_masks,
    relabelled_grading,
    relabelled_ring,
)
from oracles import is_graded as oracle_is_graded
from oracles import ideal_label as oracle_label
from test_ring_core import ORACLE_RINGS


def ideal_masks(family):
    return {i.mask for i in family}


class TestEnumerationAgainstBruteForce:
    def test_small_corpus_rings_full_lattice(self, small_instances):
        for name, inst in small_instances.items():
            expected = brute_left_ideal_masks(inst.ring)
            got = ideal_masks(inst.full.family)
            assert got == expected, f"{name}: left ideal lattice mismatch"

    def test_small_corpus_rings_graded_lattice(self, small_instances):
        for name, inst in small_instances.items():
            expected = brute_graded_left_ideal_masks(inst.ring, inst.grading)
            got = ideal_masks(inst.graded_family)
            assert got == expected, f"{name}: graded lattice mismatch"

    def test_submodules_against_brute_force(self):
        z4 = make_cyclic_ring(4)
        mod = module_self(z4)
        assert set(enumerate_submodules(mod)) == brute_submodule_masks(mod)


class _RowReads(np.ndarray):
    """An addition array that counts the reads of each single row."""

    def __getitem__(self, index):
        if isinstance(index, int):
            self.counts[index] += 1
        return np.asarray(super().__getitem__(index))


def _counting(add):
    add = add.view(_RowReads)
    add.counts = Counter()
    return add


ORACLE_GRADINGS = {"Z2[C4]": group_ring_grading, "Z4[x]/(x^2)": poly_quotient_integer_grading}


class TestEnumerationsReadEachRowOnce:
    # each enumeration keeps the addition rows it has read, so a row is
    # converted once however many spans step along it

    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_left_ideals(self, name):
        ring = ORACLE_RINGS[name]
        counted = dataclasses.replace(ring, add_array=_counting(ring.add_array))
        family = enumerate_left_ideals(counted)
        assert ideal_masks(family) == brute_left_ideal_masks(ring)
        assert max(counted.add_array.counts.values()) == 1

    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_graded_left_ideals(self, name):
        ring = ORACLE_RINGS[name]
        grade = ORACLE_GRADINGS.get(name, trivial_grading)
        counted = dataclasses.replace(ring, add_array=_counting(ring.add_array))
        grading = grade(counted)
        counted.add_array.counts.clear()
        family = enumerate_graded_left_ideals(grading)
        assert ideal_masks(family) == brute_graded_left_ideal_masks(ring, grade(ring))
        assert max(counted.add_array.counts.values()) == 1

    @pytest.mark.parametrize(
        "name, quotient", [(name, None) for name in sorted(ORACLE_RINGS)] + [("Z12", 4), ("Z12", 6)]
    )
    def test_submodules(self, name, quotient):
        ring = ORACLE_RINGS[name]
        module = module_self(ring) if quotient is None else module_zn_quotient(ring, quotient)
        vars(module)["add_array"] = add = _counting(module.add_array)
        assert set(enumerate_submodules(module)) == brute_submodule_masks(module)
        assert max(add.counts.values()) == 1


class _CountedReads(tuple):
    """An orbit table that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@contextlib.contextmanager
def counted_work():
    """Count, inside the block, the spans taken (their base and extra masks)
    and, for the last enumeration, its orbit reads, candidates, distinct
    orbits and family size."""
    work = {"spans": []}
    enumerate_closed, span_extend = ideal_lattice._enumerate_closed, ideal_lattice.span_extend

    def counted_enumerate(add, zero, orbit_masks, candidates, max_count, what):
        candidates = list(candidates)
        work["orbits"] = orbits = _CountedReads(orbit_masks)
        work["candidates"] = len(candidates)
        work["distinct"] = len({orbit_masks[x] for x in candidates})
        found = enumerate_closed(add, zero, orbits, candidates, max_count, what)
        work["found"] = len(found)
        return found

    def counted_span(add, base_mask, base_members, extra_mask, rows=None):
        work["spans"].append((base_mask, extra_mask))
        return span_extend(add, base_mask, base_members, extra_mask, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideal_lattice, "_enumerate_closed", counted_enumerate)
        mp.setattr(ideal_lattice, "span_extend", counted_span)
        yield work


def assert_orbit_work(work):
    # each candidate's orbit is read once, and a sum already found is read
    # from the lattice by its order, so each closed set but {0} costs one span
    assert work["orbits"].reads == work["candidates"]
    assert len(work["spans"]) == work["found"] - 1


class TestEnumerationWork:
    # cur + R*x depends on x only through its orbit R*x, so an enumeration
    # tries distinct orbits, not candidates; the families stay the brute ones

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_left_ideals(self, data):
        base = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        ring = relabelled_ring(base, data.draw(st.permutations(range(base.size))))
        with counted_work() as work:
            family = enumerate_left_ideals(ring)
        assert ideal_masks(family) == brute_left_ideal_masks(ring)
        assert_orbit_work(work)
        assert work["distinct"] < work["candidates"] == ring.size

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_graded_left_ideals(self, data):
        name = data.draw(st.sampled_from(sorted(ORACLE_RINGS)))
        base = ORACLE_GRADINGS.get(name, trivial_grading)(ORACLE_RINGS[name])
        at = data.draw(st.permutations(range(base.ring.size)))
        grading = relabelled_grading(base, at)
        with counted_work() as work:
            family = enumerate_graded_left_ideals(grading)
        assert ideal_masks(family) == brute_graded_left_ideal_masks(grading.ring, grading)
        assert_orbit_work(work)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_submodules(self, data):
        base = ORACLE_RINGS[data.draw(st.sampled_from(sorted(ORACLE_RINGS)))]
        at = data.draw(st.permutations(range(base.size)))
        module = module_self(relabelled_ring(base, at))
        with counted_work() as work:
            family = enumerate_submodules(module)
        assert set(family) == brute_submodule_masks(module)
        assert_orbit_work(work)

    @pytest.mark.parametrize("quotient", [4, 6])
    def test_quotient_submodules(self, quotient):
        module = module_zn_quotient(ORACLE_RINGS["Z12"], quotient)
        with counted_work() as work:
            family = enumerate_submodules(module)
        assert set(family) == brute_submodule_masks(module)
        assert_orbit_work(work)

    def test_f2_to_the_7_takes_one_span_per_ideal(self):
        # 2^7 ideals, each a sum of cur and an orbit that 128 other pairs
        # also reach; probing every pair spans thousands of times
        ring = reduce(direct_product, [make_cyclic_ring(2)] * 7)
        with counted_work() as work:
            family = enumerate_left_ideals(ring)
        assert len(family) == work["found"] == 128
        assert len(work["spans"]) == 127

    def test_an_orbit_that_is_no_subgroup_is_refused(self):
        # {0, 1} in Z4 spans all of Z4, not the predicted two elements
        z4 = make_cyclic_ring(4)
        orbits = [1 << z4.zero | 1 << x for x in range(4)]
        with pytest.raises(NotSubgroup, match="orbit 0x3 is not an additive subgroup"):
            ideal_lattice._enumerate_closed(z4.add_array, z4.zero, orbits, [1], 16, "test")

    def test_the_cap_still_stops_an_enumeration(self):
        ring = reduce(direct_product, [make_cyclic_ring(2)] * 4)
        with pytest.raises(IdealCountLimit, match="left ideal family exceeds the cap 15"):
            enumerate_left_ideals(ring, max_ideals=15)
        assert len(enumerate_left_ideals(ring, max_ideals=16)) == 16


class TestSumsByOrder:
    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_known_sum_is_the_span(self, name):
        ring = ORACLE_RINGS[name]
        family = [i.mask for i in enumerate_left_ideals(ring)]
        by_order = {}
        for mask in family:
            by_order.setdefault(mask.bit_count(), []).append(mask)
        top = {ring.size: [ring.full_mask]}
        add = as_lists(ring.add_array)
        for a in family:
            for b in family:
                span = brute_additive_span(add, ring.zero, a | b)
                assert known_sum(by_order, a, b) == span
                # a bucket without the sum answers None, never a wrong set
                assert known_sum(top, a, b) == (span if span == ring.full_mask else None)


class TestSumWork:
    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_comparable_ideals_take_no_span(self, name):
        ring = ORACLE_RINGS[name]
        family = [i.mask for i in enumerate_left_ideals(ring)]
        incomparable = 0
        add = as_lists(ring.add_array)
        with counted_work() as work:
            for a in family:
                for b in family:
                    expected = brute_additive_span(add, ring.zero, a | b)
                    assert ideal_sum(ring, a, b) == expected
                    if a | b not in (a, b):
                        incomparable += 1
                        larger = b if b.bit_count() > a.bit_count() else a
                        assert work["spans"][-1] == (larger, a ^ b ^ larger)
        # one span for each incomparable ordered pair, none for the rest
        assert len(work["spans"]) == incomparable


class TestFrozenLattices:
    def test_z12_ideals(self):
        z12 = make_cyclic_ring(12)
        family = enumerate_left_ideals(z12)
        labels = sorted(i.label() for i in nontrivial_proper(family))
        assert labels == ["<2>", "<3>", "<4>", "<6>"]
        by_label = {i.label(): i for i in family}
        assert by_label["<6>"].size == 2
        assert by_label["<2>"].size == 6

    def test_z12_minimal_and_maximal(self):
        z12 = make_cyclic_ring(12)
        family = enumerate_left_ideals(z12)
        assert sorted(i.label() for i in minimal_members(family)) == ["<4>", "<6>"]
        assert sorted(i.label() for i in maximal_members(family)) == ["<2>", "<3>"]

    def test_generated_ideal(self):
        z12 = make_cyclic_ring(12)
        assert generated_left_ideal(z12, [8]) == sum(1 << m for m in (0, 4, 8))
        assert generated_left_ideal(z12, []) == 1 << 0

    def test_graded_family_drops_mixed_ideals(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        all_labels = {i.label() for i in inst.full.graph.vertices}
        graded_labels = {i.label() for i in inst.graded_graph.vertices}
        assert all_labels - graded_labels == {"<x+y>"}
        assert len(graded_labels) == 3


    def test_ungraded_result_is_an_error(self, corpus_instances, monkeypatch):
        grading = corpus_instances["z4c2"].grading
        monkeypatch.setattr(ideal_lattice, "is_graded", lambda grading, mask: False)
        with pytest.raises(UngradedIdeal):
            enumerate_graded_left_ideals(grading)


class TestPredicates:
    @pytest.fixture
    def z12_family(self):
        z12 = make_cyclic_ring(12)
        return z12, enumerate_left_ideals(z12)

    def test_minimal_maximal_essential(self, z12_family):
        z12, family = z12_family
        by_label = {i.label(): i for i in family}
        assert is_minimal(by_label["<6>"], family)
        assert not is_minimal(by_label["<2>"], family)
        assert is_maximal(by_label["<2>"], family)
        assert not is_maximal(by_label["<6>"], family)
        # <2> meets every nonzero ideal; <4> misses <3>
        assert is_essential(by_label["<2>"], family)
        assert not is_essential(by_label["<4>"], family)

    def test_trivial_members_are_neither(self, z12_family):
        _, family = z12_family
        by_label = {i.label(): i for i in family}
        assert not is_minimal(by_label["<0>"], family)
        assert not is_maximal(by_label["<1>"], family)

    def test_left_ideal_recognizer(self):
        z12 = make_cyclic_ring(12)
        assert is_left_ideal(z12, 1 << 0 | 1 << 4 | 1 << 8)
        assert not is_left_ideal(z12, 1 << 0 | 1 << 4)  # not additively closed
        assert not is_left_ideal(z12, 1 << 4 | 1 << 8)  # misses zero


class TestIdealArithmetic:
    def test_sum_product_intersect(self):
        z12 = make_cyclic_ring(12)
        four = generated_left_ideal(z12, [4])
        six = generated_left_ideal(z12, [6])
        two = generated_left_ideal(z12, [2])
        assert ideal_sum(z12, four, six) == two
        assert four & six == 1 << 0
        assert ideal_product(z12, four, six) == 1 << 0
        assert ideal_product(z12, two, two) == four

    def test_ideal_power(self):
        z12 = make_cyclic_ring(12)
        two = generated_left_ideal(z12, [2])
        assert ideal_power(z12, two, 0) == (1 << 12) - 1
        assert ideal_power(z12, two, 1) == two
        assert ideal_power(z12, two, 2) == generated_left_ideal(z12, [4])

    def test_min_generator_count(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        ring = inst.ring
        m = max(inst.full.graph.vertices, key=lambda i: i.size)  # the radical
        assert m.label() == "<x,y>"
        assert min_generator_count(ring, m.mask) == 2
        assert min_generator_count(ring, m.mask, limit=1) is None
        x_ideal = generated_left_ideal(ring, [2])
        assert min_generator_count(ring, x_ideal) == 1


# upper triangular 2x2 matrices over Z2 on the basis 1, E11, E12
T2_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
]


def _span_rings():
    """Rings whose additive groups are cyclic, Z2 x Z6, Z4 x Z4, (Z2)^3 and
    (Z2)^4, with their left ideal masks."""
    z2, z4 = make_cyclic_ring(2), make_cyclic_ring(4)
    rings = {
        "Z12": make_cyclic_ring(12),
        "Z2xZ6": direct_product(z2, make_cyclic_ring(6)),
        "Z4[C2]": group_ring(z4, cyclic_group(2)),
        "T2(Z2)": algebra_over_zn(2, 3, T2_TABLE),
        "Z2[C4]": group_ring(z2, cyclic_group(4)),
    }
    return {
        name: (ring, [i.mask for i in enumerate_left_ideals(ring)])
        for name, ring in rings.items()
    }


SPAN_RINGS = _span_rings()


class TestSpansAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_spans_match_pairwise_closure(self, data):
        ring, family = SPAN_RINGS[data.draw(st.sampled_from(sorted(SPAN_RINGS)))]
        elements = st.integers(0, ring.size - 1)
        seeds = data.draw(st.lists(elements, max_size=4))
        seed_mask = sum(1 << x for x in set(seeds))
        add, mul = as_lists(ring.add_array), as_lists(ring.mul_array)
        span = brute_additive_span(add, ring.zero, seed_mask)
        assert additive_span(ring, seed_mask) == span
        assert is_additive_subgroup(ring, seed_mask) == (span == seed_mask)

        products = sum({1 << mul[r][x] for r in range(ring.size) for x in seeds})
        assert generated_left_ideal(ring, seeds) == brute_additive_span(add, ring.zero, products)

        a = data.draw(st.sampled_from(family))
        b = data.draw(st.sampled_from(family))
        assert ideal_sum(ring, a, b) == brute_additive_span(add, ring.zero, a | b)


LABEL_RINGS = {name: ring for name, (ring, _) in SPAN_RINGS.items()}
# Z4 with residue a stored at index [2, 0, 3, 1][a]: zero at index 2
LABEL_RINGS["Z4 zero at 2"] = relabelled_ring(make_cyclic_ring(4), [2, 0, 3, 1])


class TestLabelsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(LABEL_RINGS))
    def test_every_ideal(self, name):
        ring = LABEL_RINGS[name]
        for ideal in enumerate_left_ideals(ring):
            assert ideal.label() == oracle_label(ring, ideal.mask)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_ideal_under_relabelling(self, data):
        # a relabelling reorders the members, and so the order in which the
        # search meets generators; each example's ring is new, so every
        # label is searched, and asking again reads the memo
        base = LABEL_RINGS[data.draw(st.sampled_from(sorted(LABEL_RINGS)))]
        ring = relabelled_ring(base, data.draw(st.permutations(range(base.size))))
        family = enumerate_left_ideals(ring)
        expected = {i.mask: oracle_label(ring, i.mask) for i in family}
        for ideal in family:
            assert ideal_label(ring, ideal.mask) == expected[ideal.mask]
        assert {i.mask: i.label() for i in family} == expected
        # a set that need not be an ideal takes the same search
        mask = data.draw(st.integers(0, ring.full_mask))
        assert ideal_label(ring, mask) == oracle_label(ring, mask)


class TestGradedStructureFlags:
    def test_field_flags(self, corpus_instances):
        f4 = corpus_instances["f4"]
        assert is_graded_field(f4.grading)
        assert is_graded_division(f4.grading)
        assert is_graded_domain(f4.grading)
        assert is_graded_reduced(f4.grading)

    def test_group_ring_graded_field_despite_nilpotents(self, corpus_instances):
        # every nonzero homogeneous element of the two-element group algebra
        # is invertible even though 1+g squares to zero
        inst = corpus_instances["z2c2"]
        assert is_graded_field(inst.grading)
        assert is_graded_domain(inst.grading)

    def test_nilpotents_break_reducedness(self, corpus_instances):
        inst = corpus_instances["z4"]
        assert not is_graded_reduced(inst.grading)
        assert not is_graded_domain(inst.grading)

    def test_local_and_indecomposable(self, corpus_instances):
        z12 = corpus_instances["z12"]
        assert not is_graded_local(z12.grading, z12.graded_family)
        assert z12.graded_decompositions  # graded splittings: not indecomposable
        f2x3 = corpus_instances["f2x3"]
        assert is_graded_local(f2x3.grading, f2x3.graded_family)
        assert not f2x3.graded_decompositions

    def test_internal_decompositions_of_z12(self, corpus_instances):
        z12 = corpus_instances["z12"]
        pairs = internal_decompositions(z12.ring, z12.graded_family)
        labels = {frozenset((a.label(), b.label())) for a, b in pairs}
        assert labels == {frozenset(("<4>", "<3>"))}


def _ideals_sums_and_intersections(ring):
    family = [i.mask for i in enumerate_left_ideals(ring)]
    out = set(family)
    add = as_lists(ring.add_array)
    for a, b in itertools.combinations(family, 2):
        out |= {brute_additive_span(add, ring.zero, a | b), a & b}
    return out


class TestGradedByCounting:
    # |I| = prod |I & R_d| for a subgroup I against the walk over every
    # member's homogeneous parts

    @staticmethod
    def verdicts(grading):
        masks = _ideals_sums_and_intersections(grading.ring)
        got = {m: is_graded(grading, m) for m in masks}
        assert got == {m: oracle_is_graded(grading, m) for m in masks}
        return set(got.values())

    def test_oracle_rings_and_gradings(self):
        seen = set()
        for name, ring in sorted(ORACLE_RINGS.items()):
            seen |= self.verdicts(ORACLE_GRADINGS.get(name, trivial_grading)(ring))
        assert seen == {True, False}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_under_relabelling(self, data):
        name = data.draw(st.sampled_from(sorted(ORACLE_RINGS)))
        base = ORACLE_GRADINGS.get(name, trivial_grading)(ORACLE_RINGS[name])
        self.verdicts(relabelled_grading(base, data.draw(st.permutations(range(base.ring.size)))))

    def test_small_corpus_gradings(self, small_instances):
        seen = set()
        for inst in small_instances.values():
            seen |= self.verdicts(inst.grading)
        assert seen == {True, False}


def _spanned_decompositions(ring, family):
    add = as_lists(ring.add_array)
    return [
        (a, b)
        for a, b in itertools.combinations(nontrivial_proper(family), 2)
        if a.mask & b.mask == ring.zero_mask
        and brute_additive_span(add, ring.zero, a.mask | b.mask) == ring.full_mask
    ]


class TestDecompositionsByCounting:
    # disjoint a and b sum to R exactly when |a| |b| = |R|

    @pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
    def test_oracle_ring_families(self, name):
        ring = ORACLE_RINGS[name]
        grading = ORACLE_GRADINGS.get(name, trivial_grading)(ring)
        for family in (enumerate_left_ideals(ring), enumerate_graded_left_ideals(grading)):
            assert internal_decompositions(ring, family) == _spanned_decompositions(ring, family)

    def test_corpus_graded_families(self, corpus_instances):
        found = 0
        for name, inst in corpus_instances.items():
            expected = _spanned_decompositions(inst.ring, inst.graded_family)
            assert internal_decompositions(inst.ring, inst.graded_family) == expected, name
            found += len(expected)
        assert found > 0


class TestChains:
    def test_chain_term_counts(self):
        f2 = make_cyclic_ring(2)
        from idealgraphs import polynomial_quotient

        ring = polynomial_quotient(f2, [0, 0, 0, 1])
        family = enumerate_left_ideals(ring)
        assert maximal_chain_term_counts(family) == {4}
        z12 = make_cyclic_ring(12)
        counts = maximal_chain_term_counts(enumerate_left_ideals(z12))
        assert counts == {4}  # both chains through <2> and <3> have four terms


class TestIdealSetBasics:
    def test_labels_and_ordering(self):
        z12 = make_cyclic_ring(12)
        family = enumerate_left_ideals(z12)
        ordered = sorted(family, key=lambda i: i.sort_key())
        assert ordered[0].label() == "<0>"
        assert ordered[-1].label() == "<1>"
        assert ordered[0].is_zero and ordered[-1].is_full

    def test_contains(self):
        z12 = make_cyclic_ring(12)
        two = IdealSet(ring=z12, mask=generated_left_ideal(z12, [2]))
        four = IdealSet(ring=z12, mask=generated_left_ideal(z12, [4]))
        assert two.contains(four)
        assert not four.contains(two)

    def test_graded_flag_matches_predicate(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        for ideal in inst.full.family:
            assert is_graded(inst.grading, ideal.mask) == (
                ideal.mask in {i.mask for i in inst.graded_family}
            )


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_cyclic_ideal_count_matches_divisor_count(n):
    # left ideals of a cyclic ring are exactly the subgroups d*Z_n for d | n
    ring = make_cyclic_ring(n)
    family = enumerate_left_ideals(ring)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(family) == len(divisors)
    assert {i.mask for i in family} == {
        generated_left_ideal(ring, [d % n]) for d in divisors
    }
