import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgraphs import ideal_lattice
from idealgraphs import (
    IdealSet,
    UngradedIdeal,
    algebra_over_zn,
    cyclic_group,
    direct_product,
    enumerate_graded_left_ideals,
    enumerate_left_ideals,
    enumerate_submodules,
    generated_left_ideal,
    group_ring,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_sum,
    internal_decompositions,
    is_essential,
    is_graded,
    is_graded_division,
    is_graded_domain,
    is_graded_field,
    is_graded_indecomposable,
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
    nontrivial_proper,
    trivial_grading,
)
from idealgraphs.ring_core import additive_span, is_additive_subgroup
from oracles import (
    brute_additive_span,
    brute_graded_left_ideal_masks,
    brute_left_ideal_masks,
    brute_submodule_masks,
)


def ideal_masks(family):
    return {i.mask for i in family}


class TestEnumerationAgainstBruteForce:
    def test_small_corpus_rings_full_lattice(self, small_instances):
        for name, inst in small_instances.items():
            expected = brute_left_ideal_masks(inst.ring)
            got = ideal_masks(inst.all_family)
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
        all_labels = {i.label() for i in inst.all_vertices}
        graded_labels = {i.label() for i in inst.graded_vertices}
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
        assert ideal_intersect(four, six) == 1 << 0
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
        m = max(inst.all_vertices, key=lambda i: i.size)  # the radical
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
        span = brute_additive_span(ring.add, ring.zero, seed_mask)
        assert additive_span(ring, seed_mask) == span
        assert is_additive_subgroup(ring, seed_mask) == (span == seed_mask)

        products = sum({1 << ring.mul[r][x] for r in range(ring.size) for x in seeds})
        assert generated_left_ideal(ring, seeds) == brute_additive_span(
            ring.add, ring.zero, products
        )

        a = data.draw(st.sampled_from(family))
        b = data.draw(st.sampled_from(family))
        assert ideal_sum(ring, a, b) == brute_additive_span(ring.add, ring.zero, a | b)


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
        assert not is_graded_indecomposable(z12.grading, z12.graded_family)
        f2x3 = corpus_instances["f2x3"]
        assert is_graded_local(f2x3.grading, f2x3.graded_family)
        assert is_graded_indecomposable(f2x3.grading, f2x3.graded_family)

    def test_internal_decompositions_of_z12(self, corpus_instances):
        z12 = corpus_instances["z12"]
        pairs = internal_decompositions(z12.ring, z12.graded_family)
        labels = {frozenset((a.label(), b.label())) for a, b in pairs}
        assert labels == {frozenset(("<4>", "<3>"))}


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
        for ideal in inst.all_family:
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
