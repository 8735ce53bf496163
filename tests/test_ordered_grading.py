import math

import pytest

from idealgraphs import (
    IdealSet,
    Instance,
    NotIntegerGraded,
    cyclic_group,
    finite_grades,
    generated_left_ideal,
    leading_ideal,
    leading_part,
    lemma_ll_check,
    make_cyclic_ring,
    ordered_comparison_check,
    trivial_grading,
)


class TestLeadingParts:
    def test_leading_part_picks_top_degree(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        x, y = 2, 4
        assert leading_part(inst.grading, x + y) == y
        assert leading_part(inst.grading, x) == x
        assert leading_part(inst.grading, 1 + x) == x

    def test_leading_ideal_of_mixed_generator(self, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        ring = inst.ring
        source = IdealSet(ring=ring, mask=generated_left_ideal(ring, [6]))  # (x+y)
        result = leading_ideal(inst.grading, source)
        assert result.leading.mask == generated_left_ideal(ring, [4])  # (y)
        assert result.source.mask == source.mask
        # the trace records which member produced which leading part
        assert (6, 4) in result.generator_trace

    def test_graded_ideal_is_fixed(self, corpus_instances):
        inst = corpus_instances["f2x3"]
        for v in inst.graded_vertices:
            assert leading_ideal(inst.grading, v).leading.mask == v.mask

    def test_rejects_finite_grade_groups(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        with pytest.raises(NotIntegerGraded):
            leading_part(inst.grading, 2)


class TestClosureProperties:
    @pytest.mark.parametrize("name", ["f2x3", "f2x4", "f2xy_12", "f2xy_11", "m2f2", "z8_int"])
    def test_all_parts_hold_on_corpus(self, corpus_instances, name):
        inst = corpus_instances[name]
        rep = lemma_ll_check(inst.grading, inst.all_family)
        assert rep["ok"], rep["violations"]
        assert set(rep["parts"]) == {
            "fixed_iff_graded",
            "zero_iff_zero",
            "monotone",
            "nested_separated",
            "idempotent",
        }
        assert all(rep["parts"].values())

    def test_mixed_ideal_moves(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        graded_masks = {i.mask for i in inst.graded_family}
        moved = [
            i
            for i in inst.all_vertices
            if leading_ideal(inst.grading, i).leading.mask != i.mask
        ]
        assert moved  # the mixed-generator column ideal must move
        assert all(i.mask not in graded_masks for i in moved)


class TestOrderedComparison:
    def test_local_chain_ring(self, corpus_instances):
        inst = corpus_instances["f2x3"]
        rep = ordered_comparison_check(
            inst.grading,
            inst.graded_family,
            inst.all_family,
            inst.graded_graph,
            inst.all_graph,
        )
        assert rep["local"]
        assert rep["connectivity_agrees"]
        assert rep["girth_agrees"]
        assert rep["graded_girth"] == math.inf and rep["all_girth"] == math.inf
        assert rep["chain_term_counts"] == [4]
        assert not rep["branch_triggered"]

    def test_triangle_case(self, corpus_instances):
        inst = corpus_instances["f2x4"]
        rep = ordered_comparison_check(
            inst.grading,
            inst.graded_family,
            inst.all_family,
            inst.graded_graph,
            inst.all_graph,
        )
        assert rep["graded_girth"] == 3 and rep["all_girth"] == 3
        assert rep["girth_agrees"]
        assert not rep["branch_triggered"]

    def test_nonlocal_ring_skips_girth_comparison(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        rep = ordered_comparison_check(
            inst.grading,
            inst.graded_family,
            inst.all_family,
            inst.graded_graph,
            inst.all_graph,
        )
        assert not rep["local"]
        assert rep["girth_agrees"] is None
        assert rep["connectivity_agrees"]

    def test_rejects_finite_grade_groups(self):
        z4 = make_cyclic_ring(4)
        g = trivial_grading(z4, finite_grades(cyclic_group(2)))
        inst = Instance(name="z4", ring=z4, grading=g)

        with pytest.raises(NotIntegerGraded):
            ordered_comparison_check(
                g, inst.graded_family, inst.all_family, inst.graded_graph, inst.all_graph
            )
