import pytest

import idealgraphs.theorem_suite as suite
from idealgraphs import (
    Instance,
    NotIntegerGraded,
    WrongInstanceKind,
    cyclic_group,
    finite_grades,
    generated_left_ideal,
    leading_ideal,
    leading_part,
    make_cyclic_ring,
    run_all,
    run_check,
    trivial_grading,
)

LAWS = ["fixed_iff_graded", "zero_iff_zero", "monotone", "nested_separated", "idempotent"]


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
        source = generated_left_ideal(ring, [6])  # (x+y)
        assert leading_ideal(inst.grading, source) == generated_left_ideal(ring, [4])  # (y)

    def test_graded_ideal_is_fixed(self, corpus_instances):
        inst = corpus_instances["f2x3"]
        for v in inst.graded_graph.vertices:
            assert leading_ideal(inst.grading, v.mask) == v.mask

    def test_rejects_finite_grade_groups(self, corpus_instances):
        inst = corpus_instances["z4c2"]
        with pytest.raises(NotIntegerGraded):
            leading_part(inst.grading, 2)


class TestClosureProperties:
    @pytest.mark.parametrize("name", ["f2x3", "f2x4", "f2xy_12", "f2xy_11", "m2f2", "z8_int"])
    def test_all_parts_hold_on_corpus(self, corpus_instances, name):
        rep = run_check(corpus_instances[name], "lemma_ll")
        assert rep.verdict == "PASS", rep.witness
        assert [law for law, _ in rep.directions] == LAWS
        assert all(v == "PASS" for _, v in rep.directions)

    def test_mixed_ideal_moves(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        graded_masks = {i.mask for i in inst.graded_family}
        moved = [
            i for i in inst.full.graph.vertices if leading_ideal(inst.grading, i.mask) != i.mask
        ]
        assert moved  # the mixed-generator column ideal must move
        assert all(i.mask not in graded_masks for i in moved)

    def test_violation_is_reported_with_its_law(self, corpus_instances, monkeypatch):
        # a companion that sends every ideal to the whole ring breaks the laws
        clean = corpus_instances["f2x3"]
        monkeypatch.setattr(suite, "leading_ideal", lambda grading, mask: grading.ring.full_mask)
        inst = Instance(name="f2x3", ring=clean.ring, grading=clean.grading)
        (rep,) = run_all(inst, ["lemma_ll"])
        assert rep.verdict == "FAIL"
        assert isinstance(rep.witness, str)
        assert rep.witness.startswith("fixed_iff_graded: ")
        failed = {law for law, v in rep.directions if v == "FAIL"}
        assert failed == {"fixed_iff_graded", "zero_iff_zero", "nested_separated"}
        assert "nested_separated: " in rep.witness


class TestOrderedComparison:
    def test_local_chain_ring(self, corpus_instances):
        inst = corpus_instances["f2x3"]
        t543, t544, r545 = run_all(inst, ["t543", "t544", "r545"])
        assert t544.details["local"]
        assert t543.directions == (("connectivity_agrees", "PASS"),)
        assert t544.directions == (("girth_agrees", "PASS"),)
        assert t544.details["graded_girth"] == t544.details["all_girth"] == "inf"
        assert r545.details["chain_term_counts"] == [4]
        assert not r545.details["branch_triggered"]

    def test_triangle_case(self, corpus_instances):
        inst = corpus_instances["f2x4"]
        t544, r545 = run_all(inst, ["t544", "r545"])
        assert t544.details["graded_girth"] == t544.details["all_girth"] == "3"
        assert t544.directions == (("girth_agrees", "PASS"),)
        assert not r545.details["branch_triggered"]

    def test_nonlocal_ring_skips_girth_comparison(self, corpus_instances):
        inst = corpus_instances["m2f2"]
        t543, t544 = run_all(inst, ["t543", "t544"])
        assert not t544.details["local"]
        assert t544.verdict == "VACUOUS" and t544.directions == ()
        assert t543.directions == (("connectivity_agrees", "PASS"),)

    def test_rejects_finite_grade_groups(self):
        z4 = make_cyclic_ring(4)
        g = trivial_grading(z4, finite_grades(cyclic_group(2)))
        inst = Instance(name="z4", ring=z4, grading=g)

        for tid in ("lemma_ll", "t543", "t544", "r545"):
            with pytest.raises(WrongInstanceKind):
                run_check(inst, tid)
        with pytest.raises(NotIntegerGraded):
            leading_ideal(g, z4.full_mask)
