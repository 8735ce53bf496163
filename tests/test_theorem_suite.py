import pytest

import idealgraphs.theorem_suite as suite
from idealgraphs import (
    Instance,
    UnknownTheorem,
    WrongInstanceKind,
    graph_from_edges,
    make_cyclic_ring,
    run_all,
    run_check,
    theorem_ids,
    theorem_summary,
    trivial_grading,
)
from idealgraphs.cli import load_instance

ALL_IDS = [
    "lemma_b", "lemma_r1", "t1", "c1", "c11", "c101", "t2", "t51", "t52",
    "t6", "l18", "l187", "t3", "t4", "t100", "lemma51", "t1001",
    "conn_equiv", "gamma_eq", "omega_formula", "lemma_l0", "t56",
    "groupring_example", "lemma17", "t777", "t777_cor", "t231",
    "planarity_cor", "lemma_ll", "t543", "t544", "r545",
]


def verdict_map(inst):
    return {r.theorem_id: r.verdict for r in run_all(inst)}


class TestRegistry:
    def test_ids_and_order(self):
        assert theorem_ids() == ALL_IDS

    def test_summaries_exist(self):
        for tid in ALL_IDS:
            assert theorem_summary(tid)

    def test_unknown_id_raises(self, corpus_instances):
        inst = corpus_instances["z12"]
        with pytest.raises(UnknownTheorem):
            run_check(inst, "t999")
        with pytest.raises(UnknownTheorem):
            run_all(inst, ["t1", "nope"])

    def test_wrong_kind_raises_on_direct_call(self, corpus_instances):
        inst = corpus_instances["z12"]
        with pytest.raises(WrongInstanceKind):
            run_check(inst, "lemma17")

    def test_wrong_kind_skipped_in_run_all(self, corpus_instances):
        verdicts = verdict_map(corpus_instances["z12"])
        assert verdicts["lemma17"] == "SKIPPED"
        assert verdicts["groupring_example"] == "SKIPPED"
        assert verdicts["lemma_ll"] == "SKIPPED"


class TestKindRequirements:
    @pytest.mark.parametrize(
        "name, builder",
        [("z4_self", "idealization_grading"), ("z2c3", "group_ring_grading")],
    )
    def test_canonical_grading_built_once_per_instance(
        self, corpus_dir, corpus_instances, monkeypatch, name, builder
    ):
        calls = []
        real = getattr(suite, builder)

        def counting(ring):
            calls.append(ring)
            return real(ring)

        monkeypatch.setattr(suite, builder, counting)
        inst = load_instance(str(corpus_dir / f"{name}.json"))
        first = verdict_map(inst)
        assert verdict_map(inst) == first
        assert len(calls) == 1
        assert first == verdict_map(corpus_instances[name])

    def test_unknown_requirement_still_raises(self, corpus_instances):
        with pytest.raises(ValueError):
            corpus_instances["z12"].matches("matrix_ring")


class TestNoFailuresOnCorpus:
    def test_every_corpus_instance_is_clean(self, corpus_instances):
        for name, inst in corpus_instances.items():
            bad = [r for r in run_all(inst) if r.verdict == "FAIL"]
            assert not bad, f"{name}: {[(r.theorem_id, r.witness) for r in bad]}"


class TestFrozenVerdicts:
    def test_z12(self, corpus_instances):
        v = verdict_map(corpus_instances["z12"])
        assert v["lemma_b"] == v["lemma_r1"] == v["t1"] == "PASS"
        assert v["c1"] == "VACUOUS"  # connected graph
        assert v["t2"] == v["t3"] == "PASS"
        assert v["t4"] == "VACUOUS"  # girth three
        assert v["t1001"] == v["conn_equiv"] == "PASS"
        assert v["t56"] == "PASS"  # trivial gradings are first strong

    def test_matrix_ring(self, corpus_instances):
        v = verdict_map(corpus_instances["m2f2"])
        assert v["c1"] == "PASS"  # disconnected graded graph, non-vacuous
        assert v["c11"] == "VACUOUS"  # noncommutative
        assert v["t51"] == "VACUOUS"
        assert v["t2"] == "VACUOUS"  # disconnected
        assert v["t1001"] == "PASS"  # identity faithful
        assert v["lemma_l0"] == "VACUOUS"  # not first strong
        assert v["t544"] == "VACUOUS"  # not local
        assert v["lemma_ll"] == "PASS"

    def test_group_ring_example(self, corpus_instances):
        for name in ("z2c2", "z2c3", "z4c2", "z8c2"):
            v = verdict_map(corpus_instances[name])
            assert v["groupring_example"] == "PASS", name
            assert v["t56"] == "PASS", name

    def test_self_idealizations(self, corpus_instances):
        for name in ("z2_self", "z4_self", "z8_self"):
            v = verdict_map(corpus_instances[name])
            assert v["lemma17"] == "PASS", name
            assert v["t777"] == "PASS", name
            assert v["t777_cor"] == "PASS", name
            assert v["t231"] == "PASS", name
            assert v["planarity_cor"] == "PASS", name
            # canonical square-zero gradings are never identity faithful
            assert v["t1001"] == "VACUOUS", name

    def test_mixed_idealization_skips_self_only_checks(self, corpus_instances):
        v = verdict_map(corpus_instances["z4_mod2"])
        assert v["lemma17"] == "PASS"
        assert v["t777"] == "PASS"
        assert v["t777_cor"] == "SKIPPED"
        assert v["t231"] == "SKIPPED"
        assert v["t4"] == "PASS"  # star with infinite girth

    def test_chain_rings(self, corpus_instances):
        v3 = verdict_map(corpus_instances["f2x3"])
        assert v3["t4"] == "PASS"
        assert v3["t544"] == "PASS"
        v4 = verdict_map(corpus_instances["f2x4"])
        assert v4["t4"] == "VACUOUS"  # triangle present
        assert v4["t52"] == "PASS"
        assert v4["t544"] == "PASS"


class TestDirectionalVerdicts:
    def test_lemma51_backward_gated_on_vertices(self, corpus_instances):
        # graded fields have no graded vertices: the trace condition is
        # empty-true and cannot witness faithfulness
        rep = run_check(corpus_instances["f4"], "lemma51")
        directions = dict(rep.directions)
        assert directions["faithful_implies_traces"] == "PASS"
        assert directions["traces_imply_faithful"] == "VACUOUS"
        assert rep.verdict == "PASS"
        assert rep.annotations

    def test_lemma51_both_directions_on_matrix_ring(self, corpus_instances):
        rep = run_check(corpus_instances["m2f2"], "lemma51")
        directions = dict(rep.directions)
        assert directions["faithful_implies_traces"] == "PASS"
        assert directions["traces_imply_faithful"] == "PASS"
        probes = rep.details["probes"]
        assert probes["0"] == {"faithful": True, "traces_nonzero": True}
        assert probes["1"] == {"faithful": False, "traces_nonzero": False}
        assert probes["2"] == {"faithful": False, "traces_nonzero": False}

    def test_t1_directions_vacuous_on_connected_graphs(self, corpus_instances):
        rep = run_check(corpus_instances["z12"], "t1")
        directions = dict(rep.directions)
        assert directions["disconnected_implies_edgeless"] == "VACUOUS"
        assert directions["edgeless_implies_disconnected"] == "VACUOUS"
        assert directions["equivalence"] == "PASS"

    def test_r545_branch_annotation(self, corpus_instances):
        rep = run_check(corpus_instances["f2x3"], "r545")
        assert rep.verdict == "PASS"
        assert not rep.details["branch_triggered"]
        assert any("does not occur" in note for note in rep.annotations)

    def test_t6_skips_degenerate_splits(self, corpus_instances):
        rep = run_check(corpus_instances["z12"], "t6")
        assert rep.verdict == "PASS"
        directions = dict(rep.directions)
        # the three-element factor has no vertices, so the split clause is
        # unfalsifiable here
        assert directions["split_gamma_two"] == "VACUOUS"
        assert any("skipped" in note for note in rep.annotations)

    def test_t777_third_trigger_never_fires(self, corpus_instances):
        rep = run_check(corpus_instances["z4_self"], "t777")
        directions = dict(rep.directions)
        assert directions["partial_action_girth_three"] == "VACUOUS"
        assert any("cannot fire" in note for note in rep.annotations)


class TestFailurePlumbing:
    """Feed doctored graphs through cached slots to prove FAIL paths report."""

    def _fresh_z12(self):
        ring = make_cyclic_ring(12)
        return Instance(name="doctored", ring=ring, grading=trivial_grading(ring))

    def test_t3_reports_square(self):
        inst = self._fresh_z12()
        inst.__dict__["graded_graph"] = graph_from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        rep = run_check(inst, "t3")
        assert rep.verdict == "FAIL"
        assert "girth 4" in rep.witness

    def test_t2_reports_long_path(self):
        inst = self._fresh_z12()
        inst.__dict__["graded_graph"] = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rep = run_check(inst, "t2")
        assert rep.verdict == "FAIL"
        assert "diameter 3" in rep.witness

    def test_t1_reports_disconnected_nonnull(self):
        inst = self._fresh_z12()
        inst.__dict__["graded_graph"] = graph_from_edges(4, [(0, 1), (2, 3)])
        rep = run_check(inst, "t1")
        assert rep.verdict == "FAIL"
        directions = dict(rep.directions)
        assert directions["disconnected_implies_edgeless"] == "FAIL"

    def test_verdict_survives_in_run_all(self):
        inst = self._fresh_z12()
        inst.__dict__["graded_graph"] = graph_from_edges(4, [(0, 1), (2, 3)])
        verdicts = {r.theorem_id: r for r in run_all(inst, ["t1", "t3"])}
        assert verdicts["t1"].verdict == "FAIL"
        assert verdicts["t3"].verdict == "PASS"  # forest girth is fine


class TestReportShape:
    def test_fields_are_populated(self, corpus_instances):
        rep = run_check(corpus_instances["z4c2"], "t1001")
        assert rep.instance == "z4c2"
        assert rep.hypothesis and rep.conclusion
        assert rep.witness is None
        assert rep.details["identity_vertices"] == 1

    def test_pass_reports_carry_no_witness(self, corpus_instances):
        for rep in run_all(corpus_instances["z8_self"]):
            if rep.verdict != "FAIL":
                assert rep.witness is None
