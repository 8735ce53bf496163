import itertools

import pytest

import idealgraphs.cli as cli
import idealgraphs.grading as grading
import idealgraphs.structure_maps as structure_maps
import idealgraphs.theorem_suite as suite
from idealgraphs import (
    Instance,
    UnknownTheorem,
    WrongInstanceKind,
    build_intersection_graph,
    graph_from_edges,
    make_cyclic_ring,
    run_all,
    run_check,
    theorem_ids,
    theorem_summary,
    trivial_grading,
)
from idealgraphs.cli import load_instance, parse_instance
from idealgraphs.ring_core import additive_span
from oracles import is_graded as oracle_is_graded

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
        # the parser builds the canonical grading; deciding a check's kind
        # compares with it and builds none
        calls = []
        real = getattr(cli, builder)

        def counting(ring):
            calls.append(ring)
            return real(ring)

        monkeypatch.setattr(cli, builder, counting)
        inst = load_instance(str(corpus_dir / f"{name}.json"))
        first = verdict_map(inst)
        assert verdict_map(inst) == first
        assert len(calls) == 1
        assert first == verdict_map(corpus_instances[name])

    @pytest.mark.parametrize("name", ["z4_self", "z2c3"])
    def test_grading_validated_once_per_instance(
        self, corpus_dir, corpus_instances, monkeypatch, name
    ):
        calls = []
        real = grading.validate_grading

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(grading, "validate_grading", counting)
        inst = load_instance(str(corpus_dir / f"{name}.json"))
        first = verdict_map(inst)
        assert verdict_map(inst) == first
        assert len(calls) == 1
        assert first == verdict_map(corpus_instances[name])

    def test_explicit_copy_of_the_canonical_grading_matches(self, corpus_instances):
        # Z2[C3] with the coefficient lines of e, g and g^2 at 1, 2 and 4
        doc = {
            "ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 3}}},
            "grading": {
                "explicit": {
                    "group": {"cyclic": 3},
                    "components": {"0": [1], "1": [2], "2": [4]},
                }
            },
        }
        inst = parse_instance(doc)
        assert inst.matches("group_ring")
        assert verdict_map(inst)["groupring_example"] == "PASS"
        assert verdict_map(inst) == verdict_map(corpus_instances["z2c3"])

    def test_unknown_requirement_still_raises(self, corpus_instances):
        with pytest.raises(ValueError):
            corpus_instances["z12"].matches("matrix_ring")


class TestNoFailuresOnCorpus:
    def test_every_corpus_instance_is_clean(self, corpus_instances):
        for name, inst in corpus_instances.items():
            bad = [r for r in run_all(inst) if r.verdict == "FAIL"]
            assert not bad, f"{name}: {[(r.theorem_id, r.witness) for r in bad]}"


def _lemma_b_by_spans(inst, family):
    """Verdict, witness and pair count of lemma_b with every pairwise sum
    spanned and gradedness tested member by member."""
    ring, grading = inst.ring, inst.grading
    pairs = 0
    for i, a in enumerate(family):
        for b in family[i:]:
            pairs += 1
            if not oracle_is_graded(grading, additive_span(ring, a.mask | b.mask)):
                return "FAIL", f"sum of {a.label()} and {b.label()}", pairs
            if not oracle_is_graded(grading, a.mask & b.mask):
                return "FAIL", f"intersection of {a.label()} and {b.label()}", pairs
    return "PASS", None, pairs


def _lemma_b_on(corpus_dir, name, family):
    """The lemma_b report of a fresh instance whose graded family is replaced."""
    inst = load_instance(str(corpus_dir / f"{name}.json"))
    inst.graded_family = sorted(family, key=lambda i: i.sort_key())
    report = run_check(inst, "lemma_b")
    return report.verdict, report.witness, report.details["pairs"]


class TestLemmaBPairs:
    def test_each_unordered_pair_is_counted_once(self, corpus_instances):
        for name, inst in corpus_instances.items():
            n = len(inst.graded_family)
            report = run_check(inst, "lemma_b")
            assert report.verdict == "PASS", name
            assert report.details["pairs"] == n * (n + 1) // 2, name

    def test_reports_match_spanned_sums_on_the_corpus(self, corpus_instances):
        for name, inst in corpus_instances.items():
            report = run_check(inst, "lemma_b")
            got = (report.verdict, report.witness, report.details["pairs"])
            assert got == _lemma_b_by_spans(inst, inst.graded_family), name

    def test_one_ungraded_ideal_still_fails(self, corpus_dir, corpus_instances):
        inst = corpus_instances["f2xy_12"]
        (mixed,) = [i for i in inst.full.family if i.label() == "<x+y>"]
        report = _lemma_b_on(corpus_dir, "f2xy_12", [*inst.graded_family, mixed])
        assert report == ("FAIL", "sum of <0> and <x+y>", 4)

    def test_doctored_families_match_spanned_sums(self, corpus_dir, small_instances):
        # without the zero ideal or the whole ring some sums are missing from
        # the family and are spanned; an ungraded member must still be found
        witnesses = set()
        for name, inst in small_instances.items():
            graded = {i.mask for i in inst.graded_family}
            mixed = [[]] + [[i] for i in inst.full.family if i.mask not in graded]
            for drop, extra in itertools.product(("is_zero", "is_full"), mixed):
                family = [i for i in inst.graded_family if not getattr(i, drop)] + extra
                expected = _lemma_b_by_spans(inst, sorted(family, key=lambda i: i.sort_key()))
                assert _lemma_b_on(corpus_dir, name, family) == expected, (name, drop, extra)
                witnesses.add(expected[1])
        # among them a sum of two members that the family lacks
        assert None in witnesses and "sum of <2> and <1+g>" in witnesses


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


def planted_vertices(clean, n):
    """n left ideals of the ring for a planted graded graph: the graded
    graph's own vertices first, then the ring's other left ideals, the
    trivial ones among them, repeated when the ring has fewer than n."""
    own = clean.graded_graph.vertices
    shown = {v.mask for v in own}
    pool = list(own) + [i for i in clean.full.family if i.mask not in shown]
    return [pool[v % len(pool)] for v in range(n)]


def off_by_one(clean, graph, extra):
    """The vertices of `graph`, one of the clean instance's, with the last
    one dropped (extra -1) or the zero ideal added (extra 1); None when
    there is no vertex to drop."""
    own = graph.vertices
    if extra < 0:
        return own[:-1] if own else None
    return own + (next(i for i in clean.full.family if i.is_zero),)


PLANTED_GRAPHS = {
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "2K2": (4, [(0, 1), (2, 3)]),
    "K1,3": (4, [(0, 1), (0, 2), (0, 3)]),
    "2K1": (2, []),
}


class TestPlantedGraphReports:
    """The corpus never FAILs; planting other graded graphs through the
    cached slot, as TestFailurePlumbing does, drives most checks to FAIL and
    shows how each report is written.  A planted graph's vertices are left
    ideals of the ring: too few, too many, or the right ones with the wrong
    edges."""

    def test_reports_follow_their_findings(self, corpus_instances):
        failing = set()
        for name, clean in corpus_instances.items():
            for shape, (n, edges) in PLANTED_GRAPHS.items():
                inst = Instance(name=name, ring=clean.ring, grading=clean.grading)
                vertices = planted_vertices(clean, n)
                inst.__dict__["graded_graph"] = graph_from_edges(n, edges, vertices)
                for tid in ALL_IDS:
                    where = f"{name}/{shape}/{tid}"
                    (rep,) = run_all(inst, [tid])
                    check = suite._REGISTRY[tid]
                    if rep.verdict == "SKIPPED":
                        assert rep.conclusion == check.summary, where
                        assert rep.witness is None and not rep.directions, where
                        continue
                    assert rep.hypothesis == check.hypothesis, where
                    assert rep.conclusion == check.conclusion, where
                    refuted = any(v == "FAIL" for _, v in rep.directions)
                    assert (rep.verdict == "FAIL") == refuted, where
                    assert rep.verdict in ("PASS", "FAIL", "VACUOUS"), where
                    assert (rep.witness is not None) == (rep.verdict == "FAIL"), where
                    if rep.verdict == "FAIL":
                        failing.add(tid)
        assert len(failing) >= 23, sorted(failing)


class TestPlantedGraphOrder:
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_transfer_checks_fail_with_a_witness(self, corpus_instances, extra):
        # the transfer, lemma_r1 and t4 pair the graded graph's vertices
        # with the graded ideals, so a planted graph with one vertex too few
        # or too many refutes them; it is a star, with an edge and no cycle,
        # so t4 applies
        ids = ["t1001", "t56", "groupring_example", "lemma_r1", "t4"]
        failing = set()
        for name, clean in corpus_instances.items():
            vertices = off_by_one(clean, clean.graded_graph, extra)
            if vertices is None:
                continue
            n = len(vertices)
            inst = Instance(name=name, ring=clean.ring, grading=clean.grading)
            star = graph_from_edges(n, [(0, v) for v in range(1, n)], vertices)
            inst.__dict__["graded_graph"] = star
            for rep in run_all(inst, ids):
                if rep.verdict in ("VACUOUS", "SKIPPED"):
                    continue
                assert rep.verdict == "FAIL" and rep.witness, (name, rep)
                failing.add(rep.theorem_id)
        assert sorted(failing) == sorted(ids)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_planted_full_graph_under_a_trivial_grading_fails(
        self, corpus_instances, extra
    ):
        # under a trivial grading the identity component's graph is the full
        # graph, whose vertices these checks pair with the ideals as well
        ids = ["t1001", "t56", "omega_formula"]
        failing = set()
        for name, clean in corpus_instances.items():
            grading = clean.grading
            if grading.component(grading.grades.identity) != clean.ring.full_mask:
                continue
            vertices = off_by_one(clean, clean.full.graph, extra)
            if vertices is None:
                continue
            inst = Instance(name=name, ring=clean.ring, grading=grading)
            inst.full.__dict__["graph"] = graph_from_edges(len(vertices), [], vertices)
            for rep in run_all(inst, ids):
                assert rep.verdict == "FAIL" and rep.witness, (name, rep)
                failing.add(rep.theorem_id)
        assert sorted(failing) == sorted(ids)

    @pytest.mark.parametrize("slot", ["graded", "full"])
    def test_a_correct_graph_in_reverse_order_gives_the_clean_reports(
        self, corpus_instances, slot
    ):
        # each check reads the vertices of the graph it uses, so the order
        # in which a correct graph holds them changes no report
        for name, clean in corpus_instances.items():
            inst = Instance(name=name, ring=clean.ring, grading=clean.grading)
            if slot == "graded":
                vertices = clean.graded_graph.vertices
                cache, key = inst.__dict__, "graded_graph"
            else:
                vertices = clean.full.graph.vertices
                cache, key = inst.full.__dict__, "graph"
            cache[key] = build_intersection_graph(list(reversed(vertices)))
            assert run_all(inst) == run_all(clean), name


class TestIsomorphismReports:
    def test_one_comparison_per_variant_in_run_all(self, corpus_dir, monkeypatch):
        # t56 and groupring_example share the instance's first-strong report
        targets = []
        real = structure_maps.phi_iso_check

        def counting(source, image, target):
            targets.append(target)
            return real(source, image, target)

        monkeypatch.setattr(structure_maps, "phi_iso_check", counting)
        inst = load_instance(str(corpus_dir / "z2c3.json"))
        verdicts = verdict_map(inst)
        assert verdicts["t1001"] == verdicts["t56"] == "PASS"
        assert verdicts["groupring_example"] == "PASS"
        variants = [
            "quotient" if t is inst.quotient
            else "first_strong" if t is inst.graded_graph
            else "other"
            for t in targets
        ]
        assert sorted(variants) == ["first_strong", "quotient"]
        assert inst.quotient_iso["variant"] == "quotient"
        assert inst.first_strong_iso["variant"] == "first_strong"
