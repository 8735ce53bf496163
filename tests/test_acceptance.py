"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible with `pytest -s`), and enforces the stated wall-clock budget.
"""

import math
import time

import pytest

from idealgraphs import (
    build_intersection_graph,
    clique_number,
    diameter,
    domination_number,
    enumerate_left_ideals,
    generated_left_ideal,
    girth,
    graph_from_edges,
    is_connected,
    is_null,
    is_planar,
    leading_ideal,
    make_cyclic_ring,
    nontrivial_proper,
    run_all,
    run_check,
    theorem_ids,
)
from idealgraphs.cli import main
from oracles import brute_graded_left_ideal_masks, brute_left_ideal_masks

pytestmark = pytest.mark.acceptance


def report(num, ok, text):
    print(f"criterion {num:02d}: {'pass' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num:02d}: {text}"


def grading_kind(inst):
    if len(inst.grading.support) == 1:
        return "trivial"
    if inst.grading.grades.kind == "integers":
        return "integer"
    return inst.ring.kind


def test_criterion_01_enumeration_matches_brute_force(small_instances):
    start = time.perf_counter()
    mismatches = []
    for name, inst in small_instances.items():
        if {i.mask for i in inst.full.family} != brute_left_ideal_masks(inst.ring):
            mismatches.append(f"{name}/all")
        if {i.mask for i in inst.graded_family} != brute_graded_left_ideal_masks(
            inst.ring, inst.grading
        ):
            mismatches.append(f"{name}/graded")
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(small_instances) >= 10 and elapsed < 10.0
    report(
        1,
        ok,
        f"both ideal families match brute force on {len(small_instances)} "
        f"small rings in {elapsed:.2f}s (mismatches: {mismatches or 'none'})",
    )


def test_criterion_02_girth_dichotomy(corpus_instances):
    kinds = set()
    values = {}
    for name, inst in corpus_instances.items():
        kinds.add(grading_kind(inst))
        values[name] = girth(inst.graded_graph)
    bad = {n: v for n, v in values.items() if v not in (3, math.inf)}
    ok = not bad and len(values) >= 12 and len(kinds) >= 4
    report(
        2,
        ok,
        f"graded girth is 3 or infinite on {len(values)} instances across "
        f"{len(kinds)} grading kinds (violations: {bad or 'none'})",
    )


def test_criterion_03_connectivity_dichotomy(corpus_instances):
    bad = []
    for name, inst in corpus_instances.items():
        for tag, g in (("graded", inst.graded_graph), ("all", inst.full.graph)):
            if is_connected(g):
                if g.n > 1 and diameter(g) > 2:
                    bad.append(f"{name}/{tag}: connected with diameter {diameter(g)}")
            elif not is_null(g):
                bad.append(f"{name}/{tag}: disconnected but has an edge")
    report(
        3,
        not bad,
        f"connected graphs have diameter <= 2 and disconnected graphs are "
        f"edgeless across the corpus (violations: {bad or 'none'})",
    )


def test_criterion_04_domination_bounds(corpus_instances):
    bad = []
    for name, inst in corpus_instances.items():
        if not inst.ring.commutative:
            continue
        gamma = domination_number(inst.graded_graph)
        if gamma > 2:
            bad.append(f"{name}: gamma {gamma}")
        indecomposable = not inst.graded_decompositions
        if indecomposable and inst.graded_graph.n and gamma != 1:
            bad.append(f"{name}: indecomposable with gamma {gamma}")
        if indecomposable and not inst.graded_graph.n and gamma != 0:
            bad.append(f"{name}: empty graph with gamma {gamma}")
    report(
        4,
        not bad,
        "commutative carriers keep domination <= 2, exactly 1 when "
        f"indecomposable with vertices (violations: {bad or 'none'})",
    )


def test_criterion_05_fixed_points(corpus_instances):
    start = time.perf_counter()
    checks = []

    g12 = corpus_instances["z12"].full.graph
    checks.append(("z12 order", g12.n == 4))
    checks.append(("z12 size", g12.edge_count == 4))
    checks.append(("z12 diameter", diameter(g12) == 2))
    checks.append(("z12 girth", girth(g12) == 3))
    checks.append(("z12 clique", clique_number(g12) == 3))
    checks.append(("z12 domination", domination_number(g12) == 1))

    z4self = corpus_instances["z4_self"]
    gr = z4self.graded_graph
    base_graph = build_intersection_graph(
        nontrivial_proper(enumerate_left_ideals(make_cyclic_ring(4)))
    )
    omega = clique_number(gr)
    bound = 1 + 2 * clique_number(base_graph) + base_graph.n
    checks.append(("doubled z4 complete", gr.n == 4 and gr.edge_count == 6))
    checks.append(("doubled z4 clique formula", omega == 4 and omega == bound))

    z4c2 = corpus_instances["z4c2"]
    phi = z4c2.first_strong_iso  # phi_iso_check onto the graded graph
    checks.append(
        (
            "group ring copies its coefficient graph",
            phi["identity_vertices"] == 1
            and phi["graded_vertices"] == 1
            and z4c2.graded_graph.vertices[0].size == 4,
        )
    )

    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 5.0
    report(
        5,
        ok,
        f"fixed-point values verified in {elapsed:.2f}s "
        f"(failed: {failed or 'none'})",
    )


TRANSFER_IDS = [
    "t100", "lemma51", "t1001", "conn_equiv", "gamma_eq", "omega_formula",
    "lemma_l0", "t56",
]


def test_criterion_06_identity_transfer_suite(corpus_instances):
    faithful = {n: i for n, i in corpus_instances.items() if i.e_faithful}
    bad = []
    nonvacuous = set()
    for name, inst in faithful.items():
        for rep in run_all(inst, TRANSFER_IDS):
            if rep.verdict == "FAIL":
                bad.append(f"{name}/{rep.theorem_id}")
            if rep.verdict == "PASS" and rep.theorem_id in (
                "t1001", "conn_equiv", "gamma_eq", "omega_formula",
            ):
                nonvacuous.add(rep.theorem_id)
    ok = not bad and len(faithful) >= 8 and len(nonvacuous) == 4
    report(
        6,
        ok,
        f"identity-component transfer checks hold on {len(faithful)} "
        f"faithful instances (failures: {bad or 'none'})",
    )


def test_criterion_07_leading_part_suite(corpus_instances):
    checks = []
    for name in ("f2x3", "f2x4", "f2xy_12"):
        inst = corpus_instances[name]
        rep = run_check(inst, "lemma_ll")
        laws_hold = len(rep.directions) == 5 and all(v == "PASS" for _, v in rep.directions)
        checks.append((f"{name} closure laws", laws_hold))

    inst = corpus_instances["f2xy_12"]
    mixed = generated_left_ideal(inst.ring, [6])  # (x+y)
    target = generated_left_ideal(inst.ring, [4])  # (y)
    led = leading_ideal(inst.grading, mixed)
    checks.append(("mixed generator leads to its top part", led == target))

    for name, inst in corpus_instances.items():
        if inst.grading.grades.kind != "integers":
            continue
        checks.append((f"{name} connectivity agreement", run_check(inst, "t543").verdict == "PASS"))
        t544 = run_check(inst, "t544")
        checks.append((f"{name} girth agreement", t544.verdict in ("PASS", "VACUOUS")))
    failed = [n for n, ok in checks if not ok]
    report(
        7,
        not failed,
        f"leading-part closure and comparison checks hold ({len(checks)} "
        f"checks, failed: {failed or 'none'})",
    )


def test_criterion_08_acyclic_star_structure(corpus_instances):
    star = corpus_instances["f2xy_12"]
    rep = run_check(star, "t4")
    g = star.graded_graph
    center = max(range(g.n), key=g.degree)
    two_gen = (
        rep.verdict == "PASS"
        and girth(g) == math.inf
        and str(g.vertices[center]) == "<x,y>"
        and rep.details.get("homogeneous_generators") == 2
    )

    principal = corpus_instances["z8_int"]
    rep2 = run_check(principal, "t4")
    g2 = principal.graded_graph
    one_gen = (
        rep2.verdict == "PASS"
        and g2.n == 2
        and g2.edge_count == 1
        and rep2.details.get("homogeneous_generators") == 1
    )
    report(
        8,
        two_gen and one_gen,
        "acyclic graphs are stars around the graded maximal ideal in both "
        f"the two-generator case ({'ok' if two_gen else 'bad'}) and the "
        f"principal case ({'ok' if one_gen else 'bad'})",
    )


def test_criterion_09_planarity(corpus_instances):
    start = time.perf_counter()
    z8self = corpus_instances["z8_self"]
    omega = clique_number(z8self.graded_graph)
    planar = is_planar(z8self.graded_graph)
    k4 = graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    elapsed = time.perf_counter() - start
    ok = omega >= 7 and planar is False and is_planar(k4) is True and elapsed < 10.0
    report(
        9,
        ok,
        f"doubled eight-element chain ring has clique number {omega} and a "
        f"nonplanar graph; the four-clique stays planar ({elapsed:.2f}s)",
    )


def test_criterion_10_full_corpus_run(corpus_dir, corpus_instances, capsys):
    start = time.perf_counter()
    exit_code = main(["corpus", str(corpus_dir)])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    passed_ids = set()
    failed = []
    for name, inst in corpus_instances.items():
        for rep in run_all(inst):
            if rep.verdict == "PASS":
                passed_ids.add(rep.theorem_id)
            elif rep.verdict == "FAIL":
                failed.append(f"{name}/{rep.theorem_id}")
    missing = sorted(set(theorem_ids()) - passed_ids)
    ok = (
        exit_code == 0
        and "fail: 0" in out
        and not failed
        and not missing
        and elapsed < 60.0
    )
    with capsys.disabled():
        report(
            10,
            ok,
            f"corpus command exits clean with every check id earning a "
            f"non-vacuous pass in {elapsed:.2f}s "
            f"(failures: {failed or 'none'}, never-passing: {missing or 'none'})",
        )
