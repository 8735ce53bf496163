"""Each output checker catches a planted error.

    python3 -m pytest perfbench/test_checks.py    (or: python3 perfbench/test_checks.py)

Correct outputs are built here from the reference tables; one entry is then
changed, one ideal dropped or one edge removed, and the checker must object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

Z12 = {"ring": {"zn": 12}, "grading": {"trivial": {}}}
Z4C2 = {"ring": {"group_ring": {"base": {"zn": 4}, "group": {"cyclic": 2}}}, "grading": "canonical"}
Z4_SELF = {"ring": {"idealization": {"base": {"zn": 4}, "module": "self"}}, "grading": "canonical"}


def _truth(doc):
    ref = checks.ref_ring(doc["ring"])
    return ref, checks.ref_grading(doc, ref)


def test_changed_table_entry_is_caught():
    ref, _ = _truth(Z4C2)
    tables = [ref.add.copy(), ref.mul.copy(), ref.neg.copy()]
    assert checks.check_tables(ref, *tables, ref.zero, ref.one) == []
    tables[1][3, 5] = (tables[1][3, 5] + 1) % ref.n
    assert checks.check_tables(ref, *tables, ref.zero, ref.one)


def test_reference_tables_follow_the_index_layouts():
    # Z4[C2]: index c0 + 4 c1 is c0 + c1 g; g g = 1 and 2 (2 + g) = 2 g
    ref, _ = _truth(Z4C2)
    assert ref.mul[4, 4] == 1 and ref.mul[2, 6] == 8
    # Z4 doubled: (r, m)(r', m') = (r r', r m' + r' m) at index 4 r + m
    ref, _ = _truth(Z4_SELF)
    assert ref.mul[4 * 2 + 1, 4 * 3 + 1] == 4 * (6 % 4) + (2 * 1 + 3 * 1) % 4


def test_dropped_ideal_is_caught():
    for doc, graded in ((Z12, False), (Z4C2, True), (Z4_SELF, True)):
        ref, grading = _truth(doc)
        family = checks.enumerate_ideals(ref, grading, graded)
        assert checks.check_family(ref, grading, family, graded) == []
        for drop in range(1, len(family)):
            short = family[:drop] + family[drop + 1:]
            assert checks.check_family(ref, grading, short, graded), (doc, drop)


def test_ungraded_member_is_caught():
    ref, grading = _truth(Z4C2)
    graded = checks.enumerate_ideals(ref, grading, graded=True)
    every = checks.enumerate_ideals(ref, grading, graded=False)
    extra = next(m for m in every if m not in graded)
    assert checks.check_family(ref, grading, graded + [extra], graded=True)


def test_removed_edge_is_caught():
    ref, grading = _truth(Z12)
    verts = checks.vertices(ref, checks.enumerate_ideals(ref, grading, graded=False))
    edges = checks.own_edges(verts, 1 << ref.zero)
    adj = [0] * len(verts)
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    assert checks.check_graph(ref, verts, len(verts), adj) == []
    i, j = edges[0]
    adj[i] &= ~(1 << j)
    adj[j] &= ~(1 << i)
    assert checks.check_graph(ref, verts, len(verts), adj)


def test_invariants_checked_against_networkx():
    # a 5-cycle: diameter 2, girth 5, clique number 2, domination number 2
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    inv = {"order": 5, "size": 5, "components": 1, "connected": True, "diameter": 2,
           "girth": 5, "clique_number": 2, "domination_number": 2, "planar": True}
    assert checks.check_invariants(5, edges, inv) == []
    assert checks.check_invariants(5, edges[1:], inv)
    assert checks.check_invariants(5, edges, dict(inv, domination_number=1))


def test_fail_and_misplaced_skip_are_caught():
    ref, grading = _truth(Z4_SELF)
    skipped = checks.expected_skipped(Z4_SELF, ref, grading)
    assert skipped == {"lemma_ll", "t543", "t544", "r545", "groupring_example"}
    verdicts = [(t, "SKIPPED" if t in skipped else "PASS") for t in checks.CHECK_KINDS]
    assert checks.check_verdicts(verdicts, skipped) == []
    assert checks.check_verdicts([(t, "FAIL" if t == "t1" else v) for t, v in verdicts], skipped)
    assert checks.check_verdicts([(t, "SKIPPED") for t, _ in verdicts], skipped)


def test_bad_verify_summary_is_caught():
    ref, grading = _truth(Z12)
    skipped = checks.expected_skipped(Z12, ref, grading)
    lines = ["z12:"] + [f"  {t:20s} {'SKIPPED' if t in skipped else 'PASS'}" for t in checks.CHECK_KINDS]
    s = len(skipped)
    good = "\n".join(lines + [f"checks: 32  pass: {32 - s}  fail: 0  vacuous: 0  skipped: {s}"])
    bad = "\n".join(lines + [f"checks: 32  pass: {31 - s}  fail: 0  vacuous: 1  skipped: {s}"])
    assert checks.check_cli(["verify", "z12.json"], Z12, 0, good, Path("corpus")) == []
    assert checks.check_cli(["verify", "z12.json"], Z12, 0, bad, Path("corpus"))
    assert checks.check_cli(["verify", "z12.json"], Z12, 1, good, Path("corpus"))


def test_benchmark_lists_every_layer_metric():
    listed = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in listed["per_layer"]] == run.per_layer_names()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
