"""The Instance owns every derived object and builds each one once.

No clock here: equality of reports and call counts show that the caches
change nothing and that nothing is built twice.
"""

import gc
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import idealgraphs
from idealgraphs import WrongInstanceKind, nontrivial_proper, run_all, run_check
from idealgraphs.cli import load_instance

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.json"))
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_each_check_alone_matches_run_all(path):
    for report in run_all(load_instance(str(path))):
        fresh = load_instance(str(path))
        if report.verdict == "SKIPPED":
            with pytest.raises(WrongInstanceKind):
                run_check(fresh, report.theorem_id)
        else:
            assert run_check(fresh, report.theorem_id) == report


def test_vertex_lists_are_in_their_graphs_order(corpus_instances):
    # a graph's vertices are the one vertex list: the nontrivial proper
    # members of its family, in the family's (size, mask) order
    for name, inst in corpus_instances.items():
        lattices = {
            "graded": (inst.graded_family, inst.graded_graph),
            "full": (inst.full.family, inst.full.graph),
            "identity": (inst.identity.family, inst.identity.graph),
        }
        for which, (family, graph) in lattices.items():
            keys = [v.sort_key() for v in graph.vertices]
            assert keys == sorted(keys), (name, which)
            assert graph.vertices == tuple(nontrivial_proper(family)), (name, which)


def test_run_all_leaves_the_graded_lattice_where_the_benchmark_reads_it():
    # the benchmark worker reads inst.graded_family and inst.graded_graph,
    # and records the graph only when "graded_graph" is a key of vars(inst)
    for path in CORPUS:
        inst = load_instance(str(path))
        run_all(inst)
        assert "graded_graph" in vars(inst), path.stem
        assert inst.graded_graph is inst._graded.graph, path.stem
        assert inst.graded_family is inst._graded.family, path.stem


def _count_calls(monkeypatch, name, key):
    """Wrap the package function `name` wherever a module binds it; each
    call is counted under key(*args), and the arguments are kept alive so
    that object ids stay distinct."""
    modules = [m for k, m in sys.modules.items() if k.startswith("idealgraphs.")]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    calls = Counter()
    kept = []

    def counting(*args, **kwargs):
        kept.append(args)
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", ["z8_self", "z2c3", "z4xz4_product", "z8_int"])
def test_run_all_builds_each_object_once(corpus_dir, monkeypatch, name):
    import idealgraphs.structure_maps  # noqa: F401  (bind it before wrapping)

    calls = {
        "enumerate_left_ideals": _count_calls(
            monkeypatch, "enumerate_left_ideals", lambda ring, *rest: id(ring)
        ),
        "identity_component_ring": _count_calls(
            monkeypatch, "identity_component_ring", lambda grading: id(grading)
        ),
        "is_first_strong": _count_calls(
            monkeypatch, "is_first_strong", lambda grading: id(grading)
        ),
        "induced_factor_grading": _count_calls(
            monkeypatch, "induced_factor_grading", lambda grading, mask: (id(grading), mask)
        ),
    }
    inst = load_instance(str(corpus_dir / f"{name}.json"))
    run_all(inst)
    assert calls["enumerate_left_ideals"], "no left-ideal lattice was built"
    assert calls["identity_component_ring"]
    for fn, counts in calls.items():
        assert all(n == 1 for n in counts.values()), (fn, counts)
    if name == "z4xz4_product":
        assert calls["induced_factor_grading"], "the product has graded splittings"


@pytest.mark.parametrize("name", ["z12", "z4xz4_product", "z8_int"])
def test_a_trivial_grading_enumerates_and_graphs_the_ring_once(corpus_dir, monkeypatch, name):
    # every left ideal is graded, so the graded lattice and graph, like the
    # identity component's, are the full ones
    enumerations = _count_calls(monkeypatch, "_enumerate_closed", lambda add, *rest: id(add))
    graphs = _count_calls(
        monkeypatch,
        "build_intersection_graph",
        lambda ideals: id(ideals[0].ring) if ideals else None,
    )
    inst = load_instance(str(corpus_dir / f"{name}.json"))
    run_all(inst)
    assert enumerations[id(inst.ring.add_array)] == 1
    assert graphs[id(inst.ring)] == 1
    assert inst.graded_family is inst.full.family is inst.identity.family
    assert inst.graded_graph is inst.full.graph is inst.identity.graph
    assert inst.identity is inst.full


def test_derived_objects_do_not_keep_the_ring_alive(corpus_dir):
    # every cache hangs off the Instance, so dropping it frees the ring by
    # reference counting alone, with no cycle left for the collector
    inst = load_instance(str(corpus_dir / "z8_self.json"))
    run_all(inst)
    ring, grading = weakref.ref(inst.ring), weakref.ref(inst.grading)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del inst
        assert ring() is None and grading() is None
    finally:
        if enabled:
            gc.enable()


def test_cli_import_leaves_the_check_registry_unloaded():
    code = (
        "import sys\n"
        "import idealgraphs.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('idealgraphs.'))\n"
        "print(' '.join(loaded))\n"
        "from idealgraphs import Instance, run_all\n"
        "print(Instance.__module__, run_all.__module__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    loaded = out[0].split()
    for module in ("theorem_suite", "structure_maps", "ordered_grading"):
        assert f"idealgraphs.{module}" not in loaded
    assert out[1] == "idealgraphs.instance idealgraphs.theorem_suite"


def test_lazy_exports_keep_every_public_name():
    for name in idealgraphs.__all__:
        assert getattr(idealgraphs, name) is not None
    assert set(idealgraphs.__all__) <= set(dir(idealgraphs))
    with pytest.raises(AttributeError):
        idealgraphs.no_such_name
