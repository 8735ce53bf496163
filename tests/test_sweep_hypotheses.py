import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    path = ROOT / "tools" / "sweep_hypotheses.py"
    spec = importlib.util.spec_from_file_location("sweep_hypotheses", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep_hypotheses = _load_tool()


def _corpus_sweep(corpus_dir):
    files = sorted(corpus_dir.glob("*.json"))
    return sweep_hypotheses.sweep(sweep_hypotheses.load_instance(str(f)) for f in files)


def test_readme_table_is_the_sweep_of_the_corpus(corpus_dir):
    table = sweep_hypotheses.table(_corpus_sweep(corpus_dir))
    readme = (ROOT / "README.md").read_text()
    assert table + "\n" in readme


def test_a_disconnected_commutative_ring_shows_connected_is_needed(corpus_dir):
    results = _corpus_sweep(corpus_dir)
    assert results["c101"]["z2xz2"] == "FAIL"
    assert results["t2"]["z2xz2"] == "FAIL"
    assert results["c11"]["m2f2"] == "InvalidConstruction"
    # checks stated for every instance are left out of the sweep
    assert "t1" not in results and "lemma_b" not in results


def test_the_sweep_runs_bodies_only_where_the_hypothesis_fails(corpus_dir):
    # lemma_r1's hypothesis fails on the four rings with no graded vertex
    results = _corpus_sweep(corpus_dir)
    assert results["lemma_r1"] == dict.fromkeys(("f4", "z2", "z2c2", "z2c3"), "PASS")
