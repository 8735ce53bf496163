"""One process of the benchmark that runs the program in-process.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --out DIR

The program is imported from ``src/`` through PYTHONPATH, as the tier-1
tests do.  ``setup`` imports it, generates the first round of inputs, prints
``ready`` and exits; ``run`` also times whole rounds of operations until
``--seconds`` have passed; ``trace`` does the same with every layer wrapped
in spans.  Outputs go to DIR/result.json (and .npy tables for ring-ladder)
for run.py to check; no checking code is imported here, so the peak
resident memory read at the end is the program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gen


def _hexes(masks) -> list[str]:
    return [format(m, "x") for m in masks]


class Runner:
    def __init__(self, workload: str, out: Path):
        from idealgraphs import cli, graph_engine, ideal_lattice, ring_core, theorem_suite

        self.cli, self.graphs, self.lattice = cli, graph_engine, ideal_lattice
        self.rings, self.suite = ring_core, theorem_suite
        self.workload = workload
        self.out = out

    def run_op(self, round_index: int, i: int, op: dict) -> dict:
        """Time one operation; its outputs are recorded after the clock stops."""
        fn = {
            "ring-ladder": self._ladder,
            "lattice-checks": self._lattice,
            "cli-small": self._cli,
        }[self.workload]
        t0 = time.perf_counter()
        try:
            elapsed, record = fn(op, t0)
        except Exception as exc:  # an operation that raises counts as failed
            return {"t": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
        record["t"] = elapsed
        return self._save(round_index, i, record)

    def _ladder(self, op, t0):
        inst = self.cli.parse_instance(op["doc"])
        ring = inst.ring
        reval = None
        if op["revalidate"]:
            reval = self.rings.ring_from_tables(ring.add, ring.mul, ring.zero, ring.one)
        family = self.lattice.enumerate_graded_left_ideals(inst.grading)
        graph = self.graphs.build_intersection_graph(self.lattice.nontrivial_proper(family))
        elapsed = time.perf_counter() - t0
        record = {
            "tables": (ring.add, ring.mul, ring.neg),
            "zero": ring.zero,
            "one": ring.one,
            "commutative": ring.commutative,
            "family": _hexes(i.mask for i in family),
            "graph_n": graph.n,
            "graph_adj": _hexes(graph.adj),
        }
        if reval is not None:
            record["reval"] = {"neg": list(reval.neg), "commutative": reval.commutative}
        return elapsed, record

    def _lattice(self, op, t0):
        inst = self.cli.parse_instance(op["doc"])
        reports = self.suite.run_all(inst)
        elapsed = time.perf_counter() - t0
        record = {
            "verdicts": [(r.theorem_id, r.verdict) for r in reports],
            "family": _hexes(i.mask for i in inst.graded_family),
        }
        cached = vars(inst)
        if "graded_graph" in cached:
            record["graph_n"] = inst.graded_graph.n
            record["graph_adj"] = _hexes(inst.graded_graph.adj)
        return elapsed, record

    def _cli(self, op, t0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(op["argv"])
        return time.perf_counter() - t0, {"code": code, "stdout": out.getvalue()}

    def _save(self, round_index: int, i: int, record: dict) -> dict:
        tables = record.pop("tables", None)
        if tables is not None:
            import numpy as np

            prefix = self.out / f"r{round_index}_o{i}"
            for name, table in zip(("add", "mul", "neg"), tables):
                np.save(f"{prefix}_{name}.npy", np.asarray(table, dtype=np.int32))
            record["tables"] = str(prefix)
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, out)
    used: set = set()
    build = gen.ROUND_BUILDERS[args.workload]
    ops = build(args.seed, 0, used)
    gen.write_cli_docs(args.workload, out, 0, ops)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    rounds = []
    start = time.perf_counter()
    round_index = 0
    while True:
        results = [runner.run_op(round_index, i, op) for i, op in enumerate(ops)]
        rounds.append({"ops": ops, "results": results})
        round_index += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = build(args.seed, round_index, used)
        gen.write_cli_docs(args.workload, out, round_index, ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"rounds": rounds, "peak_rss_mb": peak_kb / 1024}
    if tracer is not None:
        result["spans"] = tracer.spans
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
