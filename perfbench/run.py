"""Benchmark for idealgraphs: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload cli-small|ring-ladder|lattice-checks \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The program is run from ``src/`` (it is not
installed), one operation at a time.  Every output is checked against
perfbench/checks.py after the clock stops; an operation that raises, exits
non-zero or answers wrongly counts as failed.

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
the workload once untraced and once with every layer wrapped in spans, and
prints the per-layer metrics.  The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5  # timed set-ups per run, after one untimed warm-up
IMPORT_REPEATS = 5
WORKER_TIMEOUT_S = 150


def _median_round(rounds: list[dict]) -> float:
    return statistics.median(sum(r["t"] for r in rnd["results"]) for rnd in rounds)


def _spawn_ready(cmd: list[str], env: dict) -> float:
    """Seconds from spawning cmd until it prints its first line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode} before it was ready")
    return elapsed


def measure_setup(args, work: Path, env: dict) -> float:
    """Median time for a fresh interpreter to import the program and
    generate the workload's first round of inputs."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--mode", "setup", "--out", str(work / f"setup{i}")]
        t = _spawn_ready(cmd, env)
        if i:
            times.append(t)
    return statistics.median(times)


def measure_import(env: dict) -> float:
    """Median wall time of a fresh interpreter importing idealgraphs.cli."""
    code = "import time; t = time.perf_counter(); import idealgraphs.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(IMPORT_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def run_worker(args, mode: str, work: Path, env: dict) -> dict:
    out = work / mode
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    return json.loads((out / "result.json").read_text())


def run_cli_processes(args, work: Path, env: dict) -> dict:
    """cli-small, untraced: every invocation in its own interpreter."""
    out = work / "cli"
    out.mkdir()
    used: set = set()
    rounds = []
    peak_kb = 0
    start = time.perf_counter()
    round_index = 0
    ops = gen.cli_round(args.seed, round_index, used)
    gen.write_cli_docs("cli-small", out, round_index, ops)
    while True:
        results = []
        for op in ops:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "idealgraphs.cli", *op["argv"]],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            )
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            results.append({"t": elapsed, "code": proc.returncode, "stdout": stdout.decode()})
        rounds.append({"ops": ops, "results": results})
        round_index += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = gen.cli_round(args.seed, round_index, used)
        gen.write_cli_docs("cli-small", out, round_index, ops)
    return {"rounds": rounds, "peak_rss_mb": peak_kb / 1024}


# ---------------------------------------------------------------------------
# checking


def _masks(hexes: list[str]) -> list[int]:
    return [int(h, 16) for h in hexes]


def check_op(workload: str, op: dict, res: dict, root: Path) -> list[str]:
    if "error" in res:
        return [f"raised {res['error']}"]
    if workload == "cli-small":
        return checks.check_cli(op["argv"], op["doc"], res["code"], res["stdout"], root / "corpus")
    doc = op["doc"]
    ref = checks.ref_ring(doc["ring"])
    grading = checks.ref_grading(doc, ref)
    family = _masks(res["family"])
    problems = checks.check_family(ref, grading, family, graded=True)
    if "graph_adj" in res:
        verts = checks.vertices(ref, family)
        problems += checks.check_graph(ref, verts, res["graph_n"], _masks(res["graph_adj"]))
    if workload == "lattice-checks":
        return problems + checks.check_verdicts(
            [tuple(v) for v in res["verdicts"]], checks.expected_skipped(doc, ref, grading)
        )
    tables = [np.load(f"{res['tables']}_{name}.npy") for name in ("add", "mul", "neg")]
    problems += checks.check_tables(ref, *tables, res["zero"], res["one"])
    commutative = bool(np.array_equal(ref.mul, ref.mul.T))
    if res["commutative"] != commutative:
        problems.append("commutativity flag is wrong")
    if "reval" in res and (
        res["reval"]["commutative"] != commutative
        or not np.array_equal(res["reval"]["neg"], ref.neg)
    ):
        problems.append("ring_from_tables gave another negation or commutativity flag")
    return problems


def check_all(workload: str, result: dict, root: Path) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every operation of a result."""
    attempted = failed = 0
    correct = True
    for r, rnd in enumerate(result["rounds"]):
        for op, res in zip(rnd["ops"], rnd["results"]):
            attempted += 1
            problems = check_op(workload, op, res, root)
            if problems:
                failed += 1
                correct = correct and "error" in res
                print(f"round {r} {op['slot']}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed, correct


# ---------------------------------------------------------------------------
# metrics


def per_layer_names() -> list[str]:
    names = list(spans.layer_metrics([], 1, gen.CHECK_KINDS))
    return names + ["cli.import_s", "trace.overhead_s"]


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def untraced(args, work: Path, env: dict):
    if args.workload == "cli-small":
        result = run_cli_processes(args, work, env)
    else:
        result = run_worker(args, "run", work, env)
    latencies = [res["t"] for rnd in result["rounds"] for res in rnd["results"]]
    metrics = {
        "wall_s": (_median_round(result["rounds"]), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, [result]


def traced(args, work: Path, env: dict):
    plain = run_worker(args, "run", work, env)
    result = run_worker(args, "trace", work, env)
    layer = spans.layer_metrics(result["spans"], len(result["rounds"]), gen.CHECK_KINDS)
    layer["cli.import_s"] = measure_import(env)
    layer["trace.overhead_s"] = _median_round(result["rounds"]) - _median_round(plain["rounds"])
    return {k: (v, _unit(k)) for k, v in layer.items()}, [plain, result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "idealgraphs" / "cli.py").is_file():
        print("perfbench: src/idealgraphs not found; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        if args.trace:
            metrics, results = traced(args, work, env)
        else:
            metrics, results = untraced(args, work, env)
            metrics["setup_s"] = (measure_setup(args, work, env), "s")
        attempted = failed = 0
        correct = True
        for result in results:
            a, f, c = check_all(args.workload, result, root)
            attempted, failed, correct = attempted + a, failed + f, correct and c
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
