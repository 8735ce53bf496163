"""Run each check's conclusion where its hypothesis fails.

    PYTHONPATH=src python tools/sweep_hypotheses.py corpus

A check registers its hypothesis as a predicate, `holds`, and the dispatcher
never runs a check's body where `holds` is false.  This sweep does: for
every check that registers a hypothesis and every instance in the directory
whose construction kinds the check accepts but whose hypothesis is false, it
calls the body directly.  The conclusion then FAILs (the instance shows the
hypothesis is needed), PASSes, or is undefined: a body is written only for
instances that meet its hypothesis, so it may raise, and the sweep names the
exception.  It prints one Markdown table row per check, the table README.md
keeps under "Which hypotheses are needed".
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable

from idealgraphs.cli import load_instance
from idealgraphs.instance import Instance
from idealgraphs.theorem_suite import _REGISTRY, FAIL, PASS, TheoremCheck


def outcome(check: TheoremCheck, inst: Instance) -> str:
    """PASS or FAIL for the check's body on the instance, or the name of the
    exception it raised."""
    try:
        found = check.run(inst)
    except Exception as exc:  # the body assumed the hypothesis it lacks here
        return type(exc).__name__
    return FAIL if any(v == FAIL for _, v in found.directions) else PASS


def sweep(instances: Iterable[Instance]) -> dict[str, dict[str, str]]:
    """Check id -> {instance name: outcome} over the instances where the
    check's kinds match and its hypothesis is false, for every check that
    registers a hypothesis, in registry order."""
    instances = list(instances)
    results = {}
    for check in _REGISTRY.values():
        if check.holds is TheoremCheck.holds:  # "always applicable"
            continue
        results[check.theorem_id] = {
            inst.name: outcome(check, inst)
            for inst in instances
            if all(inst.matches(kind) for kind in check.kinds) and not check.holds(inst)
        }
    return results


def _first(names: list[str]) -> str:
    return f"{len(names)}, first `{names[0]}`"


def table(results: dict[str, dict[str, str]]) -> str:
    """The sweep as a Markdown table: on how many instances each hypothesis
    is false, how many of them refute the conclusion (the first one in
    file order is the witness that the hypothesis is needed), and where the
    body is undefined, by exception."""
    lines = [
        "| check | hypothesis false on | conclusion fails on | undefined on |",
        "|---|---|---|---|",
    ]
    for theorem_id, outcomes in results.items():
        by_outcome: dict[str, list[str]] = {}
        for name, got in outcomes.items():
            by_outcome.setdefault(got, []).append(name)
        failing = by_outcome.pop(FAIL, [])
        passing = by_outcome.pop(PASS, [])
        if failing:
            refuted = _first(failing)
        else:
            count = len(passing)
            refuted = f"no witness among {count} instance{'' if count == 1 else 's'}"
        undefined = "; ".join(
            f"{_first(names)} ({exc})" for exc, names in sorted(by_outcome.items())
        )
        lines.append(
            f"| `{theorem_id}` | {len(outcomes)} | {refuted} | {undefined or '—'} |"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: sweep_hypotheses.py DIRECTORY", file=sys.stderr)
        return 2
    files = sorted(Path(argv[0]).glob("*.json"))
    print(table(sweep(load_instance(str(file)) for file in files)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
