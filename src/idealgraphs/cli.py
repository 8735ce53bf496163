"""Command line front end.

Instances are JSON documents with a ring constructor, a grading, and an
optional limits block:

    {"ring": {"zn": 12}, "grading": {"trivial": {}}}

Ring constructors: zn, product, poly_quotient, algebra, group_ring,
idealization.  Gradings: "canonical" (group rings, square-zero extensions,
and pure-power polynomial quotients carry one), {"trivial": {...}} with an
optional grade group, or {"explicit": {...}} naming component generators per
degree.  Exit codes: 0 success, 1 a verification check failed, 2 bad input
(for `corpus`, any file that fails to load; the other files are still run).
Only `verify` and `corpus` import the check registry (theorem_suite), so the
other verbs start without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AlgebraError, SchemaError, SizeLimit, UnknownConstructor, UnknownTheorem
from .grading import (
    INTEGERS,
    GradeGroup,
    Grading,
    classify,
    explicit_grading,
    finite_grades,
    group_ring_grading,
    idealization_grading,
    poly_quotient_integer_grading,
    trivial_grading,
)
from .graph_engine import export_graph
from .ideal_lattice import is_graded, nontrivial_proper
from .instance import Instance
from .ring_core import (
    MAX_RING_SIZE,
    FiniteRing,
    cyclic_group,
    direct_product,
    group_from_table,
    group_ring,
    idealization,
    make_cyclic_ring,
    module_self,
    module_zn_quotient,
    polynomial_quotient,
    algebra_over_zn,
)

def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_int(x) -> bool:
    """Whether x is a JSON integer; true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_nested(x, depth: int) -> bool:
    """Whether x is a list nested `depth` deep with integers at the bottom."""
    if depth == 0:
        return _is_int(x)
    return isinstance(x, list) and all(_is_nested(y, depth - 1) for y in x)


def _is_names(x) -> bool:
    return isinstance(x, list) and all(isinstance(y, str) for y in x)


def _check_group_order(k: int, path: str, cap: int, of_group_ring: bool) -> None:
    """Refuse a group before its k x k table is built: a grade group of order
    over the cap, or a group whose group ring, of at least 2^k elements, is."""
    if of_group_ring and k > cap.bit_length() - 1:
        raise SchemaError(
            f"{path}: a group of order {k} gives a group ring of at least 2^{k} "
            f"elements, over the cap {cap}"
        )
    if k > cap:
        raise SchemaError(f"{path}: group order {k} exceeds the cap {cap}")


def _parse_group(node, path: str, cap: int, of_group_ring: bool = False):
    if node == "integers":
        return INTEGERS
    _require(isinstance(node, dict), path, "expected 'integers' or an object")
    if "cyclic" in node:
        _require(
            set(node) == {"cyclic"} and _is_int(node["cyclic"]),
            path,
            "cyclic group form is {'cyclic': k}",
        )
        _check_group_order(node["cyclic"], path, cap, of_group_ring)
        return finite_grades(cyclic_group(node["cyclic"]))
    if "table" in node:
        _require(
            set(node) <= {"table", "names"}
            and _is_nested(node["table"], 2)
            and _is_names(node.get("names", [])),
            path,
            "table group form is {'table': [rows], 'names'?: [...]}",
        )
        table = node["table"]
        _check_group_order(len(table), path, cap, of_group_ring)
        _require(
            table and all(len(row) == len(table) for row in table),
            f"{path}.table",
            "expected a nonempty square table, one row per element",
        )
        _require(
            len(node.get("names", table)) == len(table),
            f"{path}.names",
            f"expected {len(table)} names, one per element",
        )
        return finite_grades(group_from_table(table, node.get("names")))
    raise UnknownConstructor(f"{path}: unknown group form {sorted(node)!r}")


def _parse_ring(node, path: str, max_size: int) -> FiniteRing:
    """Build the ring bottom-up; every constructor refuses a carrier over
    max_size before it fills a table."""
    _require(
        isinstance(node, dict) and len(node) == 1,
        path,
        "expected an object with exactly one ring constructor key",
    )
    ((key, val),) = node.items()
    if key == "zn":
        _require(_is_int(val), f"{path}.zn", "expected an integer modulus")
        return make_cyclic_ring(val, max_size)
    if key == "product":
        _require(
            isinstance(val, list) and len(val) == 2,
            f"{path}.product",
            "expected a list of two ring descriptions",
        )
        return direct_product(
            _parse_ring(val[0], f"{path}.product[0]", max_size),
            _parse_ring(val[1], f"{path}.product[1]", max_size),
            max_size,
        )
    if key == "poly_quotient":
        _require(
            isinstance(val, dict) and set(val) == {"base", "modulus"},
            f"{path}.poly_quotient",
            "expected {'base': ring, 'modulus': [c0, ..., 1]}",
        )
        base = _parse_ring(val["base"], f"{path}.poly_quotient.base", max_size)
        _require(
            _is_nested(val["modulus"], 1),
            f"{path}.poly_quotient.modulus",
            "expected a list of integer coefficients",
        )
        return polynomial_quotient(base, val["modulus"], max_size)
    if key == "algebra":
        _require(
            isinstance(val, dict)
            and {"n", "dim", "table"} <= set(val) <= {"n", "dim", "table", "basis"}
            and _is_int(val["n"])
            and _is_int(val["dim"]),
            f"{path}.algebra",
            "expected {'n': int, 'dim': int, 'table': [...], 'basis': [...]?}",
        )
        _require(
            _is_nested(val["table"], 3),
            f"{path}.algebra.table",
            "expected rows of cells, each a list of integer coefficients",
        )
        _require(
            _is_names(val.get("basis", [])),
            f"{path}.algebra.basis",
            "expected a list of basis names",
        )
        dim, table = val["dim"], val["table"]
        if dim >= 1:  # the constructor refuses an algebra without a basis
            _require(
                len(table) == dim
                and all(len(row) == dim and all(len(c) == dim for c in row) for row in table),
                f"{path}.algebra.table",
                f"expected {dim} rows of {dim} cells, each of {dim} coefficients",
            )
            _require(
                len(val.get("basis", table)) == dim,
                f"{path}.algebra.basis",
                f"expected {dim} basis names",
            )
        return algebra_over_zn(val["n"], dim, table, val.get("basis"), max_size)
    if key == "group_ring":
        _require(
            isinstance(val, dict) and set(val) == {"base", "group"},
            f"{path}.group_ring",
            "expected {'base': ring, 'group': group}",
        )
        grades = _parse_group(
            val["group"], f"{path}.group_ring.group", max_size, of_group_ring=True
        )
        _require(
            grades.kind == "finite",
            f"{path}.group_ring.group",
            "group rings need a finite group",
        )
        return group_ring(
            _parse_ring(val["base"], f"{path}.group_ring.base", max_size),
            grades.group,
            max_size,
        )
    if key == "idealization":
        _require(
            isinstance(val, dict) and set(val) == {"base", "module"},
            f"{path}.idealization",
            "expected {'base': ring, 'module': 'self' | {'zn_quotient': m}}",
        )
        base = _parse_ring(val["base"], f"{path}.idealization.base", max_size)
        mod = val["module"]
        if mod == "self":
            module = module_self(base)
        elif isinstance(mod, dict) and set(mod) == {"zn_quotient"} and _is_int(
            mod["zn_quotient"]
        ):
            module = module_zn_quotient(base, mod["zn_quotient"])
        else:
            raise SchemaError(
                f"{path}.idealization.module: expected 'self' or "
                "{'zn_quotient': m}"
            )
        return idealization(base, module, max_size)
    raise UnknownConstructor(f"{path}: unknown ring constructor {key!r}")


def _parse_degree(key: str, grades: GradeGroup, path: str) -> int:
    """The degree a component key names: an integer written in plain
    decimal, as str(deg) writes it, so no two keys name one degree."""
    try:
        deg = int(key)
    except ValueError:
        deg = None
    if deg is None or str(deg) != key:
        raise SchemaError(
            f"{path}: degree keys must be integers in plain decimal, got {key!r}"
        )
    if grades.kind == "finite" and not 0 <= deg < grades.group.size:
        raise SchemaError(f"{path}: degree {deg} outside the group's range")
    return deg


def _parse_grading(node, ring: FiniteRing, path: str, max_size: int) -> Grading:
    if node == "canonical":
        if ring.kind == "group_ring":
            return group_ring_grading(ring)
        if ring.kind == "idealization":
            return idealization_grading(ring)
        if ring.kind == "poly_quotient":
            return poly_quotient_integer_grading(ring)
        raise SchemaError(
            f"{path}: no canonical grading for a {ring.kind!r} ring; use "
            "'trivial' or 'explicit'"
        )
    _require(
        isinstance(node, dict) and len(node) == 1,
        path,
        "expected 'canonical' or an object with one grading key",
    )
    ((key, val),) = node.items()
    if key == "trivial":
        _require(
            isinstance(val, dict) and set(val) <= {"group"},
            f"{path}.trivial",
            "expected {} or {'group': group}",
        )
        grades = (
            _parse_group(val["group"], f"{path}.trivial.group", max_size)
            if "group" in val
            else None
        )
        return trivial_grading(ring, grades)
    if key == "explicit":
        _require(
            isinstance(val, dict) and set(val) == {"group", "components"},
            f"{path}.explicit",
            "expected {'group': group, 'components': {degree: [elements]}}",
        )
        grades = _parse_group(val["group"], f"{path}.explicit.group", max_size)
        comps = val["components"]
        _require(
            isinstance(comps, dict) and comps,
            f"{path}.explicit.components",
            "expected a nonempty object of degree keys",
        )
        generators = {}
        for deg_key, gens in comps.items():
            deg = _parse_degree(deg_key, grades, f"{path}.explicit.components")
            _require(
                _is_nested(gens, 1),
                f"{path}.explicit.components.{deg_key}",
                "expected a list of element indices",
            )
            generators[deg] = gens
        return explicit_grading(ring, grades, generators)
    raise UnknownConstructor(f"{path}: unknown grading kind {key!r}")


def parse_instance(doc, name: str = "instance") -> Instance:
    """Build an Instance from a decoded JSON document."""
    _require(isinstance(doc, dict), "$", "instance document must be an object")
    _require(
        {"ring", "grading"} <= set(doc) <= {"ring", "grading", "limits"},
        "$",
        "expected keys 'ring', 'grading', and optionally 'limits'",
    )
    limits = doc.get("limits", {})
    _require(
        isinstance(limits, dict) and set(limits) <= {"max_ring_size"},
        "$.limits",
        "only 'max_ring_size' is supported",
    )
    cap = limits.get("max_ring_size")
    _require(cap is None or _is_int(cap), "$.limits.max_ring_size", "expected int")
    if cap is None or cap >= MAX_RING_SIZE:
        cap = MAX_RING_SIZE
        ring = _parse_ring(doc["ring"], "$.ring", cap)
    else:
        # no part outgrows the ring built from it, so refusing every part over
        # the cap refuses exactly the rings over it, before a table is filled
        try:
            ring = _parse_ring(doc["ring"], "$.ring", cap)
        except SizeLimit as exc:
            raise SchemaError(f"$.limits.max_ring_size: {exc}") from None
    grading = _parse_grading(doc["grading"], ring, "$.grading", cap)
    return Instance(name=name, ring=ring, grading=grading)


def load_instance(file_path: str) -> Instance:
    path = Path(file_path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {file_path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{file_path} is not valid JSON: {exc}")
    return parse_instance(doc, name=path.stem)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_ideals(args) -> int:
    inst = load_instance(args.instance)
    rows = []
    for ideal in inst.full.family:
        graded = is_graded(inst.grading, ideal.mask)
        if args.graded_only and not graded:
            continue
        rows.append((ideal.sort_key(), ideal.label(), ideal.size, graded))
    rows.sort()
    lines = [f"ring size {inst.ring.size}, left ideals listed: {len(rows)}"]
    for _, label, size, graded in rows:
        tag = "graded" if graded else "      "
        lines.append(f"  {label:24s} size {size:4d}  {tag}")
    _emit("\n".join(lines), None)
    return 0


def _graph_for(inst: Instance, which: str):
    if which == "graded":
        return inst.graded_graph
    if which == "all":
        return inst.full.graph
    if which == "identity":
        return inst.identity.graph
    if which == "quotient":
        return inst.quotient
    raise SchemaError(f"unknown graph selector {which!r}")


def cmd_graph(args) -> int:
    inst = load_instance(args.instance)
    g = _graph_for(inst, args.which)
    _emit(export_graph(g, args.format), args.out)
    return 0


def cmd_classify(args) -> int:
    inst = load_instance(args.instance)
    info = classify(inst.grading)
    lines = [
        f"ring: {inst.name}, {inst.ring.size} elements, "
        f"{'commutative' if inst.ring.commutative else 'noncommutative'}",
        f"support: {info['support']}",
    ]
    for key in ("e_faithful", "faithful", "strong", "first_strong", "support_is_subgroup"):
        lines.append(f"{key}: {info[key]}")
    lines.append(f"graded left ideals: {len(inst.graded_family)}")
    lines.append(f"left ideals: {len(inst.full.family)}")
    # the vertices are counted, not built, so the graph cap refuses no ring here
    lines.append(f"graded graph: {len(nontrivial_proper(inst.graded_family))} vertices")
    lines.append(f"full graph: {len(nontrivial_proper(inst.full.family))} vertices")
    _emit("\n".join(lines), None)
    return 0


def _selected_ids(arg: str | None) -> list[str] | None:
    """The ids a --theorems list names, each once, in the order first named;
    None when the option is absent."""
    if arg is None:
        return None
    wanted = list(dict.fromkeys(t.strip() for t in arg.split(",") if t.strip()))
    if not wanted:
        raise UnknownTheorem(f"--theorems {arg!r} names no check id")
    return wanted


def _print_reports(reports, verbose: bool) -> tuple[int, int, int, int]:
    counts = {"PASS": 0, "FAIL": 0, "VACUOUS": 0, "SKIPPED": 0}
    for rep in reports:
        counts[rep.verdict] += 1
        line = f"  {rep.theorem_id:20s} {rep.verdict}"
        if rep.verdict == "FAIL":
            line += f"  witness: {rep.witness}"
        print(line)
        if verbose or rep.verdict == "FAIL":
            for name, sub in rep.directions:
                print(f"      {name}: {sub}")
            for note in rep.annotations:
                print(f"      note: {note}")
    return counts["PASS"], counts["FAIL"], counts["VACUOUS"], counts["SKIPPED"]


def cmd_verify(args) -> int:
    from .theorem_suite import run_all

    ids = _selected_ids(args.theorems)
    inst = load_instance(args.instance)
    reports = run_all(inst, ids)
    print(f"{inst.name}:")
    p, f, v, s = _print_reports(reports, args.verbose)
    print(f"checks: {len(reports)}  pass: {p}  fail: {f}  vacuous: {v}  skipped: {s}")
    return 1 if f else 0


def cmd_corpus(args) -> int:
    from .theorem_suite import run_all, theorem_ids, theorem_summary

    ids = _selected_ids(args.theorems)
    for theorem_id in ids or ():
        theorem_summary(theorem_id)  # an unknown id is refused before any file
    root = Path(args.directory)
    files = sorted(root.glob("*.json"))
    if not files:
        raise SchemaError(f"no instance files in {args.directory}")
    totals = [0, 0, 0, 0]
    pass_by_id: dict[str, int] = {t: 0 for t in (ids or theorem_ids())}
    failed = []
    errors = []
    for file in files:
        try:
            inst = load_instance(str(file))
            reports = run_all(inst, ids)
        except AlgebraError as exc:
            print(f"{file.stem}: ERROR {exc}")
            errors.append(file.stem)
            continue
        print(f"{inst.name}:")
        p, f, v, s = _print_reports(reports, args.verbose)
        totals[0] += p
        totals[1] += f
        totals[2] += v
        totals[3] += s
        for rep in reports:
            if rep.verdict == "PASS":
                pass_by_id[rep.theorem_id] += 1
            elif rep.verdict == "FAIL":
                failed.append(f"{inst.name}/{rep.theorem_id}")
    never_pass = sorted(t for t, n in pass_by_id.items() if n == 0)
    print(
        f"instances: {len(files) - len(errors)}  pass: {totals[0]}  fail: {totals[1]}  "
        f"vacuous: {totals[2]}  skipped: {totals[3]}"
    )
    print(f"checks without a non-vacuous pass: {never_pass if never_pass else 'none'}")
    if failed:
        print(f"failing: {failed}")
    if errors:
        print(f"files with errors: {errors}")
        return 2
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealgraphs",
        description="intersection graphs of graded left ideals in finite rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideals = sub.add_parser("ideals", help="list the left ideal lattice")
    p_ideals.add_argument("instance", help="instance JSON file")
    p_ideals.add_argument(
        "--graded-only", action="store_true", help="restrict to graded ideals"
    )
    p_ideals.set_defaults(fn=cmd_ideals)

    p_graph = sub.add_parser("graph", help="export an intersection graph")
    p_graph.add_argument("instance", help="instance JSON file")
    p_graph.add_argument(
        "--which",
        choices=("graded", "all", "identity", "quotient"),
        default="graded",
        help="which graph to build",
    )
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--out", help="write to a file instead of stdout")
    p_graph.set_defaults(fn=cmd_graph)

    p_classify = sub.add_parser("classify", help="describe the grading")
    p_classify.add_argument("instance", help="instance JSON file")
    p_classify.set_defaults(fn=cmd_classify)

    p_verify = sub.add_parser("verify", help="run structure checks on one instance")
    p_verify.add_argument("instance", help="instance JSON file")
    p_verify.add_argument("--theorems", help="comma separated check ids")
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="run checks over a directory")
    p_corpus.add_argument("directory", help="directory of instance JSON files")
    p_corpus.add_argument("--theorems", help="comma separated check ids")
    p_corpus.add_argument("--verbose", action="store_true")
    p_corpus.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
