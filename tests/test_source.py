import ast
import re
from collections import Counter
from pathlib import Path

from idealgraphs import Instance, cyclic_group, group_ring, ideal_lattice, make_cyclic_ring

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "idealgraphs"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so checks in the library must raise instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_per_entry_table_fills_stay_deleted():
    # tables are filled by numpy through ring_core.free_algebra; the old
    # entry-by-entry products live on only as test oracles
    pattern = re.compile(r"\b(_digits_to_index|_index_to_digits|pmul|gmul|vmul)\b")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                found.append(f"{path.name}:{lineno}")
    assert not found, f"per-entry table fills in the package: {found}"


def _loops_over_range(function: ast.FunctionDef) -> list[int]:
    return [
        node.iter.lineno
        for node in ast.walk(function)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "range"
    ]


def test_validators_loop_over_generators_only():
    # groups, rings and modules are checked on generating sets by numpy
    # gathers; the element-by-element loops live on only as test oracles
    guarded = {"group_from_table", "_validate_module", "unital_ring_on", "ring_from_tables"}
    source = (PACKAGE_DIR / "ring_core.py").read_text()
    functions = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in guarded
    }
    assert set(functions) == guarded
    found = [
        f"ring_core.py:{lineno} ({name})"
        for name, function in sorted(functions.items())
        for lineno in _loops_over_range(function)
    ]
    assert not found, f"element loops in the validators: {found}"


def test_ring_tables_are_not_converted_back_to_numpy():
    # rings keep their tables as arrays (add_array, mul_array); the tuple
    # rows `add` and `mul` are for Python loops, never to be fed to numpy
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = getattr(node, "func", None)
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("asarray", "array")
                and getattr(func.value, "id", None) == "np"
            ):
                continue
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if any(
                    isinstance(sub, ast.Attribute) and sub.attr in ("add", "mul")
                    for sub in ast.walk(arg)
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"tuple tables converted to numpy: {found}"


def test_package_reads_no_tuple_table():
    # rings, modules and groups keep their tables as arrays (add_array,
    # mul_array, act_array, op_array); a read of `add`, `mul`, `act` or `op`
    # as a value would want a table by another name, while calls such as
    # set.add(x) and GradeGroup.op(a, b) are method calls
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("add", "mul", "act", "op")
                and isinstance(node.ctx, ast.Load)
                and id(node) not in called
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"tuple tables read in the package: {found}"


def test_package_defines_no_tuple_table_view():
    # tables are arrays only: no freezer, no tuple subclass and no cached
    # second copy of a table; `ring.add` and `ring.mul` are the arrays
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in (
                "_freeze",
                "_Table",
            ):
                found.append(f"{path.name}:{node.lineno} ({node.name})")
            elif isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "tuple" for base in node.bases
            ):
                found.append(f"{path.name}:{node.lineno} ({node.name} is a tuple)")
            elif (
                isinstance(node, ast.FunctionDef)
                and node.name in ("add", "mul", "act", "op")
                and any(getattr(d, "id", None) == "cached_property" for d in node.decorator_list)
            ):
                found.append(f"{path.name}:{node.lineno} (cached {node.name})")
    assert not found, f"tuple table views in the package: {found}"
    ring = group_ring(make_cyclic_ring(2), cyclic_group(3))
    assert ring.add is ring.add_array and ring.mul is ring.mul_array
    assert not hasattr(cyclic_group(3), "op")


def test_one_dispatcher_writes_every_check_report():
    # checks return findings; only the dispatcher behind run_check and
    # run_all turns them into reports
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "TheoremReport"
                    and (path.name, function.name) != ("theorem_suite.py", "_dispatch")
                ):
                    found.append(f"{path.name}:{node.lineno} ({function.name})")
    assert not found, f"reports built outside the dispatcher: {found}"


def test_each_check_id_is_stated_once():
    # the id, like the hypothesis and conclusion text, lives in _register
    source = (PACKAGE_DIR / "theorem_suite.py").read_text()
    ids = [
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_register"
    ]
    assert len(ids) == 32
    repeated = [tid for tid in ids if len(re.findall(rf"[\"']{tid}[\"']", source)) != 1]
    assert not repeated, f"check ids stated more than once: {repeated}"


def test_every_degree_questions_read_no_grade_kind():
    # the classifiers, is_canonical and lemma51 ask about every degree
    # through GradeGroup.probes and GradeGroup.is_subgroup, one definition
    # for finite groups and the integers alike
    guarded = {
        "grading.py": {
            "is_faithful",
            "is_strong",
            "support_is_subgroup",
            "is_first_strong",
            "is_canonical",
        },
        "theorem_suite.py": {"_check_lemma51"},
    }
    found = []
    for filename, names in guarded.items():
        tree = ast.parse((PACKAGE_DIR / filename).read_text(), filename=filename)
        functions = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names
        }
        assert set(functions) == names
        found += [
            f"{filename}:{node.lineno} ({name})"
            for name, function in sorted(functions.items())
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr == "kind"
        ]
    assert not found, f"grade kind read by every-degree questions: {found}"


def test_rings_record_their_constructor_as_one_string():
    # a ring or module names its constructor with `kind`, one string; no
    # nested record of its construction is built or kept
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "kind" for key in node.keys
            ):
                found.append(f"{path.name}:{node.lineno} (a dict with a 'kind' key)")
            elif "construction" in (
                getattr(node, "attr", None),  # ring.construction
                getattr(node, "arg", None),  # a parameter or keyword argument
                getattr(getattr(node, "target", None), "id", None),  # a field
            ):
                found.append(f"{path.name}:{node.lineno} (construction)")
    assert not found, f"construction records in the package: {found}"


def test_instance_builds_every_lattice_with_one_builder():
    # the graded, full, identity-component, base and factor lattices are
    # each a Lattice, so instance.py enumerates, graphs and splits a family
    # in one place
    builders = (
        "enumerate_left_ideals",
        "enumerate_graded_left_ideals",
        "build_intersection_graph",
        "internal_decompositions",
    )
    tree = ast.parse((PACKAGE_DIR / "instance.py").read_text())
    calls = Counter(
        getattr(node.func, "id", None) for node in ast.walk(tree) if isinstance(node, ast.Call)
    )
    assert {name: calls[name] for name in builders} == dict.fromkeys(builders, 1)


def test_per_lattice_pairs_stay_deleted():
    # each compared lattice is read through its Lattice: inst.full,
    # inst.identity, inst.base and inst.factor(mask)
    gone = (
        "all_family",
        "all_graph",
        "re_family",
        "re_graph",
        "re_ring",
        "base_family",
        "base_graph",
        "factor_grading",
        "factor_graph",
        "_factor_gradings",
        "_factor_graphs",
        "_identity_is_whole",
    )
    assert [name for name in gone if hasattr(Instance, name)] == []
    assert not hasattr(ideal_lattice, "is_graded_indecomposable")
    pattern = re.compile(rf"\b(inst|self)\.({'|'.join(gone)})\b")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                found.append(f"{path.name}:{lineno}")
    assert not found, f"per-lattice attributes read in the package: {found}"
