import json
import re
from pathlib import Path

import pytest

import idealgraphs.cli as cli
import idealgraphs.ring_core as ring_core
import idealgraphs.theorem_suite as suite
from idealgraphs import SchemaError, UnknownConstructor
from idealgraphs.cli import main, parse_instance


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


Z12_DOC = {"ring": {"zn": 12}, "grading": {"trivial": {}}}


class TestParsing:
    def test_minimal_instance(self):
        inst = parse_instance(Z12_DOC, "z12")
        assert inst.ring.size == 12
        assert inst.name == "z12"

    def test_nested_ring_constructors(self):
        doc = {
            "ring": {"product": [{"zn": 2}, {"poly_quotient": {"base": {"zn": 2}, "modulus": [1, 1, 1]}}]},
            "grading": {"trivial": {}},
        }
        inst = parse_instance(doc)
        assert inst.ring.size == 8

    def test_unknown_constructor_names_the_path(self):
        with pytest.raises(UnknownConstructor) as err:
            parse_instance({"ring": {"zmod": 4}, "grading": {"trivial": {}}})
        assert "$.ring" in str(err.value)

    def test_bad_nested_field_names_the_path(self):
        doc = {
            "ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": "two"}}},
            "grading": "canonical",
        }
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        assert "group" in str(err.value)

    def test_extra_top_level_keys_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance({**Z12_DOC, "notes": "hello"})

    def test_canonical_grading_needs_a_carrier_with_one(self):
        with pytest.raises(SchemaError) as err:
            parse_instance({"ring": {"zn": 12}, "grading": "canonical"})
        assert "canonical" in str(err.value)

    def test_limits_enforced(self):
        doc = {**Z12_DOC, "limits": {"max_ring_size": 8}}
        with pytest.raises(SchemaError):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "ring, built",
        [({"zn": 512}, []), ({"product": [{"zn": 2}, {"zn": 512}]}, [2])],
    )
    def test_limits_refuse_before_large_tables_are_built(
        self, monkeypatch, ring, built
    ):
        sizes = []
        real = ring_core._finish_ring

        def counting(size, *args, **kwargs):
            sizes.append(size)
            return real(size, *args, **kwargs)

        monkeypatch.setattr(ring_core, "_finish_ring", counting)
        doc = {"ring": ring, "grading": {"trivial": {}}, "limits": {"max_ring_size": 16}}
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        assert "$.limits.max_ring_size" in str(err.value)
        assert "16" in str(err.value)
        assert sizes == built
        parse_instance({**doc, "ring": {"zn": 16}})
        assert sizes == built + [16]

    @pytest.mark.parametrize(
        "doc, path, order, cap",
        [
            # a group ring over C_k has at least 2^k elements
            (
                {"ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 5}}},
                 "grading": "canonical", "limits": {"max_ring_size": 16}},
                "$.ring.group_ring.group", 5, 16,
            ),
            (
                {"ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 1000}}},
                 "grading": "canonical", "limits": {"max_ring_size": 16}},
                "$.ring.group_ring.group", 1000, 16,
            ),
            (
                {"ring": {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 11}}},
                 "grading": "canonical"},
                "$.ring.group_ring.group", 11, 1024,
            ),
            (
                {"ring": {"zn": 2}, "grading": {"trivial": {"group": {"cyclic": 17}}},
                 "limits": {"max_ring_size": 16}},
                "$.grading.trivial.group", 17, 16,
            ),
            (
                {"ring": {"zn": 2}, "grading": {"trivial": {"group": {"cyclic": 1025}}}},
                "$.grading.trivial.group", 1025, 1024,
            ),
            (
                {"ring": {"zn": 2},
                 "grading": {"explicit": {"group": {"cyclic": 10**6}, "components": {"0": [1]}}},
                 "limits": {"max_ring_size": 64}},
                "$.grading.explicit.group", 10**6, 64,
            ),
        ],
    )
    def test_group_orders_refused_before_tables_are_built(
        self, monkeypatch, doc, path, order, cap
    ):
        built = []
        real = cli.cyclic_group

        def counting(k):
            built.append(k)
            return real(k)

        monkeypatch.setattr(cli, "cyclic_group", counting)
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        message = str(err.value)
        assert message.startswith(f"{path}: ")
        assert f"order {order}" in message and f"cap {cap}" in message
        assert len(message) < 120
        assert built == []

    def test_table_groups_refused_before_they_are_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(cli, "group_from_table", lambda *args: checked.append(args))
        rows = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        doc = {
            "ring": {"group_ring": {"base": {"zn": 2}, "group": {"table": rows}}},
            "grading": "canonical",
            "limits": {"max_ring_size": 16},
        }
        with pytest.raises(SchemaError, match=r"^\$\.ring\.group_ring\.group: .*order 5.*cap 16"):
            parse_instance(doc)
        assert checked == []

    def test_group_orders_at_the_cap_are_accepted(self, monkeypatch):
        built = []
        real = cli.cyclic_group

        def counting(k):
            built.append(k)
            return real(k)

        monkeypatch.setattr(cli, "cyclic_group", counting)
        ring = {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 4}}}
        limits = {"max_ring_size": 16}
        assert parse_instance({"ring": ring, "grading": "canonical", "limits": limits}).ring.size == 16
        trivial = {"trivial": {"group": {"cyclic": 16}}}
        parse_instance({"ring": {"zn": 2}, "grading": trivial, "limits": limits})
        assert built == [4, 16]

    def test_explicit_degree_keys_parse_negatives(self):
        doc = {
            "ring": {"poly_quotient": {"base": {"zn": 2}, "modulus": [0, 0, 1]}},
            "grading": {
                "explicit": {"group": "integers", "components": {"0": [1], "-1": [2]}}
            },
        }
        inst = parse_instance(doc)
        assert inst.grading.support == (-1, 0)
        assert inst.grading.degree_of(2) == -1

    @pytest.mark.parametrize("key", ["1_0", "01", "+1", " 1", "1 ", "-0", "1.0", "one"])
    def test_explicit_degree_keys_are_plain_decimal(self, key):
        # int() reads each of these, or fails on it; only str(deg) names deg,
        # so "1_0" is not degree 10 and "01" cannot stand in for "1"
        doc = {
            "ring": {"zn": 4},
            "grading": {
                "explicit": {"group": "integers", "components": {"0": [1], key: []}}
            },
        }
        with pytest.raises(SchemaError, match="plain decimal") as info:
            parse_instance(doc)
        assert str(info.value).startswith("$.grading.explicit.components:")


README = Path(__file__).resolve().parent.parent / "README.md"

# each ring and module form the README schema documents, with a concrete use
README_FORMS = [
    ('"zn": 12', {"zn": 12}),
    ('"product": [<ring>, <ring>]', {"product": [{"zn": 2}, {"zn": 3}]}),
    (
        '"poly_quotient": {"base": <ring>, "modulus": [c0, c1, ..., 1]}',
        {"poly_quotient": {"base": {"zn": 2}, "modulus": [1, 1, 1]}},
    ),
    (
        '"algebra": {"n": 2, "dim": 3, "table": [[..]], "basis": ["1","x","y"]}',
        {
            "algebra": {
                "n": 2,
                "dim": 3,
                "table": [
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                ],
                "basis": ["1", "x", "y"],
            }
        },
    ),
    (
        '"group_ring": {"base": <ring>, "group": <group>}',
        {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 3}}},
    ),
    (
        '"idealization": {"base": <ring>, "module": "self"}',
        {"idealization": {"base": {"zn": 4}, "module": "self"}},
    ),
    (
        '{"zn_quotient": m} over {"zn": n}',
        {"idealization": {"base": {"zn": 4}, "module": {"zn_quotient": 2}}},
    ),
]


class TestReadmeSchema:
    @pytest.mark.parametrize(
        "form, ring", README_FORMS, ids=[next(iter(r)) for _, r in README_FORMS]
    )
    def test_documented_form_parses(self, form, ring):
        readme = re.sub(r"\s+", " ", README.read_text())
        assert form in readme
        inst = parse_instance({"ring": ring, "grading": {"trivial": {}}})
        assert inst.ring.size > 1
        assert inst.ring.kind == next(iter(ring))
        if "idealization" in ring:
            module = ring["idealization"]["module"]
            want = module if module == "self" else next(iter(module))
            assert inst.ring.parts["module"].kind == want


class TestExitCodes:
    def test_verify_clean_instance(self, tmp_path, capsys):
        path = write(tmp_path, "z12.json", Z12_DOC)
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "fail: 0" in out

    def test_verify_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "z12.json", Z12_DOC)

        def always_fail(inst):
            return suite.Finding([("refuted", "FAIL")], "by construction")

        doomed = suite.TheoremCheck(
            theorem_id="doomed",
            kinds=(),
            summary="always fails",
            hypothesis="h",
            conclusion="c",
            run=always_fail,
        )
        monkeypatch.setitem(suite._REGISTRY, "doomed", doomed)
        assert main(["verify", path, "--theorems", "doomed"]) == 1
        out = capsys.readouterr().out
        assert "witness: by construction" in out

    def test_verify_refuses_an_empty_selection(self, corpus_dir, capsys):
        assert main(["verify", str(corpus_dir / "z4.json"), "--theorems", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --theorems ',' names no check id\n"

    def test_verify_runs_a_repeated_id_once_in_first_named_order(self, corpus_dir, capsys):
        args = ["verify", str(corpus_dir / "z4.json"), "--theorems", "t1,c1,t1"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:-1]] == ["t1", "c1"]
        assert lines[-1].startswith("checks: 2  ")

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_schema_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"ring": {"zn": 12}})
        assert main(["classify", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, module", [({"zn": 512}, "self"), ({"zn": 64}, {"zn_quotient": 32})]
    )
    def test_over_cap_idealization_refused_before_its_module_is_checked(
        self, tmp_path, capsys, monkeypatch, base, module
    ):
        checked = []
        monkeypatch.setattr(ring_core, "_validate_module", checked.append)
        ring = {"idealization": {"base": base, "module": module}}
        path = write(tmp_path, "big.json", {"ring": ring, "grading": "canonical"})
        assert main(["classify", path]) == 2
        assert "exceeds the cap 1024" in capsys.readouterr().err
        assert checked == []

    def test_missing_file_exits_two(self, capsys):
        assert main(["ideals", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestOutputs:
    def test_ideals_listing(self, tmp_path, capsys):
        path = write(tmp_path, "z12.json", Z12_DOC)
        assert main(["ideals", path]) == 0
        out = capsys.readouterr().out
        assert "left ideals listed: 6" in out
        assert "<6>" in out and "graded" in out

    def test_graded_only_filter(self, tmp_path, capsys):
        doc = {
            "ring": {"group_ring": {"base": {"zn": 4}, "group": {"cyclic": 2}}},
            "grading": "canonical",
        }
        path = write(tmp_path, "z4c2.json", doc)
        assert main(["ideals", path, "--graded-only"]) == 0
        out = capsys.readouterr().out
        assert "left ideals listed: 3" in out

    def test_classify_output(self, tmp_path, capsys):
        path = write(tmp_path, "z12.json", Z12_DOC)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "first_strong: True" in out
        assert "graded left ideals: 6" in out

    def test_classify_counts_vertices_past_the_graph_cap(self, tmp_path, capsys):
        # F2^7 has 126 nontrivial proper left ideals, past the 64-vertex cap
        # on graphs; classify prints their count and builds no graph
        ring = {"zn": 2}
        for _ in range(6):
            ring = {"product": [ring, {"zn": 2}]}
        path = write(tmp_path, "f2_7.json", {"ring": ring, "grading": {"trivial": {}}})
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "graded graph: 126 vertices" in out
        assert "full graph: 126 vertices" in out

    def test_graph_dot_golden(self, tmp_path, capsys):
        path = write(tmp_path, "z12.json", Z12_DOC)
        assert main(["graph", path, "--which", "graded", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph G {")
        assert 'v0 [label="<6>"];' in out
        assert "v0 -- v2;" in out

    def test_graph_json_to_file(self, tmp_path, capsys):
        path = write(tmp_path, "z12.json", Z12_DOC)
        target = tmp_path / "graph.json"
        assert main(["graph", path, "--format", "json", "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["invariants"]["order"] == 4
        assert doc["invariants"]["clique_number"] == 3

    @pytest.mark.parametrize("target", ["missing/g.dot", "."])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, target):
        path = write(tmp_path, "z12.json", Z12_DOC)
        out = tmp_path / target
        assert main(["graph", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_quotient_graph_needs_faithful_grading(self, tmp_path, capsys):
        doc = {
            "ring": {"idealization": {"base": {"zn": 4}, "module": "self"}},
            "grading": "canonical",
        }
        path = write(tmp_path, "z4self.json", doc)
        assert main(["graph", path, "--which", "quotient"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_identity_graph(self, tmp_path, capsys):
        doc = {
            "ring": {"group_ring": {"base": {"zn": 8}, "group": {"cyclic": 2}}},
            "grading": "canonical",
        }
        path = write(tmp_path, "z8c2.json", doc)
        assert main(["graph", path, "--which", "identity", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["invariants"]["order"] == 2
        assert doc["invariants"]["complete"] is True


class TestCorpusCommand:
    def test_corpus_runs_clean(self, corpus_dir, capsys):
        assert main(["corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "fail: 0" in out
        assert "checks without a non-vacuous pass: none" in out

    def test_corpus_output_is_deterministic(self, corpus_dir, capsys):
        main(["corpus", str(corpus_dir)])
        first = capsys.readouterr().out
        main(["corpus", str(corpus_dir)])
        second = capsys.readouterr().out
        assert first == second

    def test_empty_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_check_id_is_refused_before_any_file(self, corpus_dir, capsys):
        assert main(["corpus", str(corpus_dir), "--theorems", "t1,nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no check registered under id 'nope'\n"

    @pytest.mark.parametrize("selection", [",", "", " , "])
    def test_an_empty_selection_is_refused_before_any_file(
        self, corpus_dir, capsys, selection
    ):
        assert main(["corpus", str(corpus_dir), "--theorems", selection]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --theorems {selection!r} names no check id\n"

    def test_a_repeated_id_runs_once(self, corpus_dir, capsys):
        assert main(["corpus", str(corpus_dir), "--theorems", "t1,t1"]) == 0
        out = capsys.readouterr().out
        assert "instances: 20  pass: 20  fail: 0  vacuous: 0  skipped: 0" in out
        assert out.count("  t1 ") == 20

    def test_bad_file_does_not_stop_the_sweep(self, corpus_dir, tmp_path, capsys):
        write(tmp_path, "a_zn1.json", {"ring": {"zn": 1}, "grading": {"trivial": {}}})
        (tmp_path / "z2.json").write_text((corpus_dir / "z2.json").read_text())
        assert main(["corpus", str(tmp_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("a_zn1: ERROR modulus must be at least 2")
        assert lines[1] == "z2:"
        assert any(line.startswith("instances: 1  pass: ") for line in lines)
        assert lines[-1] == "files with errors: ['a_zn1']"


# documents of the wrong shape: each is refused with the path of its fault
MALFORMED = {
    "algebra_table_number": (
        {"ring": {"algebra": {"n": 2, "dim": 1, "table": 5}}, "grading": {"trivial": {}}},
        "$.ring.algebra.table",
    ),
    "algebra_table_flat": (
        {"ring": {"algebra": {"n": 2, "dim": 1, "table": [[5]]}}, "grading": {"trivial": {}}},
        "$.ring.algebra.table",
    ),
    "algebra_basis_number": (
        {
            "ring": {"algebra": {"n": 2, "dim": 1, "table": [[[1]]], "basis": 3}},
            "grading": {"trivial": {}},
        },
        "$.ring.algebra.basis",
    ),
    "algebra_dim_bool": (
        {"ring": {"algebra": {"n": 2, "dim": True, "table": [[[1]]]}}, "grading": {"trivial": {}}},
        "$.ring.algebra",
    ),
    "group_names_number": (
        {"ring": {"zn": 4}, "grading": {"trivial": {"group": {"table": [[0]], "names": 3}}}},
        "$.grading.trivial.group",
    ),
    "group_table_strings": (
        {
            "ring": {"group_ring": {"base": {"zn": 2}, "group": {"table": [["e"]]}}},
            "grading": "canonical",
        },
        "$.ring.group_ring.group",
    ),
    "zn_bool": ({"ring": {"zn": True}, "grading": {"trivial": {}}}, "$.ring.zn"),
    "cap_bool": (
        {"ring": {"zn": 4}, "grading": {"trivial": {}}, "limits": {"max_ring_size": True}},
        "$.limits.max_ring_size",
    ),
    "cyclic_bool": (
        {"ring": {"zn": 4}, "grading": {"trivial": {"group": {"cyclic": True}}}},
        "$.grading.trivial.group",
    ),
    "zn_quotient_string": (
        {
            "ring": {"idealization": {"base": {"zn": 4}, "module": {"zn_quotient": "2"}}},
            "grading": "canonical",
        },
        "$.ring.idealization.module",
    ),
    "component_bool": (
        {
            "ring": {"zn": 4},
            "grading": {"explicit": {"group": "integers", "components": {"0": [True]}}},
        },
        "$.grading.explicit.components.0",
    ),
    # right types, wrong sizes
    "group_table_empty": (
        {"ring": {"zn": 4}, "grading": {"trivial": {"group": {"table": []}}}},
        "$.grading.trivial.group.table",
    ),
    "group_row_short": (
        {"ring": {"zn": 4}, "grading": {"trivial": {"group": {"table": [[0, 1], [1]]}}}},
        "$.grading.trivial.group.table",
    ),
    "group_names_short": (
        {
            "ring": {"zn": 4},
            "grading": {"trivial": {"group": {"table": [[0, 1], [1, 0]], "names": ["e"]}}},
        },
        "$.grading.trivial.group.names",
    ),
    "algebra_table_ragged": (
        {
            "ring": {"algebra": {"n": 2, "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1]]]}},
            "grading": {"trivial": {}},
        },
        "$.ring.algebra.table",
    ),
    "algebra_cell_short": (
        {
            "ring": {"algebra": {"n": 2, "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0]]]}},
            "grading": {"trivial": {}},
        },
        "$.ring.algebra.table",
    ),
    "algebra_basis_short": (
        {
            "ring": {
                "algebra": {
                    "n": 2, "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                    "basis": ["1"],
                },
            },
            "grading": {"trivial": {}},
        },
        "$.ring.algebra.basis",
    ),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", MALFORMED)
    def test_refused_with_the_path(self, name):
        doc, path = MALFORMED[name]
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        assert str(err.value).startswith(f"{path}: ")

    def test_corpus_sweep_lists_every_bad_file(self, corpus_dir, tmp_path, capsys):
        for name, (doc, _) in MALFORMED.items():
            write(tmp_path, f"{name}.json", doc)
        (tmp_path / "z12.json").write_text((corpus_dir / "z12.json").read_text())
        assert main(["corpus", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.splitlines()
        for name, (_, path) in MALFORMED.items():
            assert f"{name}: ERROR {path}: " in captured.out
        assert "z12:" in lines
        assert any(line.startswith("instances: 1  pass: ") for line in lines)
        assert lines[-1] == f"files with errors: {sorted(MALFORMED)}"
