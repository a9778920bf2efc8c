import contextlib
import hashlib
import inspect
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monmap.cli import _suite_params, build_parser, main
from monmap.enumeration import conservative_one_face
from monmap.maps import map_from_json_obj
from monmap.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStructureCommand:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "structure", "--map", "klein")
        assert code == 0
        data = json.loads(out)
        assert data["faces"] == 1 and data["genus"] == {"num": 1, "den": 1}
        assert data["orientable"] is False

    def test_file_input(self, capsys, tmp_path, klein):
        from monmap.maps import map_to_json_obj
        path = tmp_path / "m.json"
        path.write_text(json.dumps(map_to_json_obj(klein)))
        code, out, _ = run(capsys, "structure", "--map", str(path))
        assert code == 0
        assert json.loads(out)["euler_characteristic"] == 0

    def test_graph_class_guard(self, capsys, tmp_path):
        # a star: nine leaf edges around one white vertex
        n = 9
        edges = [[2 * k + 1, 2 * k + 2] for k in range(n)]
        star = {"B": edges, "E": edges,
                "W": [[2 * k + 2, (2 * k + 3) % (2 * n)] for k in range(n)]}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star))
        code, _, err = run(capsys, "structure", "--map", str(path))
        assert code == 2
        assert err.startswith("error:") and "guard" in err

    def test_not_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{B:")
        code, _, err = run(capsys, "structure", "--map", str(path))
        assert code == 2 and err.startswith("error:")

    def test_directory_as_map(self, capsys, tmp_path):
        code, out, err = run(capsys, "structure", "--map", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=16)
LABEL_LIKE = st.integers(-2, 6) | st.booleans() | st.floats(-2, 6) | st.text(max_size=1)
PAIR_LISTS = st.lists(st.lists(LABEL_LIKE, min_size=1, max_size=3), max_size=4)
MAP_SHAPED = st.fixed_dictionaries(
    {"B": PAIR_LISTS, "W": PAIR_LISTS, "E": PAIR_LISTS},
    optional={"root": LABEL_LIKE | JSON_VALUES,
              "labels": st.lists(LABEL_LIKE, max_size=6) | JSON_VALUES})


class TestStructureFuzz:
    """Arbitrary JSON given as --map: a one-line error and exit 2, or a map."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | MAP_SHAPED)
    def test_bad_map_files(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["structure", "--map", str(path)])
        if code == 0:
            assert {"B", "W", "E"} <= set(obj)
            assert json.loads(out.getvalue())["edges"] == len(obj["E"])
        else:
            assert code == 2
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1


class TestMonCommand:
    def test_klein(self, capsys):
        code, out, _ = run(capsys, "mon", "--map", "klein")
        assert code == 0
        data = json.loads(out)
        assert data["mon_top"] == {"num": 2, "den": 3}
        assert data["mon"][0] == {"num": 1, "den": 6}
        assert data["mon"][2] == {"num": 2, "den": 3}

    def test_klein_output_bytes(self, capsys):
        code, out, _ = run(capsys, "mon", "--map", "klein")
        assert code == 0
        assert out == (
            '{\n  "mon": [\n'
            '    {\n      "den": 6,\n      "num": 1\n    },\n'
            '    {\n      "den": 1,\n      "num": 0\n    },\n'
            '    {\n      "den": 3,\n      "num": 2\n    }\n  ],\n'
            '  "mon_top": {\n    "den": 3,\n    "num": 2\n  }\n}\n')

    def test_edge_guard(self, capsys, tmp_path):
        # a star: thirteen leaf edges around one white vertex
        n = 13
        edges = [[2 * k + 1, 2 * k + 2] for k in range(n)]
        star = {"B": edges, "E": edges,
                "W": [[2 * k + 2, (2 * k + 3) % (2 * n)] for k in range(n)]}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star))
        code, out, err = run(capsys, "mon", "--map", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "guard" in err
        assert err.count("\n") == 1 and "Traceback" not in err


# sha256 of the 15 lines of `enumerate --n 3 --family one-face-conservative`:
# the lines it wrote while its maps carried a root, with '"root": 1' removed
ONE_FACE_3_SHA256 = ("78a42be60fb8fcc005d284a51d56e60b"
                     "895f055814680ff6d48fae7ee2e09f00")
# the fifth of those lines as it was written then
ROOTED_LINE = ('{"B": [[1, 2], [3, 4], [5, 6]], '
               '"E": [[1, 3], [2, 5], [4, 6]], '
               '"W": [[1, 6], [2, 3], [4, 5]], '
               '"labels": [1, 2, 3, 4, 5, 6], "root": 1}')


class TestEnumerateCommand:
    def test_jsonl_output(self, capsys, tmp_path):
        out_path = tmp_path / "maps.jsonl"
        code, _, err = run(capsys, "enumerate", "--n", "2",
                           "--family", "one-face-conservative",
                           "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert all(sorted(json.loads(line)) == ["B", "E", "W", "labels"]
                   for line in lines)

    def test_one_face_lines_keep_their_bytes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3",
                           "--family", "one-face-conservative")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ONE_FACE_3_SHA256
        lines = out.splitlines()
        assert lines[4] == ROOTED_LINE.replace(', "root": 1', "")
        assert ([map_from_json_obj(json.loads(line)) for line in lines]
                == list(conservative_one_face(3)))

    def test_rooted_map_file_loads(self, capsys, tmp_path):
        rooted, plain = tmp_path / "rooted.json", tmp_path / "plain.json"
        rooted.write_text(ROOTED_LINE)
        plain.write_text(ROOTED_LINE.replace(', "root": 1', ""))
        first = run(capsys, "mon", "--map", str(rooted))
        assert first[0] == 0
        assert first == run(capsys, "mon", "--map", str(plain))

    def test_involutions_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3",
                           "--family", "involutions")
        assert code == 0
        assert len(out.splitlines()) == 15

    @pytest.mark.parametrize("argv, n", [
        pytest.param(("enumerate", "--family", "one-face-conservative"), "0",
                     id="one-face-conservative-0"),
        pytest.param(("enumerate", "--family", "involutions"), "-1",
                     id="involutions--1"),
        pytest.param(("verify", "lemma-equivalence"), "0",
                     id="verify-lemma-equivalence-0"),
        pytest.param(("verify", "degree-bounds"), "0",
                     id="verify-degree-bounds-0"),
        pytest.param(("chtop", "--P", "1", "--Q", "4", "--A", "2"), "0",
                     id="chtop-0"),
        pytest.param(("chtop", "--P", "1", "--Q", "4", "--A", "2"), "-1",
                     id="chtop--1"),
    ])
    def test_nonpositive_n_rejected(self, capsys, argv, n):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", n])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_guard_error_surfaces(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "4", "--family", "all")
        assert code == 2
        assert "exceeds the guard" in err

    @pytest.mark.parametrize("family", ["involutions",
                                        "one-face-conservative"])
    def test_factorial_families_guarded(self, capsys, family):
        code, out, err = run(capsys, "enumerate", "--n", "8",
                             "--family", family)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("family,n", [
        ("involutions", "8"), ("one-face-conservative", "8"),
        ("one-face-liberal", "5"), ("all", "4"), ("oriented-pairs", "6")])
    def test_guard_leaves_no_out_file(self, capsys, tmp_path, family, n):
        out_path = tmp_path / "x.jsonl"
        code, out, err = run(capsys, "enumerate", "--n", n, "--family",
                             family, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--force" in err and "force=True" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "liberation-oriented", "--n", "4"),
        ("verify", "degree-bounds", "--n", "5"),
        ("chtop", "--n", "6", "--P", "1", "--Q", "4", "--A", "2"),
        ("chtop", "--n", "5", "--P", "60", "--Q", "1", "--A", "1"),
        ("jack", "--lambda", "7", "--alpha", "1"),
        ("ch", "--pi", "1", "--lambda", "7", "--A", "1")],
        ids=["verify", "verify-degree-bounds", "chtop", "chtop-tall-diagram",
             "jack", "ch"])
    def test_guard_message_names_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--force" in err and "force=True" not in err

    def test_sqrt2_rejected_for_chtop(self, capsys):
        code, _, err = run(capsys, "chtop", "--n", "1", "--P", "1",
                           "--Q", "1", "--A", "sqrt2")
        assert code == 2
        assert "rational A" in err

    @pytest.mark.parametrize("argv,option", [
        (("jack", "--lambda", "2", "--alpha", "sqrt2"), "--alpha"),
        (("jack", "--lambda", "2", "--alpha", "1/sqrt2"), "--alpha"),
        (("chtop", "--n", "1", "--P", "sqrt2", "--Q", "1", "--A", "1"), "--P"),
        (("chtop", "--n", "1", "--P", "1", "--Q", "1/sqrt2", "--A", "1"),
         "--Q")],
        ids=["jack-alpha", "jack-alpha-inverse", "chtop-P", "chtop-Q"])
    def test_sqrt2_rejected_for_rational_options(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {option}:" in errors[0]
        assert "Traceback" not in err


class TestBijectionCommand:
    def test_apply_and_invert(self, capsys, tmp_path):
        history = "[[1,5],[2,4],[3,6]]"
        code, out, _ = run(capsys, "bijection", "apply", "--map", "klein",
                           "--history", history)
        assert code == 0
        data = json.loads(out)
        assert data["checks"]["output_orientable"] is True
        assert data["checks"]["graph_preserved"] is True
        assert data["checks"]["graph_class_preserved"] is True
        assert sorted(map(tuple, data["twists"])) == [(1, 5), (2, 4)]
        # the orientable image goes back to klein on the same labelled graph
        path = tmp_path / "image.json"
        path.write_text(json.dumps(data["map"]))
        code, out, _ = run(capsys, "bijection", "invert", "--map", str(path),
                           "--history", history)
        assert code == 0
        back = json.loads(out)
        assert back["checks"]["output_top_degree_pair"] is True
        assert back["checks"]["graph_preserved"] is True
        assert back["checks"]["graph_class_preserved"] is True
        assert back["twists"] == data["twists"]


    @pytest.mark.parametrize("history", [
        "nope", "5", "[1,2]", '[[1,"a"]]', "{}"])
    def test_malformed_history_rejected(self, capsys, history):
        code, _, err = run(capsys, "bijection", "apply", "--map", "klein",
                           "--history", history)
        assert code == 2
        assert err.startswith("error:") and "--history" in err
        assert len(err.splitlines()) == 1


class TestChtopCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "chtop", "--n", "2", "--P", "1",
                           "--Q", "4", "--A", "2")
        assert code == 0
        data = json.loads(out)
        assert data["oriented_sum"] == {"num": 6, "den": 1}
        assert data["one_face_sum_reconciled"] == {"num": 6, "den": 1}
        assert data["closed_form_top"] == {"num": 6, "den": 1}
        assert data["gamma"] == {"num": -3, "den": 2}


class TestJackAndCh:
    def test_jack_table(self, capsys):
        code, out, _ = run(capsys, "jack", "--lambda", "2,1",
                           "--alpha", "2")
        assert code == 0
        data = json.loads(out)
        assert data["theta"]["1,1,1"] == {"num": 1, "den": 1}

    def test_ch_value(self, capsys):
        code, out, _ = run(capsys, "ch", "--pi", "2", "--lambda", "2,2",
                           "--A", "2")
        assert code == 0
        assert json.loads(out)["value"] == {"num": 6, "den": 1}

    def test_ch_sqrt2(self, capsys):
        code, out, _ = run(capsys, "ch", "--pi", "2", "--lambda", "2,2",
                           "--A", "sqrt2")
        assert code == 0
        value = json.loads(out)["value"]
        assert value["sqrt2_coeff"] == {"num": 2, "den": 1}

    @pytest.mark.parametrize("argv, message", [
        (("ch", "--pi", "2,0", "--lambda", "2,2", "--A", "1"),
         "must be positive"),
        (("ch", "--pi", "2", "--lambda", "3,0", "--A", "1"),
         "must be positive"),
        (("jack", "--lambda", "1,2", "--alpha", "1"),
         "must be weakly decreasing"),
        (("ch", "--pi", "3", "--lambda", "2", "--A", "0"),
         "alpha must be positive"),
        (("ch", "--pi", "1", "--lambda", "2", "--A", "0"),
         "alpha must be positive"),
    ], ids=["ch-pi-zero", "ch-lambda-zero", "jack-increasing",
            "ch-A-zero-pi-larger", "ch-A-zero"])
    def test_malformed_partition_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, err = run(capsys, "verify", "mon-examples",
                             "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert "PASS" in err

    def test_failure_exit_one(self, capsys, monkeypatch):
        from monmap.verify import Check, Report

        def broken():
            return Report("mon-examples", {}, [
                Check("deliberately failing", False, {"value": "0"})])

        monkeypatch.setitem(SUITES, "mon-examples", broken)
        code, out, err = run(capsys, "verify", "mon-examples",
                             "--format", "json")
        assert code == 1
        assert "first counterexample" in err
        assert "deliberately failing" in err

    def test_broken_bijection_reports_fail(self, capsys, monkeypatch):
        import importlib

        from monmap.bijection import BijectionResult

        monkeypatch.setattr(importlib.import_module("monmap.verify"), "phi",
                            lambda m, h: BijectionResult(m, tuple(h), ()))
        code, _, err = run(capsys, "verify", "key-bijection", "--n", "2")
        assert code == 1
        assert "key-bijection: FAIL" in err
        assert "first counterexample" in err

    def test_force_on_suite_without_guards(self, capsys):
        code, _, err = run(capsys, "verify", "mon-examples", "--force")
        assert code == 0
        assert "PASS" in err

    @pytest.mark.parametrize("argv, warnings", [
        (["counting", "--n", "2"], ["counting ignores --n"]),
        (["mon-examples", "--n", "2", "--seed", "1"],
         ["mon-examples ignores --n", "mon-examples ignores --seed"]),
        (["bijection", "--n", "1", "--seed", "1"],
         ["key-bijection ignores --seed"]),
        (["degree-bounds", "--n", "1", "--seed", "1"], []),
        (["counting"], []),
    ])
    def test_warns_on_ignored_options(self, capsys, argv, warnings):
        _suite_params(argv[0], build_parser().parse_args(["verify", *argv]))
        assert capsys.readouterr().err.splitlines() == [
            f"warning: suite {w}" for w in warnings]

    def test_ignored_option_leaves_report_bytes(self, capsys):
        code, out, err = run(capsys, "verify", "counting", "--n", "2",
                             "--format", "json")
        assert code == 0
        assert "warning: suite counting ignores --n" in err
        assert out == run(capsys, "verify", "counting", "--format", "json")[1]

    def test_verify_all_stays_quiet(self, capsys, monkeypatch):
        for name in set(SUITES) - {"counting", "mon-examples"}:
            monkeypatch.delitem(SUITES, name)
        code, _, err = run(capsys, "verify", "all", "--n", "2", "--seed", "1")
        assert code == 0
        assert "warning" not in err and err.count("PASS") == 2

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_params_fit_signature(self, name):
        args = build_parser().parse_args(
            ["verify", name, "--force", "--n", "2", "--seed", "1"])
        params = _suite_params(name, args)
        signature = inspect.signature(SUITES[name])
        signature.bind(**params)  # TypeError on an unexpected keyword
        for key in ("force", "seed", "n", "n_exhaustive", "ns"):
            assert (key in params) == (key in signature.parameters)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "counting", "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["passed"] is True
