"""JSON file formats, load-time relabeling, and the command-line frontend."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braceforge import cli, jsonio, structure, ybe
from braceforge.braces import almost_trivial_brace, direct_product, is_isomorphic, trivial_brace
from braceforge.catalog import alternating_5, cyclic, symmetric_group
from braceforge.cli import main
from braceforge.construct import enumerate_braces
from braceforge.errors import (
    Degenerate,
    GroupInvalid,
    GroupValidationError,
    InvalidDocument,
    NotClosed,
    TheoremViolation,
)
from braceforge.structure import ChiefFactorReport, is_soluble
from braceforge.ybe import flip_solution, solution_from_brace


# C3 with its identity at index 1, so the loader relabels it
C3_AT_1 = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
# (row, col, entry) that is no label 0..2; the first two alias a label under
# Python indexing and equality (-1 -> 2, true -> 1), the last two cannot index
NON_LABELS = pytest.mark.parametrize("row, col, entry", [
    (0, 0, -1), (0, 2, True), (0, 0, 2.0), (0, 0, 3)],
    ids=["negative", "bool", "float", "out-of-range"])


def with_entry(table, row, col, entry):
    out = [list(r) for r in table]
    out[row][col] = entry
    return out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj), encoding="utf-8")
    return str(path)


class TestGroupFiles:
    def test_roundtrip(self, tmp_path):
        G = symmetric_group(3)
        path = write(tmp_path, "s3.json", jsonio.group_to_json(G))
        loaded, report = jsonio.load_group(path)
        assert loaded.table == G.table and report.relabeling is None

    def test_relabeling_recorded(self):
        # C3 written with its identity at index 1; the loader moves it to 0
        data = {"order": 3, "table": [[2, 0, 1], [0, 1, 2], [1, 2, 0]]}
        loaded, report = jsonio.load_group_data(data)
        assert report.relabeling is not None
        assert loaded.table[0] == tuple(range(3))

    def test_invalid_refused(self):
        with pytest.raises(GroupValidationError):
            jsonio.load_group_data({"order": 2, "table": [[0, 1], [1, 1]]})

    @pytest.mark.parametrize("order", [2.0, True, 3, "2"])
    def test_declared_order_must_be_the_int_size(self, order):
        with pytest.raises(InvalidDocument):
            jsonio.load_group_data({"order": order, "table": [[0, 1], [1, 0]]})

    @NON_LABELS
    def test_non_label_refused_after_relabeling(self, row, col, entry):
        with pytest.raises(NotClosed):
            jsonio.load_group_data({"table": with_entry(C3_AT_1, row, col, entry)})


class TestBraceFiles:
    def test_roundtrip(self, tmp_path):
        B = trivial_brace(cyclic(4))
        path = write(tmp_path, "b.json", jsonio.brace_to_json(B))
        loaded, report = jsonio.load_brace(path)
        assert loaded == B and report.relabeling is None

    def test_relabeled_brace(self):
        # trivial C3 brace written with labels 0 and 1 swapped
        relabeled = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        data = {"order": 3, "add": relabeled, "mul": relabeled}
        loaded, report = jsonio.load_brace_data(data)
        assert report.relabeling is not None
        assert loaded == trivial_brace(cyclic(3))

    def test_bool_entries_refused(self):
        # true == 1 and false == 0 in Python, so only a type check catches these
        table = [[0, True], [True, 0]]
        with pytest.raises(GroupInvalid):
            jsonio.load_brace_data({"add": table, "mul": [[0, 1], [1, 0]]})

    @NON_LABELS
    @pytest.mark.parametrize("which", ["add", "mul"])
    def test_non_label_refused_after_relabeling(self, which, row, col, entry):
        data = {"add": C3_AT_1, "mul": C3_AT_1}
        data[which] = with_entry(C3_AT_1, row, col, entry)
        with pytest.raises(GroupInvalid) as exc:
            jsonio.load_brace_data(data)
        assert exc.value.which == which and isinstance(exc.value.cause, NotClosed)

    @pytest.mark.parametrize("add, mul", [
        (5, 5),
        ([1, 2], [1, 2]),
        ([[1, 0], [0]], [[0, 1], [1, 0]]),  # ragged: the identity search would index past a row
        ([[0, 1], [1, 0]], [[0]]),
    ])
    def test_table_shape_refused(self, add, mul):
        with pytest.raises(InvalidDocument):
            jsonio.load_brace_data({"add": add, "mul": mul})


class TestSolutionFiles:
    def test_roundtrip(self, tmp_path):
        s = flip_solution(4)
        path = write(tmp_path, "s.json", jsonio.solution_to_json(s))
        assert jsonio.load_solution(path) == s

    def test_bool_entries_refused(self):
        flip = [[False, True], [False, True]]
        with pytest.raises(Degenerate):
            jsonio.load_solution_data({"size": 2, "lambda": flip, "rho": flip})


class TestMissingAndEmptyTables:
    @pytest.mark.parametrize("load, data, key", [
        (jsonio.load_group_data, {}, "table"),
        (jsonio.load_brace_data, {}, "add"),
        (jsonio.load_brace_data, {"add": [[0]]}, "mul"),
        (jsonio.load_solution_data, {"lambda": [[0]]}, "rho"),
    ])
    def test_missing_key_is_an_invalid_document(self, load, data, key):
        with pytest.raises(InvalidDocument, match=f"^missing key '{key}'$"):
            load(data)

    def test_empty_table_reported_by_the_validator(self):
        with pytest.raises(NotClosed, match="empty table"):
            jsonio.load_group_data({"table": []})
        with pytest.raises(GroupInvalid) as exc:
            jsonio.load_brace_data({"add": [], "mul": []})
        assert exc.value.which == "add" and isinstance(exc.value.cause, NotClosed)
        assert str(exc.value) == str(GroupInvalid("add", NotClosed(0, 0, "empty table")))


@given(st.permutations(list(range(5))))
@settings(max_examples=25, deadline=None)
def test_loader_accepts_any_relabeling(perm):
    # any relabeling of the C5 brace loads with identity back at 0
    base = trivial_brace(cyclic(5))
    table = [[0] * 5 for _ in range(5)]
    for a in range(5):
        for b in range(5):
            table[perm[a]][perm[b]] = perm[base.plus(a, b)]
    loaded, _ = jsonio.load_brace_data({"order": 5, "add": table, "mul": table})
    assert loaded.add.table[0] == (0, 1, 2, 3, 4)
    assert is_isomorphic(loaded, base) is not None


# sha256 of `braceforge enumerate --order n` output: the census bytes for n = 1..15
CENSUS_SHA256 = {
    1: "0f24ca627e975a5c7f8f933071242f2a54d10488197fc1f2cc559eb625dd0e75",
    2: "93b48db0c7cc67901e0729cab42bd18c3a26ca9f0cf4f6214857959bcb2ee73c",
    3: "c51643c45948e4b92a770ddad8452fb79a0a5aaf2ee854fc039e77678b8fe344",
    4: "177c5562c8c50a32a39c553028ba81efc12db9c81a42667f0c509315c3b24240",
    5: "153d2f8b31e717d6b0a43b4e83485fefca1f70e2639de7b5848fbc16f655e7ca",
    6: "e2b62f93fe37ef17d0916f861b7ce8fde42846c2906f705c97743ffe9427b1aa",
    7: "c858615708f7470ac37b7bd333c508be86aa6b68d269df563bee93abb1ff8d13",
    8: "f0caeb728a1b578afa1268feb85414c0bb81c989a60c47bf0e06dc1533b6fed2",
    9: "b3ee47e64fb69bec052bee2b1fdf05391808be2282103964957556d8de5a2cce",
    10: "210dbc44431340ecf01403097d29c5b29570c95d3eab4e9c5f6c62a962dad025",
    11: "f3e059c65567dcc199005efc52f1f0866a2c3605cd71bf42f083c91333901bbe",
    12: "38203528e83e290709d1233ea3ca9f84dcccacb0f8c7ddefd2e671525d993a3e",
    13: "b198b6f4c53ddf45b39fddc4b40ccc5f3d3b42f355169552df5caa49849eac7c",
    14: "cfdf67d68c40673de103b58a17be667619298edcfd98acd23adb10570d327a55",
    15: "3712ebf3b7b3d46ae5f96bcbbcaf7f2185867e932f71ba40be9c5a5cf87a0b01",
}


class TestCliEnumerate:
    @pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
    def test_census_bytes(self, n, capsys):
        assert main(["enumerate", "--order", str(n)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CENSUS_SHA256[n]

    def test_summary_line(self, capsys):
        assert main(["enumerate", "--order", "5"]) == 0
        out = capsys.readouterr()
        assert "order 5: 1 classes" in out.err
        assert out.out.count("\n") == 1  # one census line

    def test_order_one(self, capsys):
        assert main(["enumerate", "--order", "1"]) == 0
        assert "order 1: 1 classes" in capsys.readouterr().err

    def test_oracle_check(self, tmp_path, capsys):
        rc = main(["enumerate", "--order", "4", "--oracle-check",
                   "--out", str(tmp_path / "c.jsonl")])
        assert rc == 0
        assert "oracle agrees: 4 classes" in capsys.readouterr().out

    def test_oracle_check_keeps_stdout_json_lines(self, capsys):
        assert main(["enumerate", "--order", "4", "--oracle-check"]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert len(lines) == 4 and all(isinstance(json.loads(line), dict) for line in lines)
        assert out.err == "order 4: 4 classes\noracle agrees: 4 classes\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_oracle_bound_checked_before_the_census(self, tmp_path, capsys, to_file):
        out = tmp_path / "c.jsonl"
        argv = ["enumerate", "--order", "7", "--oracle-check"]
        assert main(argv + (["--out", str(out)] if to_file else [])) == cli.EXIT_BOUND
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()

    def test_catalog_missing_exit_code(self):
        assert main(["enumerate", "--order", "16"]) == 2

    def test_census_lines_parse(self, tmp_path):
        out = tmp_path / "c6.jsonl"
        assert main(["enumerate", "--order", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert set(record) >= {"order", "add", "mul", "provenance"}


Z2 = [[0, 1], [1, 0]]
FLIP2 = jsonio.solution_to_json(flip_solution(2))
MALFORMED = [
    ("analyze", {"add": 5, "mul": 5}),
    ("analyze", {"add": [1, 2], "mul": [1, 2]}),
    ("decompose", {"lambda": 5, "rho": 5}),
    # a declared order or size must be the int table size; 2.0 and true compare equal to it
    ("analyze", {"order": 2.0, "add": Z2, "mul": Z2}),
    ("analyze", {"order": True, "add": [[0]], "mul": [[0]]}),
    ("decompose", {**FLIP2, "size": 3}),
    ("decompose", {**FLIP2, "size": "2"}),
]


class TestCliAnalyze:
    def test_dossier(self, tmp_path):
        src = write(tmp_path, "z4.json",
                    jsonio.brace_to_json(trivial_brace(cyclic(4))))
        out = tmp_path / "d.json"
        assert main(["analyze", src, "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["soluble"] and d["derived_length"] == 1
        assert d["frattini"] == [0, 2]

    def test_corrupt_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2, "add": [[0,1],[1,1]], "mul": [[0,1],[1,0]]}')
        assert main(["analyze", str(bad)]) == 4

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent.json"]) == 4

    def test_unreadable_input_exit_code(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"add": "\xff"}')
        for path in (tmp_path, not_utf8):  # a directory, then undecodable bytes
            assert main(["analyze", str(path)]) == 4
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("validation failed:")

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"brace"'])
    def test_non_object_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 4
        assert "not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data", MALFORMED)
    def test_malformed_tables_exit_code(self, tmp_path, capsys, command, data):
        bad = write(tmp_path, "bad.json", data)
        assert main([command, bad]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation failed:")
        assert "Traceback" not in err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        src = write(tmp_path, "z4.json",
                    jsonio.brace_to_json(trivial_brace(cyclic(4))))
        out = tmp_path / "missing" / "d.json"
        assert main(["analyze", src, "--out", str(out)]) == 7
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("I/O error:")
        assert not out.exists()


def law_breaking_document(kind):
    """A document that passes the Latin and bijectivity checks and breaks one law."""
    s3 = [list(r) for r in symmetric_group(3).table]
    if kind == "associativity":
        # the 2x2 Latin subsquare at rows 2, 3 and columns 2, 4 flipped; Light's
        # test passes for the first generator and fails for the second
        add = [list(r) for r in s3]
        for r in (2, 3):
            add[r][2], add[r][4] = add[r][4], add[r][2]
        return {"add": add, "mul": s3}
    if kind == "brace-law":
        tau = (0, 1, 2, 3, 5, 4)
        mul = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                mul[tau[a]][tau[b]] = tau[s3[a][b]]
        return {"add": s3, "mul": mul}
    if kind == "braid-xor-2":
        # r(x, y) = (x + y, x + y) mod 2, the document CI feeds the installed script
        return {"lambda": [[0, 1], [1, 0]], "rho": [[0, 1], [1, 0]]}
    solution = solution_from_brace(almost_trivial_brace(symmetric_group(3))).to_json()
    row = solution["lambda"][1]
    row[0], row[2] = row[2], row[0]
    return solution


class TestCliRejectionBytes:
    @pytest.mark.parametrize("command, kind, line", [
        ("analyze", "associativity",
         "validation failed: add table is not a group: associativity fails at (1,2,2)\n"),
        ("analyze", "brace-law", "validation failed: a(b+c) = ab - a + ac fails at (1,2,2)\n"),
        ("decompose", "braid", "validation failed: braid relation fails at (1,0,1)\n"),
        ("decompose", "braid-xor-2", "validation failed: braid relation fails at (0,0,1)\n"),
    ])
    def test_stderr_names_the_first_witness(self, tmp_path, capsys, command, kind, line):
        path = write(tmp_path, "doc.json", law_breaking_document(kind))
        assert main([command, path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""

    @pytest.mark.parametrize("command, data, line", [
        ("analyze", {}, "validation failed: missing key 'add'\n"),
        ("decompose", {"lambda": [[0]]}, "validation failed: missing key 'rho'\n"),
        ("decompose", {"rho": [[0]]}, "validation failed: missing key 'lambda'\n"),
        ("analyze", {"add": [], "mul": []},
         "validation failed: add table is not a group: "
         "table not a Latin square at (0,0): empty table\n"),
    ])
    def test_stderr_names_a_missing_key_or_an_empty_table(self, tmp_path, capsys,
                                                          command, data, line):
        path = write(tmp_path, "doc.json", data)
        assert main([command, path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "decompose"])
    def test_deeply_nested_document_refused_without_a_traceback(self, tmp_path, capsys,
                                                                command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000)
        assert main([command, str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"validation failed: {path} nests JSON too deeply to parse\n"
        assert captured.out == ""


# `decompose` on the flip on 3 points: its orbits are the singletons
FLIP3_DECOMPOSE = """\
{
  "decomposable": true,
  "input": "solution",
  "partition": {
    "blocks": [
      [
        0
      ],
      [
        1
      ],
      [
        2
      ]
    ],
    "uniform": true
  }
}
"""


class TestCliDecompose:
    def test_soluble_brace(self, tmp_path):
        src = write(tmp_path, "z6.json",
                    jsonio.brace_to_json(trivial_brace(cyclic(6))))
        out = tmp_path / "w.json"
        assert main(["decompose", src, "--out", str(out)]) == 0
        w = json.loads(out.read_text())
        assert w["uniform"] and len(w["partitions"]) == 2
        assert w["checks"]["ok"]

    def test_insoluble_exit_code(self, tmp_path):
        src = write(tmp_path, "a5.json",
                    jsonio.brace_to_json(trivial_brace(alternating_5())))
        assert main(["decompose", src]) == 6

    def test_solution_exhaustive_search(self, tmp_path):
        src = write(tmp_path, "flip4.json",
                    jsonio.solution_to_json(flip_solution(4)))
        out = tmp_path / "v.json"
        assert main(["decompose", src, "--out", str(out)]) == 0
        found = json.loads(out.read_text())
        assert found["decomposable"] and found["partition"] is not None

    def test_solution_has_no_size_cap(self, tmp_path, capsys):
        # the 30-point solution of CI's console-script step, the flip on 30 points
        big = solution_from_brace(direct_product(enumerate_braces(2)[0].brace,
                                                 enumerate_braces(15)[0].brace))
        for solution in (flip_solution(6), big):
            src = write(tmp_path, "solution.json", jsonio.solution_to_json(solution))
            assert main(["decompose", src]) == 0
            found = json.loads(capsys.readouterr().out)
            assert found["decomposable"] is True
            assert found["partition"]["blocks"] == [[x] for x in range(solution.size)]

    def test_solution_flip_three_bytes(self, tmp_path, capsys):
        src = write(tmp_path, "flip3.json", jsonio.solution_to_json(flip_solution(3)))
        assert main(["decompose", src]) == 0
        assert capsys.readouterr().out == FLIP3_DECOMPOSE

    def test_irretractable_indecomposable_solution(self, tmp_path, capsys):
        # one orbit on 3 points, and the three pairs (lambda_x, rho_x) differ
        src = write(tmp_path, "one-orbit.json",
                    {"lambda": [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
                     "rho": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]})
        assert main(["decompose", src]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"input": "solution", "decomposable": False, "partition": None}

    def test_one_point_solution_is_indecomposable(self, tmp_path, capsys):
        # one point is one orbit: no decomposition has two blocks
        src = write(tmp_path, "one-point.json", {"lambda": [[0]], "rho": [[0]]})
        assert main(["decompose", src]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"decomposable": False, "input": "solution", "partition": None}

    def test_solution_on_no_points_refused(self, tmp_path, capsys):
        src = write(tmp_path, "empty.json", {"lambda": [], "rho": []})
        assert main(["decompose", src]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation failed: table shape: empty table\n"

    def test_refused_command_line_exit_code(self, tmp_path, capsys):
        # the parser refuses an unknown scope or option and exits 2 with its usage
        src = write(tmp_path, "flip.json", jsonio.solution_to_json(flip_solution(4)))
        for argv in (["verify", "Z"], ["decompose", src, "--partition", "singletons"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("usage:") and captured.out == ""

    @pytest.mark.parametrize("text", ["5", '["lambda", "rho"]'])
    def test_non_object_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["decompose", str(bad)]) == 4
        assert "not an object" in capsys.readouterr().err


class TestCliVerify:
    @pytest.mark.parametrize("scope", ["A", "B", "C", "D", "prop-central-commut"])
    def test_scopes_pass_small(self, scope, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", scope, "--max-order", "4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True
        assert f"verify {scope}: pass" in capsys.readouterr().out

    def test_exhaustive_series_flag(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "B", "--max-order", "4", "--exhaustive-series",
                   "--out", str(out)])
        assert rc == 0

    def test_slow_flag_raises_default_order(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "A", "--slow", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_order"] == 12
        assert report["qualifying_orders"] == [2, 3, 5, 7, 11]

    def test_r_closed_bound_exit_code(self, monkeypatch, tmp_path, capsys):
        # the trivial brace on C2 x C2 has 15 r-closed subsets
        monkeypatch.setattr(ybe, "R_CLOSED_MAX_SUBSETS", 14)
        out = tmp_path / "r.json"
        assert main(["verify", "D", "--max-order", "4", "--out", str(out)]) == 3
        assert "r-closed subsets = 15 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_order", ["0", "-3"])
    def test_max_order_below_one_exit_code(self, max_order, tmp_path, capsys):
        # an empty census must not be reported as a pass
        out = tmp_path / "r.json"
        assert main(["verify", "A", "--max-order", max_order, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "--max-order must be at least 1" in captured.err
        assert "pass" not in captured.out and not out.exists()


class TestNonSolubleControl:
    """The census's two non-soluble braces keep the soluble hypothesis visible."""

    @staticmethod
    def non_soluble():
        return [e for e in enumerate_braces(12) if not is_soluble(e.brace)]

    def test_census_has_two_of_order_twelve(self):
        assert [(e.add_group_name, e.mul_group_name) for e in self.non_soluble()] \
            == [("A4", "Dic3"), ("A4", "Dic3")]

    @pytest.mark.parametrize("index", [0, 1])
    def test_decompose_exit_code(self, index, tmp_path):
        brace = self.non_soluble()[index].brace
        src = write(tmp_path, "b.json", jsonio.brace_to_json(brace))
        assert main(["decompose", src]) == 6

    @pytest.mark.parametrize("scope", ["B", "C", "D"])
    def test_sweep_counts_them_as_not_soluble(self, scope, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", scope, "--max-order", "12", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["checked"], report["soluble"]) == (111, 109)
        assert len(report["braces"]) == 109


class TestCliTheoremViolation:
    REPORT = ChiefFactorReport(frozenset({0, 2}), frozenset(range(4)), True, "neither",
                               None, None, None, None)

    @pytest.mark.parametrize("counterexample, expected", [
        (REPORT, REPORT.to_json()),
        ((((0, 1), (1, 0)), frozenset({1, 0}), 3), [[[0, 1], [1, 0]], [0, 1], 3]),
    ])
    def test_counterexample_is_json(self, monkeypatch, capsys, counterexample, expected):
        def violated(b, exhaustive=False):
            raise TheoremViolation("chief factor is not elementary abelian", counterexample)

        monkeypatch.setattr(cli, "verify_soluble_chief_factors", violated)
        assert main(["verify", "B", "--max-order", "2"]) == 5
        first, rest = capsys.readouterr().err.split("\n", 1)
        assert first.startswith("THEOREM VIOLATION")
        record = json.loads(rest)
        assert record == {"statement": "chief factor is not elementary abelian",
                          "counterexample": expected}

    def violation_record(self, capsys, argv):
        assert main(argv) == 5
        first, rest = capsys.readouterr().err.split("\n", 1)
        assert first.startswith("THEOREM VIOLATION")
        return json.loads(rest)

    def test_scope_a_record(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_prime_power", lambda n: None)  # no order is prime
        record = self.violation_record(capsys, ["verify", "A", "--max-order", "4"])
        assert record == {"statement": "braces without proper subbraces have orders "
                                       "[2, 3], expected []",
                          "counterexample": [[2, 3], []]}

    @pytest.mark.parametrize("pick, statement", [
        (lambda subs: subs[:1], "expected 2 regular subgroups, found 1"),
        (lambda subs: subs[:1] * 2, "regular subgroups differ from the expected pair"),
    ], ids=["count", "pair"])
    def test_lemma_gintg_record(self, monkeypatch, capsys, pick, statement):
        found = pick(cli.simple_inner_regular_subgroups(alternating_5()))
        monkeypatch.setattr(cli, "simple_inner_regular_subgroups", lambda G: found)
        record = self.violation_record(capsys, ["verify", "lemma-GIntG"])
        assert record == {"statement": statement,
                          "counterexample": [list(s.assignment) for s in found]}

    def test_record_can_be_rerun(self, monkeypatch, capsys):
        monkeypatch.setattr(structure, "_prime_power", lambda n: None)
        assert main(["verify", "B", "--max-order", "4"]) == 5
        record = json.loads(capsys.readouterr().err.split("\n", 1)[1])
        brace, _ = jsonio.load_brace_data(record["brace"])
        with pytest.raises(TheoremViolation) as exc:
            structure.verify_soluble_chief_factors(brace)
        assert str(exc.value) == record["statement"]


class TestCliEnvironment:
    @pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5"])
    def test_bad_bound_exit_code(self, monkeypatch, capsys, tmp_path, value):
        # decompose on a solution never reaches a bound check; it fails at startup
        src = write(tmp_path, "flip.json", jsonio.solution_to_json(flip_solution(4)))
        monkeypatch.setenv("BRACEFORGE_BOUND", value)
        for argv in (["enumerate", "--order", "4"], ["decompose", src]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "not a positive integer" in err


class TestCliOracle:
    def test_summary(self, capsys):
        assert main(["oracle", "--order", "3"]) == 0
        assert "order 3: 1 classes (oracle)" in capsys.readouterr().out

    def test_bound_exit_code(self):
        assert main(["oracle", "--order", "7"]) == 3
