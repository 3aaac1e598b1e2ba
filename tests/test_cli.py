"""CLI surface: inputs, formats, exit codes, report round-trips."""

from __future__ import annotations

import ast
import copy
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moment_fiber
from moment_fiber import cli, exactlin, oracle, polytope, selftest, torus
from moment_fiber.errors import CapabilityError, InputError


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_inline_stable_block(self, capsys):
        code, out, _ = run(
            ["analyze", "[[1],[-1]]", "--format", "json"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        props = rep["properties"]
        assert props["stable"]["value"] is True
        assert props["visible"]["value"] is True
        assert props["irreducible"]["value"] is True
        assert props["normal"]["value"] is True
        assert rep["fiber_dimension"] == 3

    def test_two_components(self, capsys):
        code, out, _ = run(["analyze", "[[1],[0]]", "--format", "json"], capsys)
        rep = json.loads(out)
        assert rep["components"]["count"] == 2
        assert rep["properties"]["normal"]["value"] is False

    def test_nonvisible_report_has_reason_and_witness(self, capsys):
        code, out, _ = run(
            ["analyze", '{"weights": [[1],[1],[-2]]}', "--format", "json"],
            capsys,
        )
        rep = json.loads(out)
        assert rep["properties"]["stable"]["value"] is True
        assert rep["properties"]["visible"]["value"] is False
        assert rep["properties"]["visible"]["reason"]
        wit = rep["nonvisible_witness"]
        assert wit is not None
        assert any(int(c) > 0 for c in wit["relation"])
        assert any(int(c) < 0 for c in wit["relation"])

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "weights.csv"
        path.write_text("1, 0\n-1, 0\n0, 1\n")
        code, out, _ = run(["analyze", str(path), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["properties"]["visible"]["value"] is True

    def test_json_file(self, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text('{"weights": [[1], [-1]]}')
        code, out, _ = run(["analyze", str(path), "--format", "json"], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "text",
        ["1, 0\n-1, 0\n0, 1\n", '  {"weights": [[1, 0], [-1, 0], [0, 1]]}'],
    )
    def test_stdin(self, text, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(["analyze", "-", "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["input"]["weights"] == [[1, 0], [-1, 0], [0, 1]]
        assert rep["properties"]["visible"]["value"] is True

    @pytest.mark.parametrize(
        "name, text",
        [
            ("weights.csv", "1, 0\n-1, 0\n0, 1\n"),
            ("weights.json", '{"weights": [[1, 0], [-1, 0], [0, 1]]}'),
            ("weights.txt", '{"weights": [[1, 0], [-1, 0], [0, 1]]}'),
            ("-", '{"weights": [[1, 0], [-1, 0], [0, 1]]}'),
        ],
        ids=["csv", "json", "json-in-txt", "stdin"],
    )
    def test_leading_byte_order_mark_is_ignored(
        self, name, text, tmp_path, capsys, monkeypatch
    ):
        # Some editors start a UTF-8 file with U+FEFF.  The report is the
        # one of the same text without it, and JSON stays JSON.
        reports = []
        for bom in ("", "\ufeff"):
            if name == "-":
                monkeypatch.setattr(sys, "stdin", io.StringIO(bom + text))
            else:
                (tmp_path / name).write_text(bom + text, encoding="utf-8")
            spec = name if name == "-" else str(tmp_path / name)
            code, out, err = run(["analyze", spec, "--format", "json"], capsys)
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[1] == reports[0]
        assert json.loads(out)["input"]["weights"] == [[1, 0], [-1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "text, where",
        [
            ("\ufeff\ufeff1, 0\n", "line 1, field 1"),
            ("1, 0\n\ufeff0, 1\n", "line 2, field 1"),
            ("1, \ufeff0\n", "line 1, field 2"),
        ],
        ids=["second-mark", "second-line", "second-field"],
    )
    def test_other_byte_order_marks_exit_2(self, text, where, tmp_path, capsys):
        # Only one leading mark is dropped; any other U+FEFF is text that
        # is not an integer.
        path = tmp_path / "weights.csv"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"parse error: {where} needs an integer, got '\\ufeff")

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run(["analyze", '{"weights": [[1], [1}'], capsys)
        assert code == 2
        assert "line" in err or "char" in err

    @pytest.mark.parametrize("spec", ["[[1.5]]", '{"weights": [[1], [true]]}'])
    def test_non_integer_json_entry_exits_2(self, spec, capsys):
        code, _, err = run(["analyze", spec], capsys)
        assert code == 2
        assert "parse error" in err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "weights.csv"
        path.write_text("1, x\n")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1,,2\n3,,4\n", "line 1, field 2"),
            ("3 ,4,\n", "line 1, field 3"),
            ("1, 0\n,0, 1\n", "line 2, field 1"),
            ("1, 0\n0, , 1\n", "line 2, field 2"),
            ("1\n,\n", "line 2, field 1"),
        ],
        ids=["two-commas", "trailing", "leading", "blank-between", "lone-comma"],
    )
    def test_empty_csv_field_exits_2(self, text, where, tmp_path, capsys):
        # An empty field is not dropped: "1,,2" is not the row [1, 2].
        path = tmp_path / "weights.csv"
        path.write_text(text)
        code, out, err = run(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"parse error: {where} needs an integer, got ''\n"

    @pytest.mark.parametrize(
        "text",
        ["1 0\n-1 0\n0 1\n", " 1 ,0\n-1,\t0\n0 ,  1 \n"],
        ids=["spaces", "spaced-commas"],
    )
    def test_csv_separators(self, text):
        # Commas, spaces and tabs all separate fields; test_csv_file has
        # the "1, 0" form.
        assert cli._parse_weights_csv(text).matrix.entries == ((1, 0), (-1, 0), (0, 1))

    @pytest.mark.parametrize(
        "text, bad",
        [("1_0,2\n", "1_0"), ("\u0661,\u0662\n", "\u0661"), ("\uff11,-\uff12\n", "\uff11")],
        ids=["underscore", "arabic-indic", "fullwidth"],
    )
    def test_non_ascii_digit_csv_integer_exits_2(self, text, bad, tmp_path, capsys):
        # int() reads each of these; JSON input and the CLI do not.
        path = tmp_path / "weights.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"parse error: line 1, field 1 needs an integer, got {bad!r}\n"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "weights.csv"
        path.write_bytes(b"1, 0\n\xff\xfe\n")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert "parse error" in err

    def test_loader_raises_input_error_for_json_and_decoding(
        self, tmp_path, monkeypatch
    ):
        # The one parse-error exit of main catches InputError only, so the
        # loader itself turns JSON and UTF-8 faults into one.
        path = tmp_path / "weights.csv"
        path.write_bytes(b"1, 0\n\xff\xfe\n")
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8")
        )
        for spec, message in [
            ('{"weights": [[1], [1}', "Expecting ',' delimiter"),
            (str(path), "'utf-8' codec can't decode byte 0xff"),
            ("-", "'utf-8' codec can't decode byte 0xff"),
        ]:
            with pytest.raises(InputError, match=message):
                cli._load_matrix(spec)

    def test_deeply_nested_json_exits_2(self, capsys):
        code, _, err = run(["analyze", "[" * 50000], capsys)
        assert code == 2
        assert err.startswith("parse error:")
        assert "nested too deeply" in err

    @pytest.mark.parametrize("spec", ["[]", '{"weights": []}'])
    def test_empty_matrix_exits_2(self, spec, capsys):
        code, _, err = run(["analyze", spec], capsys)
        assert code == 2
        # the message "[[]]" gets, not one about a column-count argument
        assert err == (
            "parse error: weight matrix needs n >= 1 rows and r >= 1 columns\n"
        )

    def test_json_integer_past_the_digit_limit_names_it(self, capsys):
        digits = "7" * 5000
        code, _, err = run(["analyze", f'{{"weights": [[1], [-{digits}]]}}'], capsys)
        assert code == 2
        assert err == (
            "parse error: an integer of 5000 digits exceeds the limit of"
            f" {sys.get_int_max_str_digits()} digits\n"
        )

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        digits = "7" * 5000
        code, _, err = run(["analyze", f"[[{digits}]]"], capsys)
        assert code == 2
        assert err.startswith("parse error:")
        path = tmp_path / "weights.csv"
        path.write_text(f"1, 0\n2, -{digits}\n")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert err.startswith("parse error: line 2, field 2:")
        assert f"{sys.get_int_max_str_digits()} digits" in err
        assert digits not in err

    def test_float_hint_exits_2(self, capsys):
        # Every report number is an integer, so there is nothing to
        # approximate: the option is unknown to argparse.
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "[[1],[-1]]", "--format", "json", "--float-hint"])
        assert exc.value.code == 2
        assert "--float-hint" in capsys.readouterr().err

    def test_max_components_cap(self, capsys):
        _, out, _ = run(
            [
                "analyze",
                "[[1,0],[0,1]]",
                "--format",
                "json",
                "--max-components",
                "2",
            ],
            capsys,
        )
        rep = json.loads(out)
        assert rep["components"]["count"] == 4
        assert rep["components"]["list"] is None

    @pytest.mark.parametrize("cap", ["2", True, 2.5, 2.0, -1])
    def test_non_integer_cap_rejected(self, cap, monkeypatch):
        # The cap is checked before the stability simplex runs.
        def forbidden(w):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(torus, "is_stable", forbidden)
        w = torus.WeightMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(InputError, match="max_components"):
            cli.analyze(w, max_components=cap)

    def test_report_round_trip(self):
        rep = cli.analyze(torus.WeightMatrix.from_rows([[1], [1], [-2]]))
        assert cli.AnalysisReport.from_json(rep.to_json()) == rep

    def test_corpus_reports_keep_the_schema(self, corpus):
        # The shallow field dict dumps to the deep copy's JSON, on one
        # line, and dumping it leaves the report as a fresh analysis has it.
        for w in corpus:
            rep = cli.analyze(w, max_components=4096)
            text = rep.to_json()
            assert "\n" not in text
            assert json.loads(text) == json.loads(
                json.dumps(copy.deepcopy({n: getattr(rep, n) for n in rep._fields}))
            )
            assert rep == cli.analyze(w, max_components=4096)

    def test_corpus_reports_write_each_fact_once(self, corpus):
        # Schema 2: a property has its value and one source, and a
        # justification is the dotted name of a report field.  The fields
        # hold what torus.Analysis computes.
        for w in corpus:
            rep = json.loads(cli.analyze(w).to_json())
            assert rep["schema"] == 2 and "reduction_support" not in rep
            for name, prop in rep["properties"].items():
                sources = set(prop) - {"value"}
                assert "value" in prop and len(sources) == 1, name
                assert sources <= {"certificate", "justification", "reason"}, name
                if "justification" in prop:
                    field = rep
                    for key in prop["justification"].split("."):
                        assert key in field, (name, prop)
                        field = field[key]
            a = torus.Analysis.of(w)
            cartan = a.cartan_vectors
            assert rep["rank"] == a.rank
            assert rep["splits"] == {
                "dependent": sorted(a.dependent),
                "free": sorted(a.free),
            }
            assert rep["cartan_subspace"] == (
                None if cartan is None else [list(v) for v in cartan]
            )
            assert rep["components"]["count"] == 2 ** len(a.free)

    def test_nonvisible_reason_names_the_witness_support(self, corpus):
        # The reason is written from the witness's relation, its 1-based
        # support being the mixed-sign circuit.
        nonvisible = 0
        for w in corpus:
            rep = json.loads(cli.analyze(w).to_json())
            if rep["properties"]["visible"]["value"]:
                continue
            nonvisible += 1
            rel = rep["nonvisible_witness"]["relation"]
            supp = [i + 1 for i, c in enumerate(rel) if c]
            assert rep["properties"]["visible"]["reason"] == (
                f"circuit {supp} has a mixed-sign relation, so 0 is not"
                " interior to its hull"
            ), w.matrix.entries
        assert nonvisible > 100

    def test_from_dict_names_a_bad_schema_or_missing_field(self):
        rep = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]]))
        data = json.loads(rep.to_json())
        assert cli.AnalysisReport.from_dict(data) == rep
        with pytest.raises(InputError, match="report schema 1 is not 2"):
            cli.AnalysisReport.from_dict({**data, "schema": 1})
        # 2.0 == 2, but a report's numbers are integers.
        with pytest.raises(InputError, match="^report schema 2.0 is not 2$"):
            cli.AnalysisReport.from_dict({**data, "schema": 2.0})
        # A schema-1 report has no schema key.
        old = {k: v for k, v in data.items() if k != "schema"}
        with pytest.raises(InputError, match=r"lacks the field\(s\) schema$"):
            cli.AnalysisReport.from_dict({**old, "reduction_support": [1, 2]})
        del data["rank"], data["splits"]
        with pytest.raises(InputError, match=r"lacks the field\(s\) rank, splits$"):
            cli.AnalysisReport.from_dict(data)

    @pytest.mark.parametrize("token", ["1.0", "NaN", "Infinity"])
    def test_from_json_refuses_a_non_integer_number(self, token):
        # 1.0 would compare equal to the report and encode back as 1.0;
        # NaN and Infinity are not JSON at all.
        text = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]])).to_json()
        assert '"rank": 1,' in text
        text = text.replace('"rank": 1,', f'"rank": {token},')
        with pytest.raises(InputError, match=f"^report number '{token}' is not an integer$"):
            cli.AnalysisReport.from_json(text)

    @pytest.mark.parametrize(
        "old, new, field, kind",
        [
            ('"rank": 1,', '"rank": true,', "rank", "boolean"),
            ('"fiber_dimension": 3,', '"fiber_dimension": "3",', "fiber_dimension",
             "string"),
            ('"count": 1,', '"count": false,', "components.count", "boolean"),
        ],
        ids=["rank-true", "fiber_dimension-string", "count-false"],
    )
    def test_from_json_refuses_a_non_integer_field(self, old, new, field, kind):
        # true == 1, so a report with "rank": true compared equal to the
        # real one but encoded back as true; "3" parsed to a string.
        text = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]])).to_json()
        assert text.count(old) == 1
        with pytest.raises(
            InputError, match=f"^report {field} is a JSON {kind}, not an integer$"
        ):
            cli.AnalysisReport.from_json(text.replace(old, new))

    def test_corpus_reports_are_pinned_byte_for_byte(self, corpus):
        # Every later change must keep the 500 reports byte-identical; an
        # intended output change updates the digest and says why in
        # CHANGES.md.
        text = "\n".join(cli.analyze(w).to_json() for w in corpus)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "955f30a33c2db1552e3135602fae88db2a47c6fb4745b6c51bd72aef8e315cda"
        )

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("5", "number"),
            ("null", "null"),
            (json.dumps(list(cli.AnalysisReport._fields)), "array"),
            (json.dumps(" ".join(cli.AnalysisReport._fields)), "string"),
        ],
        ids=["number", "null", "array-of-field-names", "string-of-field-names"],
    )
    def test_from_json_of_a_non_object_names_its_type(self, text, kind):
        # The array and the string hold every field name, so a membership
        # test alone would let them through to data["schema"].
        with pytest.raises(InputError, match=f"^report is a JSON {kind}, not an object$"):
            cli.AnalysisReport.from_json(text)

    @pytest.mark.parametrize(
        "value, kind",
        [(5, "number"), ([], "array"), ("5", "string"), (None, "null")],
        ids=["number", "array", "string", "null"],
    )
    def test_from_dict_refuses_components_that_are_not_an_object(self, value, kind):
        # The count is read from the object: a bare number in its place is
        # not a report.
        rep = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]]))
        data = {**json.loads(rep.to_json()), "components": value}
        with pytest.raises(
            InputError, match=f"^report components is a JSON {kind}, not an object$"
        ):
            cli.AnalysisReport.from_dict(data)

    def test_from_json_of_malformed_json_is_an_input_error(self):
        text = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]])).to_json()
        with pytest.raises(InputError, match="^Expecting "):
            cli.AnalysisReport.from_json(text[:-1])

    def test_from_json_of_an_integer_past_the_digit_limit_names_it(self):
        digits = "7" * 5000
        text = cli.analyze(torus.WeightMatrix.from_rows([[1], [-1]])).to_json()
        text = text.replace('"rank": 1,', f'"rank": {digits},')
        with pytest.raises(
            InputError,
            match=f"^an integer of 5000 digits exceeds the limit of"
            f" {sys.get_int_max_str_digits()} digits$",
        ):
            cli.AnalysisReport.from_json(text)

    def test_from_json_of_deeply_nested_json_is_an_input_error(self):
        with pytest.raises(InputError, match="^JSON input is nested too deeply$"):
            cli.AnalysisReport.from_json("[" * 50000)

    def test_json_is_one_sorted_line(self, capsys):
        code, out, _ = run(
            ["analyze", "[[1],[1],[-2]]", "--format", "json"], capsys
        )
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        rep = json.loads(out)
        assert out == json.dumps(rep, sort_keys=True) + "\n"

    def test_corpus_certificates_are_integer_vectors(self, corpus):
        # Every certificate number of a JSON report is a JSON int; stable
        # combinations and block relations are positive and primitive;
        # witness points are 0/1.  A stable certificate verifies read back
        # as ints and as Fractions, the way the benchmark reads it.
        def ints(values):
            return all(type(v) is int for v in values)

        def positive_primitive(values):
            return ints(values) and min(values) > 0 and math.gcd(*values) == 1

        for w in corpus:
            rep = json.loads(cli.analyze(w).to_json())
            props, points = rep["properties"], rep["input"]["weights"]
            cert = props["stable"]["certificate"]
            if cert["kind"] == "inside":
                coeffs = cert["coefficients"]
                assert positive_primitive(coeffs), points
                query = polytope.HullQuery.of(points)
                for back in (coeffs, [Fraction(c) for c in coeffs]):
                    inside = polytope.Inside(tuple(back))
                    assert polytope.verify_certificate(query, inside, True)
            else:
                assert ints(cert["functional"]), points
            if props["visible"]["value"]:
                for block in props["visible"]["certificate"]["blocks"]:
                    assert positive_primitive(block["relation"]), points
            else:
                wit = rep["nonvisible_witness"]
                assert ints(wit["relation"] + wit["x"] + wit["phi"]), points
                assert set(wit["x"]) | set(wit["phi"]) <= {0, 1}, points

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOMENT_FIBER_COLOR", "1")
        _, out, _ = run(["analyze", "[[1],[-1]]"], capsys)
        assert "\x1b[32m" in out
        monkeypatch.setenv("MOMENT_FIBER_COLOR", "0")
        _, out, _ = run(["analyze", "[[1],[-1]]"], capsys)
        assert "\x1b[" not in out

    def test_text_report(self, capsys, monkeypatch):
        # Every mark of the text report, the cap note and the witness line.
        monkeypatch.setenv("MOMENT_FIBER_COLOR", "1")
        code, out, _ = run(
            ["analyze", "[[1, 0], [1, 0], [-2, 0], [0, 1]]", "--max-components", "1"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        yes, no, unknown = "\x1b[32myes\x1b[0m", "\x1b[31mno\x1b[0m", "\x1b[33m?\x1b[0m"
        assert dict(line.split()[:2] for line in lines if line.startswith("  ")) == {
            "locally_free": yes,
            "stable": no,
            "visible": no,
            "polar": unknown,
            "irreducible": no,
            "normal": no,
        }
        assert (
            f"  {'visible':13s} \x1b[31mno\x1b[0m  (circuit [1, 2] has a"
            " mixed-sign relation, so 0 is not interior to its hull)" in lines
        )
        assert "components: 2 (list capped)" in lines
        assert (
            "closed-pair witness: {'x': [0, 1, 0, 0], 'phi':"
            " [1, 0, 0, 0], 'relation': [-1, 1, 0, 0]}" in lines
        )

    def test_readme_library_quick_start(self):
        # The README's python block runs, and every "# -> VALUE" comment
        # is the value of the expression on its line.
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
        namespace = dict(vars(moment_fiber))
        checked = 0
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if comment.strip().startswith("->"):
                expected = eval(comment.strip()[2:], namespace)
                assert eval(code, namespace) == expected, line
                checked += 1
            else:
                exec(code, namespace)
        assert checked >= 10


class TestKac:
    def test_rank_one_diagram_string(self, capsys):
        code, out, _ = run(
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["order"] == 9
        assert rep["delta"] == 1

    def test_a2_all_ones(self, capsys):
        code, out, _ = run(
            ["kac", "A2", "twist=1", "labels=1,1,1", "--format", "json"],
            capsys,
        )
        rep = json.loads(out)
        assert rep["order"] == 3
        assert rep["dims"] == [2, 3, 3]

    def test_text_output(self, capsys):
        code, out, _ = run(["kac", "A2 all-ones"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "type: A2",
            "twist: 1",
            "labels: [1, 1, 1]",
            "order: 3",
            "delta: 1",
            "dims: [2, 3, 3]",
        ]

    def test_scan_text_output(self, capsys):
        # The README's E7 scan: one line per hit, then the divisibility
        # list and its violations, with no dict repr.
        code, out, _ = run(
            ["kac", "E7 twist=1 scan --delta-ge 2 --check-order-not-div 9,14"],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "type: E7",
            "twist: 1",
            "min_delta: 2",
            "hit: labels [0, 1, 0, 0, 0, 0, 0, 0] order 2 delta 7",
            "hit: labels [0, 0, 1, 0, 0, 0, 0, 0] order 3 delta 2",
            "hit: labels [0, 0, 0, 0, 1, 0, 0, 0] order 3 delta 2",
            "hit: labels [0, 0, 1, 0, 0, 0, 1, 0] order 4 delta 2",
            "hit: labels [0, 0, 0, 0, 1, 0, 0, 1] order 4 delta 2",
            "hit: labels [0, 0, 0, 1, 0, 0, 1, 1] order 6 delta 3",
            "order_not_divisible_by: [9, 14]",
            "violations: none",
        ]

    def test_scan_text_lists_violations_and_empty_hits(self, capsys):
        code, out, _ = run(
            ["kac", "E6 twist=2 scan --delta-ge 2 --check-order-not-div 4"], capsys
        )
        assert code == 0
        assert out.splitlines()[3:] == [
            "hit: labels [0, 0, 1, 0, 0] order 4 delta 2",
            "hit: labels [0, 0, 0, 1, 0] order 2 delta 6",
            "hit: labels [0, 0, 1, 0, 1] order 6 delta 3",
            "order_not_divisible_by: [4]",
            "violation: labels [0, 0, 1, 0, 0] order 4",
        ]
        code, out, _ = run(["kac", "A2 scan --delta-ge 100"], capsys)
        assert code == 0
        assert out.splitlines()[2:] == [
            "min_delta: 100",
            "hits: none",
            "order_not_divisible_by: []",
            "violations: none",
        ]

    def test_json_is_one_sorted_line(self, capsys):
        # The same JSON style as ``analyze``.
        for spec in ["A2 twist=1 labels=1,1,1", "E6 twist=2 scan --delta-ge 1"]:
            code, out, _ = run(["kac", spec, "--format", "json"], capsys)
            assert code == 0
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_scan_with_divisibility_check(self, capsys):
        code, out, _ = run(
            [
                "kac",
                "E7 twist=1 scan --delta-ge 2 --check-order-not-div 9,14",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["scan"]["violations"] == []
        assert rep["scan"]["hits"]

    def test_twisted_labels(self, capsys):
        code, out, _ = run(
            ["kac", "E6 twist=2 labels=1,0,1,1,1", "--format", "json"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert (rep["order"], rep["delta"]) == (12, 1)
        assert rep["dims"] == [6, 7, 7, 6, 6, 7, 6, 7, 6, 6, 7, 7]

    def test_twisted_scan(self, capsys):
        code, out, err = run(
            ["kac", "E6 twist=2 scan --delta-ge 1", "--format", "json"], capsys
        )
        assert code == 0 and err == ""
        hits = json.loads(out)["scan"]["hits"]
        assert [(h["labels"], h["order"], h["delta"]) for h in hits] == [
            ([0, 0, 1, 0, 0], 4, 2),
            ([0, 0, 0, 1, 0], 2, 6),
            ([0, 0, 1, 0, 1], 6, 3),
            ([1, 0, 1, 0, 1], 10, 1),
            ([1, 0, 1, 1, 1], 12, 1),
            ([1, 1, 1, 1, 1], 18, 1),
        ]

    def test_twisted_table_flag(self, capsys):
        # The computed grading needs no flag, and the flag is gone.
        code, _, err = run(
            ["kac", "E6 twist=2 labels=1,0,1,1,1 --allow-twisted-table"], capsys
        )
        assert code == 2
        assert "unrecognized kac token '--allow-twisted-table'" in err
        code, out, _ = run(
            ["kac", "E6 twist=2 labels=1,0,1,1,1", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["dims"][:2] == [6, 7]

    @pytest.mark.parametrize(
        "spec", ["E6 twist=1", "E7 twist=1", "E6 twist=2", "A6 twist=2"]
    )
    def test_scan_hits_read_back_through_labels(self, spec, capsys):
        # Scans print labels in the order labels= reads them.
        code, out, _ = run(
            ["kac", f"{spec} scan --delta-ge 1", "--format", "json"], capsys
        )
        assert code == 0
        hits = json.loads(out)["scan"]["hits"]
        assert hits
        for hit in hits:
            labels = ",".join(map(str, hit["labels"]))
            code, out, _ = run(
                ["kac", f"{spec} labels={labels}", "--format", "json"], capsys
            )
            assert code == 0
            rep = json.loads(out)
            assert (rep["labels"], rep["order"], rep["delta"]) == (
                hit["labels"], hit["order"], hit["delta"]
            )

    def test_readme_examples(self, capsys):
        # Each `moment-fiber kac` line of the README's CLI block runs and
        # gives what its comment says.
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            lines = [
                line for line in fh if line.startswith('moment-fiber kac "')
            ]
        assert len(lines) >= 4
        for line in lines:
            command, _, comment = line.partition("#")
            code, out, _ = run(shlex.split(command)[1:] + ["--format", "json"], capsys)
            assert code == 0, line
            rep = json.loads(out)
            for key, value in re.findall(r"(order|delta) (-?\d+)", comment):
                assert rep[key] == int(value), line
            dims = re.search(r"dims \(([\d, ]+)\)", comment)
            if dims:
                assert rep["dims"] == [int(v) for v in dims[1].split(",")], line

    def test_format_in_each_position(self, capsys):
        # argparse reads --format before the spec; after it, or inside
        # its one word, it is pulled out by hand.
        spec = "E6 twist=2 labels=1,0,1,1,1"
        outs = []
        for argv in (
            ["kac", "--format", "json", spec],
            ["kac", spec, "--format", "json"],
            ["kac", f"{spec} --format json"],
        ):
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, ""), argv
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["order"] == 12

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run(["kac", "Q9 labels=1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("spec", ["scan E6", "twist=2 E6 scan", "all-ones A2"])
    def test_spec_must_start_with_the_type(self, spec, capsys):
        code, out, err = run(["kac", spec], capsys)
        assert code == 2
        head = spec.split()[0]
        assert "start with the diagram type" in err and repr(head) in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1", "--format", "xml"],
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1 --format xml"],
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1", "--format"],
            ["kac", "--format", "json", "A2 all-ones", "--format", "text"],
            ["kac", "A2 all-ones --format json --format text"],
            ["kac", "--format", "json", "--format", "text", "A2 all-ones"],
            ["kac", "A2 all-ones", "--format", "json", "--format", "json"],
            ["analyze", "[[1],[-1]]", "--format", "json", "--format", "text"],
            ["analyze", "[[1],[-1]]", "--format", "json", "--format", "json"],
        ],
    )
    def test_bad_format_exits_2(self, argv, capsys):
        # The options after a kac spec are re-parsed by hand; they must be
        # checked like analyze's --format.  A second --format, for either
        # command and wherever it stands, would silently override the first.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert "--format" in out.err
        assert out.out == ""


    @pytest.mark.parametrize(
        "spec",
        [
            "E6 twist=x",
            "E7 twist=1 scan --delta-ge x",
            "E7 twist=1 scan --check-order-not-div a",
            "E7 twist=1 scan --jobs x",
            "E8 scan --check-order-not-div 0",
            "E8 scan --check-order-not-div 9,-2",
        ],
    )
    def test_non_integer_option_exits_2(self, spec, capsys):
        code, _, err = run(["kac", spec], capsys)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("spec", ["E6 twist={}", "A2 labels=1,{},1"])
    def test_integer_past_the_digit_limit_is_named_not_echoed(self, spec, capsys):
        digits = "7" * 5000
        code, out, err = run(["kac", spec.format(digits)], capsys)
        assert code == 2 and out == ""
        assert len(err) < 200
        assert (
            "an integer of 5000 digits exceeds the limit of"
            f" {sys.get_int_max_str_digits()} digits"
        ) in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("E\u0668 all-ones", "the rank of 'E' needs an integer, got '\u0668'"),
            ("A2 labels=1,\u0660,1", "labels= needs comma-separated integers, got '\u0660'"),
            ("A2 twist=\uff11", "twist= needs an integer, got '\uff11'"),
        ],
        ids=["rank", "labels", "twist"],
    )
    def test_non_ascii_digit_exits_2(self, spec, message, capsys):
        # Not read as a number, and not named as one past the digit limit.
        code, out, err = run(["kac", spec], capsys)
        assert (code, out) == (2, "")
        assert err == f"parse error: {message}\n"

    def test_non_integer_twist_message(self, capsys):
        code, _, err = run(["kac", "E6 twist=x"], capsys)
        assert code == 2
        assert err == "parse error: twist= needs an integer, got 'x'\n"

    def test_long_non_integer_is_cut_not_echoed(self, capsys):
        text = "7" * 5000 + "x"
        code, out, err = run(["kac", f"E6 twist={text}"], capsys)
        assert code == 2 and out == ""
        assert len(err) < 200
        assert f"got {'7' * 40!r}... (5001 characters)" in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("E6 labels=1,0,1 scan", "drop labels="),
            ("E6 scan labels=1,1,1,0,1,1,1", "drop labels="),
            ("E6 twist=2 all-ones scan --delta-ge 1", "drop labels="),
            ("E6 labels=1,1,1,0,1,1,1 --delta-ge 3", "--delta-ge applies only"),
            ("E6 all-ones --check-order-not-div 9", "--check-order-not-div applies"),
            ("E7 --delta-ge 2 --check-order-not-div 9,14", "--delta-ge applies"),
            ("A2 labels=1,1,1 labels=0,0,1", "labels is given more than once"),
            ("A2 twist=1 twist=2 labels=1,1", "twist is given more than once"),
            ("A2 scan --delta-ge 5 --delta-ge -3", "--delta-ge is given more"),
            ("A2 scan scan", "scan is given more than once"),
            ("A2 all-ones all-ones", "all-ones is given more than once"),
            ("A2 labels=1,1,1 all-ones", "labels= and all-ones both set"),
            ("A2 labels=1,,1,1", "labels= needs comma-separated integers"),
            ("A2 labels=1,1,1,", "labels= needs comma-separated integers"),
            (
                "A2 scan --check-order-not-div 3,,2",
                "--check-order-not-div needs comma-separated integers",
            ),
        ],
    )
    def test_spec_parts_a_command_would_ignore_exit_2(self, spec, message, capsys):
        # A scan reads no labels, only a scan reads the scan options, and
        # a repeated part or an empty list field would hide a value.
        code, out, err = run(["kac", spec], capsys)
        assert code == 2
        assert "parse error" in err and message in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec",
        [
            "E7 twist=1 scan --delta-ge",
            "E7 twist=1 scan --check-order-not-div",
            "E7 twist=1 scan --delta-ge 3 --check-order-not-div",
        ],
    )
    def test_option_without_value_exits_2(self, spec, capsys):
        code, out, err = run(["kac", spec], capsys)
        assert code == 2
        assert "parse error" in err and "needs a value" in err
        assert out == ""


def test_worker_count_is_clamped():
    cpus = os.cpu_count() or 1
    assert selftest._worker_count(10**9) == cpus
    assert selftest._worker_count(0) == 1
    assert selftest._worker_count(-3) == 1
    assert selftest._worker_count(1) == 1


def test_cli_holds_no_selftest_harness():
    # The front end parses, runs and renders: the oracles, the case stream
    # and the worker pool are selftest's.  perfbench reads the two names
    # that cli imports back from it.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{a.name}".lstrip(".") for a in node.names)
    parts = {p for name in imported for p in name.split(".")}
    assert imported, "no imports found"
    assert not parts & {"oracle", "random", "multiprocessing"}, sorted(imported)
    assert cli.run_selftest is selftest.run_selftest
    assert cli._random_weight_matrix is selftest._random_weight_matrix


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--max-n", "0"],
        ["selftest", "--max-r", "0"],
        ["selftest", "--max-entry", "-1"],
        ["selftest", "--count", "-3"],
        ["selftest", "--jobs", "0"],
        ["analyze", "[[1],[-1]]", "--max-components", "-1"],
    ],
)
def test_out_of_range_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "must be >=" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "7" * 5000,
            "an integer of 5000 digits exceeds the limit of"
            f" {sys.get_int_max_str_digits()} digits",
        ),
        ("x" * 3000, f"needs an integer, got {'x' * 40!r}... (3000 characters)"),
    ],
    ids=["5000-digits", "3000-characters"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--seed"],
        ["selftest", "--count"],
        ["selftest", "--max-n"],
        ["selftest", "--max-r"],
        ["selftest", "--max-entry"],
        ["selftest", "--jobs"],
        ["analyze", "[[1],[-1]]", "--max-components"],
    ],
    ids=lambda argv: argv[-1],
)
def test_long_option_value_is_cut_not_echoed(argv, text, message, capsys):
    # Every integer option is read by _read_int, so its error names a
    # long value by its length instead of echoing it.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, text])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err) < 400
    assert f"argument {argv[-1]}: {message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", '{"w": 1}'], 'JSON input needs {"weights": '),
        (["analyze", '{"weights": 5}'], "weights must be a list of integer rows"),
        (["analyze", "TMP/comment.csv"], "empty CSV input"),
        (["analyze", "TMP/missing.csv"], "cannot read 'TMP/missing.csv': "),
        (["kac"], "kac needs a diagram spec"),
    ],
)
def test_parse_error_branches_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # Each input reaches its own InputError in the parser; main returns
    # the parse exit code instead of raising.  TMP is the working
    # directory, ".", so a message quotes its paths whole.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "comment.csv").write_text("# no rows\n")
    code, out, err = run([a.replace("TMP", ".") for a in argv], capsys)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: " + message.replace("TMP", "."))


def test_unreadable_long_path_is_cut_not_echoed(capsys):
    # The OSError's own text would name the path again: the message quotes
    # the path cut by _cut, then the error's strerror only.
    code, out, err = run(["analyze", "x" * 5000], capsys)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert len(err) < 400
    assert err.startswith(f"parse error: cannot read {'x' * 40!r}... (5000 characters): ")


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (cli.torus, "is_stable", ["analyze", "[[1],[-1]]"]),
        (cli.theta, "levi_order_scan", ["kac", "E6 scan"]),
        (oracle, "brute_components", ["selftest"]),
    ],
    ids=["analyze", "kac", "selftest"],
)
def test_capability_refusal_exits_3(owner, name, argv, capsys, monkeypatch):
    # No input reaches a refusal of the library today, so a mutant raises
    # one: each command exits 3 with the one stderr line the README
    # documents, and writes nothing to stdout.
    def refuse(*args, **kwargs):
        raise CapabilityError("mutant")

    monkeypatch.setattr(owner, name, refuse)
    assert run(argv, capsys) == (cli.EXIT_CAPABILITY, "", "refused: mutant\n")


def test_closed_pipe_exits_0_without_traceback():
    # The reader's end is closed before the command writes anything.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from moment_fiber.cli import main; sys.exit(main())",
                "kac",
                "E6 twist=1 scan",
                "--format",
                "json",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == cli.EXIT_OK


def in_process_pool(opened):
    """A stand-in for ``multiprocessing.Pool`` that maps in this process,
    so monkeypatches hold; ``opened`` collects each pool's size."""

    class InProcessPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    return InProcessPool


class TestSelftest:
    @pytest.mark.parametrize("value", ["1_0", " 10", "\uff11\uff10"])
    def test_count_of_non_ascii_digits_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--count", value])
        assert exc.value.code == 2
        assert f"argument --count: needs an integer, got {value!r}" in capsys.readouterr().err

    def test_quick_run_passes(self, capsys):
        code, out, _ = run(
            ["selftest", "--count", "15", "--seed", "2", "--max-n", "6"],
            capsys,
        )
        assert code == 0
        assert "PASS" in out

    def test_degenerate_zero_weight_seeding(self, capsys):
        # Tiny bounds force n=1 matrices including S = [[0]].
        code, out, _ = run(
            [
                "selftest",
                "--count",
                "30",
                "--seed",
                "0",
                "--max-n",
                "1",
                "--max-r",
                "1",
                "--max-entry",
                "1",
            ],
            capsys,
        )
        assert code == 0

    def test_mutation_is_detected(self, capsys, monkeypatch):
        # Harness check: a wrong fast path must be reported with the
        # offending matrix echoed.
        real = torus.Analysis.components

        def broken(self, max_components=None):
            out = real(self, max_components)
            return out[:-1] if self.n >= 2 and out else out

        monkeypatch.setattr(cli.torus.Analysis, "components", broken)
        code, out, _ = run(["selftest", "--count", "10", "--seed", "3"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "weights=" in out

    def test_off_fiber_smooth_witness_is_reported(self, capsys, monkeypatch):
        # The tangent oracle's own moment-map check is the fiber check:
        # x = phi = e_i at a nonzero weight row i is off the fiber.
        def off_fiber(self, subset):
            i = next(k for k in range(self.n) if any(self.weights.weight(k + 1)))
            unit = [int(k == i) for k in range(self.n)]
            return torus.PairPoint.of(unit, unit)

        monkeypatch.setattr(cli.torus.Analysis, "smooth_witness", off_fiber)
        code, out, _ = run(["selftest", "--count", "10", "--seed", "3"], capsys)
        assert code == 1
        assert "smooth witness off fiber: seed=3 weights=" in out

    @pytest.mark.parametrize(
        "owner, name, argv",
        [
            (
                torus.Analysis, "smooth_witness",
                ["selftest", "--count", "10", "--seed", "3"],
            ),
            (torus.Analysis, "components", ["analyze", "[[1],[-1]]"]),
        ],
        ids=["selftest", "analyze"],
    )
    def test_library_input_error_is_not_a_parse_error(
        self, owner, name, argv, capsys, monkeypatch
    ):
        # A well-formed input that a fast path rejects is a bug of the
        # library: it propagates, and is not reported as "parse error".
        def broken(*args, **kwargs):
            raise InputError("mutant")

        monkeypatch.setattr(owner, name, broken)
        with pytest.raises(InputError, match="mutant"):
            cli.main(argv)
        assert "parse error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "owner, name, mutant, kind",
        [
            (
                oracle, "brute_visible",
                lambda real: lambda w: None,
                "visibility verdict mismatch: seed=3 weights=",
            ),
            (
                oracle, "check_decomposition",
                lambda real: lambda w, dec: "mutant",
                "decomposition verification: seed=3 weights=",
            ),
            (
                torus.Analysis, "stabilizer_dim",
                lambda real: lambda self, p: real(self, p) + 1,
                "smooth witness stabilizer: seed=3 weights=",
            ),
            (
                oracle, "tangent_dim",
                lambda real: lambda w, p: real(w, p) + 1,
                "smooth witness tangent dimension: seed=3 weights=",
            ),
            (
                polytope, "zero_in_hull",
                lambda real: lambda q: polytope.Outside((0,) * q.dim),
                "hull certificate: seed=3 points=",
            ),
            (
                oracle, "brute_zero_in_hull",
                lambda real: lambda pts: not real(pts),
                "hull verdict: seed=3 points=",
            ),
        ],
        ids=[
            "visibility", "decomposition", "stabilizer", "tangent",
            "hull-certificate", "hull-verdict",
        ],
    )
    def test_each_failure_kind_is_reported(
        self, owner, name, mutant, kind, capsys, monkeypatch
    ):
        # One wrong fast path or oracle per failure kind: selftest must
        # fail and name the kind with the offending input.
        monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
        code, out, _ = run(["selftest", "--count", "10", "--seed", "3"], capsys)
        assert code == 1
        assert kind in out

    def test_failure_lines_follow_the_suite_order(self, monkeypatch):
        # One case fails every matrix suite and the hull check at once: the
        # lines of each suite come in the order of selftest._SUITES, then the
        # hull's.  [[1], [1], [-2]] is not visible, has one component and
        # is locally free with n = 3, so all three suites run on it.
        visible = torus.VisibleDecomposition(frozenset(), ())
        for owner, name, mutant in [
            (oracle, "brute_components", lambda real: lambda w: real(w)[:-1]),
            (oracle, "brute_visible", lambda real: lambda w: visible),
            (oracle, "tangent_dim", lambda real: lambda w, p: real(w, p) + 1),
            (oracle, "brute_zero_in_hull", lambda real: lambda pts: not real(pts)),
        ]:
            monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
        w = torus.WeightMatrix.from_rows([[1], [1], [-2]])
        weights = "seed=5 weights=[[1], [1], [-2]]"
        assert selftest._check_case((5, w, [(1,), (-1,)])) == [
            f"component mismatch: {weights}",
            f"component count: {weights}",
            f"visibility verdict mismatch: {weights}",
            *[f"smooth witness tangent dimension: {weights}"] * 8,
            "hull verdict: seed=5 points=[(1,), (-1,)]",
        ]

    @staticmethod
    def _without_overlap(vectors):
        # torus._mixed_circuit without its overlap case: two positive
        # fundamental circuits that meet pass as disjoint blocks.
        return next((v for v in vectors if min(v) < 0), None)

    def test_certificate_fault_is_a_failure_line(self, monkeypatch):
        # [[1], [-1], [-1]] has two positive fundamental circuits through
        # row 1; without the overlap case the analysis's own certificate
        # check raises ArithmeticError.  That is the case's one matrix
        # line, and the hull query is still checked.
        monkeypatch.setattr(torus, "_mixed_circuit", self._without_overlap)
        w = torus.WeightMatrix.from_rows([[1], [-1], [-1]])
        with pytest.raises(ArithmeticError):
            torus.Analysis.of(w)
        assert selftest._check_case((5, w, [(1,), (-1,)])) == [
            "certificate check: seed=5 weights=[[1], [-1], [-1]]"
        ]
        monkeypatch.setattr(oracle, "brute_zero_in_hull", lambda pts: False)
        assert selftest._check_case((5, w, [(1,), (-1,)])) == [
            "certificate check: seed=5 weights=[[1], [-1], [-1]]",
            "hull verdict: seed=5 points=[(1,), (-1,)]",
        ]

    def test_certificate_fault_fails_the_run(self, capsys, monkeypatch):
        # CI's first selftest run reaches overlap cases: it exits 1 with a
        # certificate line that names the case, not in a traceback.
        monkeypatch.setattr(torus, "_mixed_circuit", self._without_overlap)
        code, out, _ = run(["selftest", "--count", "400"], capsys)
        assert code == 1
        assert "certificate check: seed=0 weights=" in out

    def test_simplex_certificate_fault_is_a_hull_line(self, capsys, monkeypatch):
        # A hull certificate that fails the simplex's own check raises
        # ArithmeticError inside zero_in_hull; selftest reports it as the
        # query's hull certificate line and exits 1, with no traceback.
        real = polytope.verify_certificate
        monkeypatch.setattr(
            polytope, "verify_certificate",
            lambda q, cert, relative_interior: (
                relative_interior and real(q, cert, relative_interior)
            ),
        )
        with pytest.raises(ArithmeticError, match="non-verifying"):
            polytope.zero_in_hull(polytope.HullQuery.of([[1], [-1]]))
        code, out, err = run(["selftest", "--count", "3", "--seed", "3"], capsys)
        assert code == 1
        assert "hull certificate: seed=3 points=[(0, -4)]\n" in out
        assert "Traceback" not in out + err

    def test_one_moment_map_evaluation_per_smooth_witness(self, monkeypatch):
        # The tangent oracle's fiber check is the only evaluation at a
        # smooth witness.  The non-visible witness check evaluates none:
        # it reads the fiber off the supports.
        points, evaluated = [], []
        real_point, real_eval = torus.Analysis.smooth_witness, torus.moment_eval

        def witness(self, subset):
            points.append(real_point(self, subset))
            return points[-1]

        def moment_eval(w, p):
            evaluated.append(p)  # kept alive, so no id is reused
            return real_eval(w, p)

        monkeypatch.setattr(torus.Analysis, "smooth_witness", witness)
        monkeypatch.setattr(torus, "moment_eval", moment_eval)
        monkeypatch.setattr(oracle, "moment_eval", moment_eval)
        ok, _ = selftest.run_selftest(0, count=30)
        assert ok
        ids = {id(p) for p in points}
        hits = sorted(id(p) for p in evaluated if id(p) in ids)
        assert points and hits == sorted(ids)

    def test_one_oracle_rank_per_smooth_witness_matrix(self, monkeypatch):
        # Every smooth witness of a matrix has the rows of S as its
        # Jacobian columns, so the tangent oracle ranks once per matrix
        # entering the suite (n <= 6, locally free), not once per point.
        real_of, real_tangent, real_rank = (
            torus.Analysis.of, oracle.tangent_dim, oracle._rank_crossmul
        )
        analyses, points, inside, ranks = [], [], [False], []

        def of(w):
            analyses.append(real_of(w))
            return analyses[-1]

        def tangent_dim(w, p):
            points.append(p)
            inside[0] = True
            try:
                return real_tangent(w, p)
            finally:
                inside[0] = False

        def rank(rows):
            if inside[0]:
                ranks.append(rows)
            return real_rank(rows)

        monkeypatch.setattr(torus.Analysis, "of", of)
        monkeypatch.setattr(oracle, "tangent_dim", tangent_dim)
        monkeypatch.setattr(oracle, "_rank_crossmul", rank)
        oracle._rank_columns.cache_clear()
        ok, _ = selftest.run_selftest(0, count=30)
        assert ok
        matrices = sum(a.n <= 6 and a.rank == a.weights.r for a in analyses)
        assert 0 < matrices < len(points)
        assert len(ranks) == matrices

    @pytest.mark.parametrize(
        "bad",
        [
            {"count": 0}, {"count": -5}, {"jobs": 0}, {"jobs": -1},
            {"max_n": 0}, {"max_r": 0}, {"max_entry": -1},
            # Every argument is an int by errors.is_int, the seed too.
            {"seed": "a"}, {"seed": 0.0}, {"count": True}, {"count": 2.0},
            {"max_n": "8"}, {"max_r": 5.0}, {"max_entry": 1.5},
            {"jobs": True},
        ],
    )
    def test_out_of_range_arguments_are_rejected(self, bad):
        with pytest.raises(InputError, match="selftest needs integer arguments"):
            selftest.run_selftest(**{"seed": 0, "count": 2, **bad})

    def test_parallel_shards(self, capsys):
        code, out, _ = run(
            ["selftest", "--count", "8", "--jobs", "2", "--max-n", "5"],
            capsys,
        )
        assert code == 0

    def test_shards_split_count_exactly(self, capsys, monkeypatch):
        # --count 5 --jobs 2 on two workers: each of the 5 cases is drawn
        # once and checked once, in order, and the report counts them.
        import multiprocessing

        opened, drawn, checked = [], [], []
        real_draw, real_check = selftest._random_weight_matrix, selftest._check_case
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(opened))
        monkeypatch.setattr(
            selftest, "_random_weight_matrix",
            lambda *a: drawn.append(real_draw(*a)) or drawn[-1],
        )
        monkeypatch.setattr(
            selftest, "_check_case", lambda case: checked.append(case) or real_check(case)
        )
        code, out, _ = run(["selftest", "--count", "5", "--jobs", "2"], capsys)
        assert code == 0
        assert "selftest: 5 matrices" in out
        assert opened == [2]
        assert len(drawn) == 5
        assert [w for _, w, _ in checked] == drawn

    def test_shards_do_not_depend_on_the_host(self, monkeypatch):
        # --jobs 4 checks the cases of --jobs 1, in the same order, on a
        # 1-CPU and on an 8-CPU host: the CPU count bounds only the
        # processes.
        import multiprocessing

        opened, checked = [], {}
        monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(opened))
        for cpus, jobs in ((1, 4), (8, 4), (8, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            monkeypatch.setattr(
                selftest, "_check_case",
                lambda case: checked.setdefault((cpus, jobs), []).append(case) or [],
            )
            ok, _ = selftest.run_selftest(7, count=200, jobs=jobs)
            assert ok
        assert opened == [4]
        assert len(checked[8, 1]) == 200
        assert checked[1, 4] == checked[8, 4] == checked[8, 1]

    @pytest.mark.parametrize(
        "name, mutant, first",
        [
            (
                "brute_components",
                lambda real: lambda w: real(w)[:-1] if w.n % 3 == 0 else real(w),
                "component mismatch: seed=0 weights=[[0], [5], [0], [-2], [1], [2]]",
            ),
            (
                "brute_zero_in_hull",
                lambda real: lambda pts: real(pts) != (len(pts) == 3),
                "hull verdict: seed=0 points=[(-4, 3, 3), (2, 1, 4), (-2, -1, 2)]",
            ),
        ],
        ids=["components", "hull"],
    )
    def test_failures_do_not_depend_on_jobs_or_host(
        self, name, mutant, first, monkeypatch
    ):
        # A broken matrix suite and a broken hull suite: every --jobs and
        # CPU count gives the same lines.  The first failure line for
        # seed 0 is pinned, so the draw order of the cases is held.
        import multiprocessing

        opened = []
        monkeypatch.setattr(oracle, name, mutant(getattr(oracle, name)))
        monkeypatch.setattr(multiprocessing, "Pool", in_process_pool(opened))
        outputs = []
        for cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            for jobs in (1, 2, 3, 4):
                outputs.append(selftest.run_selftest(0, count=150, jobs=jobs))
        assert opened == [2, 3, 4]
        ok, lines = outputs[0]
        assert not ok and lines[2] == first
        assert all(out == outputs[0] for out in outputs)

    def test_at_most_two_ranks_per_matrix(self, monkeypatch):
        # The smooth-witness suite reads local freeness and every witness's
        # stabilizer off the one Analysis, so no elimination runs per
        # subset: the circuits and their check are all there is.
        calls = []
        real = exactlin.echelon
        monkeypatch.setattr(
            exactlin, "echelon", lambda *a: calls.append(a) or real(*a)
        )
        ok, _ = selftest.run_selftest(0, count=30)
        assert ok
        assert len(calls) <= 2 * 30

    def test_one_circuit_core_per_matrix(self, monkeypatch):
        # Components, visibility and the witness share one elimination.
        calls, kernels = [], []
        real, real_kernel = torus.Analysis.of, exactlin.kernel_basis
        monkeypatch.setattr(
            torus.Analysis, "of", lambda w: calls.append(w) or real(w)
        )
        monkeypatch.setattr(
            exactlin, "kernel_basis", lambda *a: kernels.append(a) or real_kernel(*a)
        )
        ok, _ = selftest.run_selftest(0, count=30)
        assert ok
        assert len(calls) == len(kernels) == 30


@given(
    st.one_of(
        st.from_regex(r"[+-]?[0-9]{1,30}", fullmatch=True),
        st.text(alphabet="+-0123456789_ \t\n\u0660\u0668\uff11.e", max_size=12),
        st.text(max_size=12),
    )
)
@settings(max_examples=400, deadline=None)
def test_read_int_reads_only_a_sign_and_ascii_digits(text):
    # The one rule of JSON integers: int() alone would also take spaces,
    # underscores and every Unicode decimal digit.
    if re.fullmatch(r"[+-]?[0-9]+", text, re.ASCII):
        assert cli._read_int(text) == int(text)
    else:
        with pytest.raises(InputError):
            cli._read_int(text)
