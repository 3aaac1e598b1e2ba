"""CLI surface: inputs, formats, exit codes, report round-trips."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import moment_fiber
from moment_fiber import cli, exactlin, torus
from moment_fiber.errors import InputError


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

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "weights.csv"
        path.write_bytes(b"1, 0\n\xff\xfe\n")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert "parse error" in err

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

    def test_float_hint_adds_but_never_replaces(self, capsys):
        _, out, _ = run(
            ["analyze", "[[1],[-1]]", "--format", "json", "--float-hint"],
            capsys,
        )
        rep = json.loads(out)
        cert = rep["properties"]["stable"]["certificate"]
        assert cert["coefficients"] == ["1/1", "1/1"]
        assert cert["coefficients_hint"] == [1.0, 1.0]

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
                json.dumps(dataclasses.asdict(rep))
            )
            assert rep == cli.analyze(w, max_components=4096)

    def test_json_is_one_sorted_line(self, capsys):
        code, out, _ = run(
            ["analyze", "[[1],[1],[-2]]", "--format", "json"], capsys
        )
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        rep = json.loads(out)
        assert out == json.dumps(rep, sort_keys=True) + "\n"

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOMENT_FIBER_COLOR", "1")
        _, out, _ = run(["analyze", "[[1],[-1]]"], capsys)
        assert "\x1b[32m" in out
        monkeypatch.setenv("MOMENT_FIBER_COLOR", "0")
        _, out, _ = run(["analyze", "[[1],[-1]]"], capsys)
        assert "\x1b[" not in out

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

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run(["kac", "Q9 labels=1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1", "--format", "xml"],
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1 --format xml"],
            ["kac", "E6 twist=1 labels=1,1,1,0,1,1,1", "--format"],
        ],
    )
    def test_bad_format_exits_2(self, argv, capsys):
        # The options after the spec are re-parsed by hand; they must be
        # checked like analyze's --format.
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
    assert cli._worker_count(10**9) == cpus
    assert cli._worker_count(0) == 1
    assert cli._worker_count(-3) == 1
    assert cli._worker_count(1) == 1


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


class TestSelftest:
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

    @pytest.mark.parametrize(
        "bad",
        [
            {"count": 0}, {"count": -5}, {"jobs": 0}, {"jobs": -1},
            {"max_n": 0}, {"max_r": 0}, {"max_entry": -1},
        ],
    )
    def test_out_of_range_arguments_are_rejected(self, bad):
        with pytest.raises(InputError):
            cli.run_selftest(0, **bad)

    def test_parallel_shards(self, capsys):
        code, out, _ = run(
            ["selftest", "--count", "8", "--jobs", "2", "--max-n", "5"],
            capsys,
        )
        assert code == 0

    def test_shards_split_count_exactly(self, capsys, monkeypatch):
        # Two shards on any host, run in this process: 5 matrices are
        # split 3 + 2, and the report counts exactly those.
        import multiprocessing

        shard_counts = []

        class SerialPool:
            def __init__(self, processes):
                assert processes == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                shard_counts.extend(a[1] for a in args)
                return [fn(a) for a in args]

        drawn = []
        real = cli._random_weight_matrix
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(
            cli, "_random_weight_matrix",
            lambda *a: drawn.append(1) or real(*a),
        )
        code, out, _ = run(["selftest", "--count", "5", "--jobs", "2"], capsys)
        assert code == 0
        assert "selftest: 5 matrices" in out
        assert shard_counts == [3, 2]
        assert len(drawn) == 5

    def test_shards_do_not_depend_on_the_host(self, monkeypatch):
        # --jobs 4 checks the same four shards on a 1-CPU and an 8-CPU host.
        import multiprocessing

        class SerialPool:
            def __init__(self, processes):
                assert processes <= 4

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return [fn(a) for a in args]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        shards = {}
        for cpus in (1, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            monkeypatch.setattr(
                cli, "_selftest_chunk",
                lambda args: shards.setdefault(cpus, []).append(args) or [],
            )
            ok, _ = cli.run_selftest(7, count=200, jobs=4)
            assert ok
        assert shards[1] == shards[8]
        assert [a[:2] for a in shards[1]] == [
            (7, 50), (1007, 50), (2007, 50), (3007, 50)
        ]

    def test_at_most_two_ranks_per_matrix(self, monkeypatch):
        # The smooth-witness suite checks local freeness once per matrix,
        # not once per subset.
        calls = []
        real = exactlin.rank
        monkeypatch.setattr(
            exactlin, "rank", lambda m: calls.append(m) or real(m)
        )
        ok, _ = cli.run_selftest(0, count=30)
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
            exactlin, "kernel_basis", lambda m: kernels.append(m) or real_kernel(m)
        )
        ok, _ = cli.run_selftest(0, count=30)
        assert ok
        assert len(calls) == len(kernels) == 30
