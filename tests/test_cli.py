"""Exit codes and output contracts of the command-line front end."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qci.scalars
from helpers import format1_blob
from qci.algebra import Presentation
from qci.cli import run
from qci.demos import example_presentation
from qci.errors import CrossCheckError
from qci.scalars import make_field
from qci.structio import load_structure, save_presentation

C8 = make_field("cyclotomic", 8)
Q = make_field("rational")


def presentation(field, a, entries):
    n = len(a)
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), lit in entries.items():
        val = field.parse(lit)
        q[i - 1][j - 1] = val
        q[j - 1][i - 1] = val.inverse()
    return Presentation(field, a, q)


@pytest.fixture
def p69(tmp_path):
    path = tmp_path / "p69.json"
    save_presentation(example_presentation("6.9", C8), str(path))
    return str(path)


@pytest.fixture
def not_utf8(tmp_path):
    path = tmp_path / "bom16.json"
    path.write_bytes(b'\xff\xfe{\x00}\x00')
    return str(path)


def assert_one_error_line(err: str, prefix: str) -> None:
    """stderr holds one line, which starts with prefix, and no traceback."""
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err


def assert_cannot_write(err: str, path) -> None:
    """stderr holds one `error: cannot write <path>: ...` line."""
    assert_one_error_line(err, f"error: cannot write {path}: ")


@pytest.fixture
def p_no(tmp_path):
    # q12 = -1 over the rationals: decidable, answer No
    path = tmp_path / "pno.json"
    save_presentation(presentation(Q, (2, 2), {(1, 2): "-1"}), str(path))
    return str(path)


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_help(self):
        assert run(["--help"]) == 0

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/path.json"]) == 1

    def test_usage_error_leaves_the_next_run_unchanged(self, p69, capsys):
        # every run shares one parser
        assert run(["decide", p69, "--json"]) == 0
        first = capsys.readouterr()
        assert run(["decide", p69, "--bogus"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run(["decide", p69, "--json"]) == 0
        assert capsys.readouterr() == first


class TestValidate:
    def test_valid(self, p69, capsys):
        assert run(["validate", p69]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "dimension: 8" in out

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["validate", str(bad)]) == 1

    def test_not_utf8(self, not_utf8, capsys):
        assert run(["validate", not_utf8]) == 1
        assert capsys.readouterr().err.startswith("error: not valid UTF-8: ")

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_nested_too_deeply(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert run([command, str(deep)]) == 1
        assert capsys.readouterr().err == "error: not valid JSON: nested too deeply to read\n"

    def test_semantic_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "field": {"kind": "rational"},
                    "n": 2,
                    "a": [2, 2],
                    "q": [["1", "2"], ["3", "1"]],
                }
            )
        )
        assert run(["validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_huge_cyclotomic_order(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        field = {"kind": "cyclotomic", "m": 10**30}
        bad.write_text(json.dumps({"field": field, "n": 1, "a": [2], "q": [["1"]]}))
        assert run(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: cyclotomic order {10**30} exceeds the limit of 1000\n"
        )

    @pytest.mark.parametrize("p", [1000000016000000063, 2**31])
    def test_huge_prime_modulus(self, tmp_path, monkeypatch, capsys, p):
        # refused before trial division, which took seconds at 19 digits
        def unreachable(p):
            raise AssertionError(f"modulus {p} was tested")

        monkeypatch.setattr(qci.scalars, "is_prime", unreachable)
        bad = tmp_path / "huge.json"
        field = {"kind": "prime", "p": p}
        q = [["1", "1"], ["1", "1"]]
        bad.write_text(json.dumps({"field": field, "n": 2, "a": [2, 2], "q": q}))
        assert run(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: modulus {p} exceeds the limit of {2**31 - 1}\n"
        )

    def test_dimension_cap_env(self, tmp_path, monkeypatch, capsys):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {
                    "field": {"kind": "rational"},
                    "n": 2,
                    "a": [100, 60],
                    "q": [["1", "1"], ["1", "1"]],
                }
            )
        )
        monkeypatch.delenv("QCI_DIM_LIMIT", raising=False)
        assert run(["validate", str(big)]) == 1
        monkeypatch.setenv("QCI_DIM_LIMIT", "6000")
        assert run(["validate", str(big)]) == 0

    @pytest.mark.parametrize("raw", ["abc", "-1", "0"])
    def test_bad_dimension_cap_env(self, p69, monkeypatch, capsys, raw):
        monkeypatch.setenv("QCI_DIM_LIMIT", raw)
        assert run(["validate", p69]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"QCI_DIM_LIMIT={raw!r}" in err


class TestAnalyze:
    def test_symmetric_example(self, p69, capsys):
        assert run(["analyze", p69]) == 0
        out = capsys.readouterr().out
        assert "h_1: 1" in out
        assert "symmetric: yes" in out
        assert "nakayama order: 1" in out
        assert "compatible permutations: 3" in out
        assert out.count("(involution)") == 3

    def test_twisted_example(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_presentation(example_presentation("6.10", C8), str(path))
        assert run(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "h_2: -1" in out
        assert "symmetric: no" in out
        assert "nakayama order: 2" in out

    def test_infinite_order(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_presentation(presentation(Q, (2, 2), {(1, 2): "2"}), str(path))
        assert run(["analyze", str(path)]) == 0
        assert "nakayama order: infinite" in capsys.readouterr().out


class TestSearch:
    def test_involutions(self, p69, capsys):
        assert run(["search", p69]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["[1,3,2]", "[2,1,3]", "[3,2,1]"]

    def test_all_permutations_flag(self, p69, capsys):
        assert run(["search", p69, "--all-permutations"]) == 0
        out = capsys.readouterr().out
        assert out.count("(involution)") == 3

    def test_none_found(self, tmp_path, capsys):
        F5 = make_field("prime", 5)
        path = tmp_path / "p.json"
        save_presentation(
            presentation(F5, (2, 3, 4), {(1, 2): "2", (1, 3): "1", (2, 3): "2"}),
            str(path),
        )
        assert run(["search", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "none"


class TestDecide:
    def test_yes(self, p69, capsys):
        assert run(["decide", p69]) == 0
        out = capsys.readouterr().out
        assert "decision: Yes" in out
        assert "witness pi: [1,3,2]" in out
        assert "witness c: (1, 1, 1)" in out

    def test_no_is_exit_zero(self, p_no, capsys):
        assert run(["decide", p_no]) == 0
        out = capsys.readouterr().out
        assert "decision: No" in out
        assert "reason: no-involution-admits-scalars" in out

    def test_json(self, p_no, capsys):
        assert run(["decide", p_no, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exists"] is False
        assert data["reason"] == "no-involution-admits-scalars"
        assert len(data["involutions"]) == 2
        assert data["n_involutions"] == 2


class TestConstruct:
    def test_default_witness(self, p69, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        assert run(["construct", p69, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "witness pi: [1,3,2]" in out
        B = load_structure(str(out_path))
        assert B.witness.c == (C8.one, C8.one, C8.one)

    def test_explicit_pi(self, p69, tmp_path):
        out_path = tmp_path / "s.json"
        assert run(["construct", p69, "--pi", "[2,1,3]", "--out", str(out_path)]) == 0
        assert load_structure(str(out_path)).witness.pi.images == (2, 1, 3)

    def test_explicit_pi_and_c(self, p69, tmp_path):
        out_path = tmp_path / "s.json"
        code = run(
            ["construct", p69, "--pi", "[1,3,2]", "--c", "1,1,1", "--out", str(out_path)]
        )
        assert code == 0

    def test_invalid_c_rejected(self, p69, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        code = run(
            ["construct", p69, "--pi", "[1,3,2]", "--c", "-1,1,1", "--out", str(out_path)]
        )
        assert code == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("text", ["[1,x,3]", "[1,1,2]", ""])
    def test_bad_pi_text(self, p69, tmp_path, capsys, text):
        out_path = tmp_path / "s.json"
        assert run(["construct", p69, "--pi", text, "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad --pi: ")
        assert not out_path.exists()

    def test_bad_pi_text_is_no_traceback(self, p69, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        argv = ["construct", p69, "--pi", "[1,x,3]", "--out", str(tmp_path / "s.json")]
        script = subprocess.run(
            [sys.executable, "-m", "qci", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert script.returncode == 1, script.stderr
        assert "error: bad --pi" in script.stderr
        assert "Traceback" not in script.stderr

    def test_c_without_pi(self, p69, tmp_path):
        assert run(["construct", p69, "--c", "1,1,1", "--out", str(tmp_path / "s.json")]) == 1

    def test_incompatible_pi(self, p69, tmp_path):
        code = run(["construct", p69, "--pi", "[1,2,3]", "--out", str(tmp_path / "s.json")])
        assert code == 1

    def test_out_cannot_be_opened(self, p69, tmp_path, capsys):
        path = tmp_path / "missing" / "s.json"
        assert run(["construct", p69, "--out", str(path)]) == 1
        assert_cannot_write(capsys.readouterr().err, path)

    def test_no_case(self, p_no, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        assert run(["construct", p_no, "--out", str(out_path)]) == 0
        assert "no structure exists: no-involution-admits-scalars" in capsys.readouterr().out
        assert not out_path.exists()


class TestVerify:
    def test_good_structure(self, p69, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        assert run(["construct", p69, "--out", str(s_path)]) == 0
        capsys.readouterr()
        assert run(["verify", str(s_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "hopf comultiplication: no" in out
        assert "primitive dimension: 6" in out

    def test_json_output(self, p69, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        run(["construct", p69, "--out", str(s_path)])
        capsys.readouterr()
        assert run(["verify", str(s_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_passed"] is True
        assert data["hopf_comultiplication"] is False
        assert data["primitive_dim"] == 6
        names = [c["name"] for c in data["axioms"]["checks"]]
        assert "coassociativity" in names

    def test_dim_1024_structure(self, tmp_path, capsys):
        """A GF(7) (32,32) structure, sixteen times the golden d64, passes every check."""
        F7 = make_field("prime", 7)
        p_path, s_path = tmp_path / "p.json", tmp_path / "s.json"
        save_presentation(presentation(F7, (32, 32), {(1, 2): "1"}), str(p_path))
        assert run(["construct", str(p_path), "--out", str(s_path)]) == 0
        capsys.readouterr()
        assert run(["verify", str(s_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_passed"] is True
        checks = data["axioms"]["checks"] + data["derived"]["checks"]
        assert len(checks) == 26
        assert all(c["passed"] for c in checks)
        assert data["primitive_dim"] == 1022

    def test_perturbed_structure_exits_two(self, p69, tmp_path, capsys):
        # delta follows from g on load, so negating one g entry is a
        # consistent perturbation that only the antipode checks can see
        s_path = tmp_path / "s.json"
        run(["construct", p69, "--out", str(s_path)])
        obj = json.loads(s_path.read_text())
        target = "0,1,0"
        obj["g"][target] = C8.format(-C8.parse(obj["g"][target]))
        s_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["verify", str(s_path)]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_semantically_broken_file_exits_one(self, p69, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        run(["construct", p69, "--out", str(s_path)])
        obj = json.loads(s_path.read_text())
        obj["g"]["0,0,0"] = "2"
        s_path.write_text(json.dumps(obj))
        assert run(["verify", str(s_path)]) == 1

    @pytest.mark.parametrize("key", ["0,1,0", "0,0,0"])
    def test_repeated_delta_term_is_an_input_error(self, p69, tmp_path, key):
        s_path = tmp_path / "s.json"
        run(["construct", p69, "--out", str(s_path)])
        obj = format1_blob(load_structure(str(s_path)))
        obj["delta"][key] = [["0,0,0", key, "1"], ["0,0,0", key, "2"]]
        s_path.write_text(json.dumps(obj))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        script = subprocess.run(
            [sys.executable, "-m", "qci", "verify", str(s_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert script.returncode == 1, script.stderr
        assert script.stderr == f"error: delta[{key}] repeats a tensor term\n"

    def test_over_long_literal_is_an_input_error(self, p69, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        run(["construct", p69, "--out", str(s_path)])
        obj = json.loads(s_path.read_text())
        obj["g"]["0,1,0"] = "9" * 5000
        s_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["verify", str(s_path)]) == 1
        assert_one_error_line(capsys.readouterr().err, "error: bad g[0,1,0]: integer of 5000 ")

    def test_not_utf8(self, not_utf8, capsys):
        assert run(["verify", not_utf8]) == 1
        assert capsys.readouterr().err.startswith("error: not valid UTF-8: ")


class TestExample:
    def test_default_symmetric(self, capsys):
        assert run(["example", "6.9"]) == 0
        out = capsys.readouterr().out
        assert "example 6.9 over cyclotomic:8" in out
        assert "Delta(x1*x2*x3) =" in out
        assert "S(x2) = (1)*x3" in out
        assert "all checks passed" in out

    def test_twisted_antipode_lines(self, capsys):
        assert run(["example", "6.10"]) == 0
        out = capsys.readouterr().out
        assert "S(x1) = (-1)*x1" in out
        assert "S(x2) = (z^2)*x3" in out
        assert "hopf comultiplication: no" in out

    def test_rational_symmetric(self, capsys):
        assert run(["example", "6.9", "--b", "2", "--field", "rational"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_prime_field(self, capsys):
        assert run(["example", "6.9", "--b", "2", "--field", "prime:7"]) == 0

    def test_over_long_b_is_an_input_error(self, capsys):
        assert run(["example", "6.9", "--b", "9" * 5000]) == 1
        assert_one_error_line(capsys.readouterr().err, "error: integer of 5000 digits at ")

    def test_twisted_needs_root(self, capsys):
        assert run(["example", "6.10", "--b", "2", "--field", "prime:7"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        s_path = tmp_path / "ex.json"
        assert run(["example", "6.10", "--out", str(s_path)]) == 0
        B = load_structure(str(s_path))
        assert B.presentation.field == C8

    def test_out_cannot_be_opened(self, tmp_path, capsys):
        path = tmp_path / "missing" / "ex.json"
        assert run(["example", "6.9", "--out", str(path)]) == 1
        assert_cannot_write(capsys.readouterr().err, path)

    def test_unknown_id(self):
        assert run(["example", "6.11"]) == 1


class TestEnumerate:
    def test_small_grid(self, capsys):
        assert run(["enumerate", "--field", "prime:5", "--n", "2", "--a", "2,2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "q12",
            "h1",
            "h2",
            "n_squared_is_id",
            "n_involutions",
            "decision",
            "witness_pi",
            "regime",
        ]
        assert len(rows) == 5
        by_q = {row[0]: row for row in rows[1:]}
        assert by_q["1"][5] == "yes"
        assert by_q["4"][5] == "yes"
        assert by_q["2"][5] == "no"
        assert by_q["3"][5] == "no"
        assert by_q["2"][3] == "no"  # Nakayama square is not the identity
        assert by_q["2"][4] == "1"  # the identity only, counted past the gate
        assert by_q["1"][4] == "2"

    # sha256 of the CSV written with --out: a change to any byte of the scan
    # output, row order included, changes the digest
    @pytest.mark.parametrize(
        "field, n, a, rows, yes, digest",
        [
            ("prime:13", "3", "3,3,3", 1728, 120,
             "b9b8b79a24379d1376305a788d01b6bda6ad2662c3005e2d4c21d5898e4908e6"),
            ("prime:5", "2", "2,2", 4, 2,
             "0e60b28a65afb91a09d01fc3006cd3efee2383a76b54e80faf991eb00e3f628d"),
        ],
        ids=["p13-333", "p5-22"],
    )
    def test_grid_csv_is_pinned(self, tmp_path, capsys, field, n, a, rows, yes, digest):
        out = tmp_path / "grid.csv"
        assert run(["enumerate", "--field", field, "--n", n, "--a", a, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} ({rows} rows)\n"
        table = list(csv.reader(out.open(newline="")))
        column = table[0].index("decision")
        assert sum(row[column] == "yes" for row in table[1:]) == yes
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_one_enumeration_per_row(self, monkeypatch, capsys):
        import qci.builder
        import qci.cli
        import qci.permutations

        calls = []
        original = qci.permutations.enumerate_compatible

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (qci.permutations, qci.builder, qci.cli):
            monkeypatch.setattr(module, "enumerate_compatible", counted)
        assert run(["enumerate", "--field", "prime:5", "--n", "2", "--a", "2,2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(calls) == len(rows) - 1 == 4

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run(
            ["enumerate", "--field", "prime:3", "--n", "2", "--a", "2,3", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 3
        assert capsys.readouterr().out == f"wrote {out} (2 rows)\n"

    def test_out_cannot_be_opened(self, tmp_path, capsys):
        path = tmp_path / "missing" / "grid.csv"
        argv = ["enumerate", "--field", "prime:3", "--n", "2", "--a", "2,3"]
        assert run([*argv, "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert_cannot_write(captured.err, path)
        assert captured.out == ""

    def test_rows_decided_before_an_error_stay(self, tmp_path, monkeypatch, capsys):
        import qci.cli

        decided = []

        def failing_third(P):
            if len(decided) == 2:
                raise CrossCheckError("stop")
            decided.append(P)
            return original(P)

        original = qci.cli.decide
        monkeypatch.setattr(qci.cli, "decide", failing_third)
        out = tmp_path / "grid.csv"
        code = run(["enumerate", "--field", "prime:5", "--n", "2", "--a", "2,2", "--out", str(out)])
        assert code == 3
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "q12" and [row[0] for row in rows[1:]] == ["1", "2"]
        assert "wrote" not in capsys.readouterr().out

    def test_prime_cap(self, capsys):
        assert run(["enumerate", "--field", "prime:17", "--n", "2", "--a", "2,2"]) == 1
        err = capsys.readouterr().err
        assert "--allow-large" in err
        code = run(
            ["enumerate", "--field", "prime:17", "--n", "2", "--a", "2,2", "--allow-large"]
        )
        assert code == 0

    def test_requires_prime_field(self):
        assert run(["enumerate", "--field", "rational", "--n", "2", "--a", "2,2"]) == 1
        assert run(["enumerate", "--field", "cyclotomic:8", "--n", "2", "--a", "2,2"]) == 1

    def test_n_bounds(self):
        assert run(["enumerate", "--field", "prime:5", "--n", "4", "--a", "2,2,2,2"]) == 1
        assert run(["enumerate", "--field", "prime:5", "--n", "2", "--a", "2"]) == 1
        assert run(["enumerate", "--field", "prime:5", "--n", "2", "--a", "2,x"]) == 1


ROOT = Path(__file__).resolve().parent.parent


def declared_script_command():
    """The `qci` console script of pyproject.toml, launched from this checkout.

    An installed console script imports the entry point's callable and exits
    with what it returns; this does the same in a fresh interpreter, with
    PYTHONPATH pointing at the checkout's `src` so no other copy of qci is run.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["qci"]
    module, attr = spec.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return [sys.executable, "-c", launcher], env


def assert_script_contract(command, env=None):
    script = subprocess.run(
        [*command, "example", "6.9"], capture_output=True, text=True, env=env
    )
    assert script.returncode == 0, script.stderr
    assert "all checks passed" in script.stdout, script.stderr
    # the exit code of `run` must reach the process, not only a success
    script = subprocess.run(
        [*command, "frobnicate"], capture_output=True, text=True, env=env
    )
    assert script.returncode == 1, script.stderr
    assert "error:" in script.stderr


def test_console_script_installed():
    assert_script_contract(*declared_script_command())


def test_python_dash_m():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert_script_contract([sys.executable, "-m", "qci"], env)


@pytest.mark.skipif(shutil.which("qci") is None, reason="no qci script on PATH")
def test_console_script_on_path():
    assert_script_contract([shutil.which("qci")])


def test_closed_stdout_ends_quietly():
    """A reader that stops after the first line closes the pipe mid-scan: the
    GF(29) scan writes about 1 MB, well past a pipe buffer.  The command then
    exits 1 with nothing on stderr, and no BrokenPipeError traceback."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["enumerate", "--field", "prime:29", "--n", "3", "--a", "4,4,4", "--allow-large"]
    scan = subprocess.Popen(
        [sys.executable, "-m", "qci", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert scan.stdout.readline().startswith(b"q12,q13,q23,")
    scan.stdout.close()
    try:
        stderr = scan.stderr.read()
        assert scan.wait(timeout=60) == 1
    finally:
        scan.kill()
        scan.stderr.close()
    assert stderr == b""
