import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import tropalg
from tropalg.mathpar.cli import main, run_cli
from tropalg.mathpar import interp
from tropalg.mathpar.interp import _COMMANDS, _Evaluator
from tropalg.mathpar.parser import MAX_NESTING

GOLDEN = Path(__file__).parent / "golden"
# The recorded block bank that the script-mix benchmark draws its scripts from.
BANK = Path(__file__).resolve().parents[1] / "bench" / "data" / "script_blocks.json"


def _load_differential():
    path = Path(__file__).resolve().parents[1] / "scripts" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The script generator of the differential tool; the command fuzz below
# draws its scripts, and other tests its tables.
differential = _load_differential()
SPACE_FORMS, NEAR_MAX, MAX_FLOAT, NINES = (
    differential.SPACE_FORMS, differential.NEAR_MAX, differential.MAX_FLOAT, differential.NINES,
)


def invoke(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "script", sorted(GOLDEN.glob("*.mp")), ids=lambda p: p.stem
)
def test_golden_scripts_match_their_fixtures(script, capsys):
    expected = script.with_suffix(".out").read_text()
    code, out, err = invoke(["run", str(script)], capsys)
    assert code == 0 and err == ""
    assert out == expected


def test_the_recorded_script_bank_replays(capsys):
    # Each block of the bank, run alone in process, prints its recorded
    # output; each error block prints its recorded output up to the error
    # (none for a syntax error) and stops there with the recorded message.
    bank = json.loads(BANK.read_text())
    for i, block in enumerate(bank["blocks"]):
        assert invoke(["eval", block["text"]], capsys) == (0, block["stdout"], ""), i
    for i, block in enumerate(bank["error_blocks"]):
        error = f"error: {block['error_line']}:{block['error_col']}: {block['error_message']}\n"
        assert invoke(["eval", block["text"]], capsys) == (1, block["stdout"], error), i
    assert bank["blocks"] and bank["error_blocks"]


def test_eval_mode(capsys):
    code, out, err = invoke(["eval", "SPACE = ZMinPlus[]; 2 + 3;"], capsys)
    assert (code, out, err) == (0, "2\n", "")


def test_stdin_mode(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"SPACE = ZMaxPlus[]; 2 + 3;\n"))
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = invoke([], capsys)
    assert (code, out, err) == (0, "3\n", "")


def test_script_error_goes_to_stderr_with_position(capsys):
    code, out, err = invoke(["eval", "SPACE = Nope[];"], capsys)
    assert code == 1 and out == ""
    assert err == "error: 1:1: unknown space Nope\n"


def test_partial_output_survives_a_late_error(capsys):
    code, out, err = invoke(
        ["eval", "SPACE = ZMaxPlus[]; 1 + 2;\n\\closure([[1]]);"], capsys
    )
    assert code == 1
    assert out == "2\n"
    assert err.startswith("error: 2:1:")


def test_missing_file_exits_two(capsys):
    code, out, err = invoke(["run", str(GOLDEN / "no_such_script.mp")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_file_that_is_not_utf8_is_a_positioned_error(tmp_path, capsys):
    script = tmp_path / "latin1.mp"
    script.write_bytes(b"x = 1;\xff")
    code, out, err = invoke(["run", str(script)], capsys)
    assert (code, out, err) == (1, "", "error: 1:7: unexpected character '\\udcff'\n")


def test_run_without_a_path_exits_two(capsys):
    code, _, err = invoke(["run"], capsys)
    assert code == 2 and "script path" in err


def test_eval_without_code_exits_two(capsys):
    code, _, err = invoke(["eval"], capsys)
    assert code == 2 and "code" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["eval", "-1;"], ""),
        (["eval", "--", "-1;"], ""),
        (["--trace-ops", "eval", "-1;"], "semiring ops: adds=0 muls=0\n"),
        (["eval", "-1;", "--trace-ops"], "semiring ops: adds=0 muls=0\n"),
    ],
)
def test_eval_takes_code_that_starts_with_a_minus(argv, err, capsys):
    assert invoke(argv, capsys) == (0, "-1\n", err)


def test_eval_of_a_lone_minus_is_a_positioned_error(capsys):
    code, out, err = invoke(["eval", "-;"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: 1:2: expected an expression, found ';'\n"


def invoke_main(argv, capsys, monkeypatch):
    """The exit status, stdout and stderr of the process entry point."""
    monkeypatch.setattr(sys, "argv", ["mathpar", *argv])
    with pytest.raises(SystemExit) as e:
        main()
    captured = capsys.readouterr()
    return e.value.code, captured.out, captured.err


USAGE = "usage: mathpar [run PATH | eval CODE] [options]\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "argument mode: invalid choice: 'frobnicate' (choose from 'run', 'eval')"),
        (["eval", "1;", "--bogus"], "unrecognized arguments: --bogus"),
        (["eval", "1;", "extra"], "unrecognized arguments: extra"),
        (["eval", "1;", "--format"], "argument --format: expected one argument"),
        (["eval", "1;", "--format", "bogus"],
         "argument --format: invalid choice: 'bogus' (choose from 'plain', 'latex')"),
    ],
    ids=["unknown-mode", "unknown-flag", "extra-word", "format-without-value", "unknown-format"],
)
def test_a_bad_command_line_is_a_usage_error(argv, message, capsys, monkeypatch):
    assert invoke_main(argv, capsys, monkeypatch) == (2, "", f"{USAGE}mathpar: error: {message}\n")


def test_format_takes_its_value_after_an_equals_sign(capsys, monkeypatch):
    result = invoke_main(["--format=latex", "eval", "[[1]];"], capsys, monkeypatch)
    assert result == (0, "\\begin{pmatrix} 1 \\end{pmatrix}\n", "")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_flag(flag, capsys, monkeypatch):
    code, out, err = invoke_main([flag], capsys, monkeypatch)
    assert (code, err) == (0, "") and out.startswith(USAGE)
    assert all(name in out for name in ("--format", "--show-objective", "--trace-ops"))


def test_latex_format_flag(capsys):
    code, out, _ = invoke(
        ["eval", "SPACE = ZMinPlus[]; \\closure([[0, 1], [2, 0]]);", "--format", "latex"],
        capsys,
    )
    assert code == 0
    assert out == "\\begin{pmatrix} 0 & 1 \\\\ 2 & 0 \\end{pmatrix}\n"


def test_show_objective_flag(capsys):
    script = GOLDEN / "09_simplex_max_r64.mp"
    code, out, _ = invoke(["run", str(script), "--show-objective"], capsys)
    assert code == 0
    assert out == "[8, 4, 0]\nobjective: 28\n"


def test_trace_ops_flag_reports_on_stderr(capsys):
    code, out, err = invoke(
        ["eval", "SPACE = ZMaxPlus[]; 2 + 3; 2 * 3;", "--trace-ops"], capsys
    )
    assert code == 0 and out == "3\n5\n"
    assert err == "semiring ops: adds=1 muls=1\n"


def test_trace_ops_counts_matrix_work(capsys):
    _, _, err = invoke(
        ["eval", "SPACE = ZMaxPlus[]; [[1, 2], [3, 0]] * [4, 3];", "--trace-ops"],
        capsys,
    )
    assert err == "semiring ops: adds=4 muls=4\n"


# The --trace-ops counts of each golden script. Counts are behaviour: a
# kernel that does other semiring work re-pins them here, with its formula.
GOLDEN_OP_COUNTS = {
    "01_scalar_add_mul_maxplus": (1, 1),
    "02_linear_equations_maxplus": (6, 8),
    "03_linear_inequalities_maxplus": (8, 8),
    "04_scalar_closure_maxplus": (0, 0),
    # A closure is one elimination: n (n - 1) adds and muls for each of
    # its n pivots, (4, 4) at n = 2.
    "05_matrix_closure_minplus": (4, 4),
    "06_matrix_closure_maxplus": (4, 4),
    # The closure of \searchLeastDistances costs (18, 18); the path's
    # one-column distances cost one add and one mul per finite edge into a
    # vertex that reaches the goal, (4, 4), and its one tight test one mul.
    "07_shortest_paths_minplus": (22, 23),
    "08_univariate_inequalities": (0, 0),
    "09_simplex_max_r64": (0, 0),
}


@pytest.mark.parametrize(
    "script", sorted(GOLDEN.glob("*.mp")), ids=lambda p: p.stem
)
def test_golden_scripts_keep_their_operation_counts(script, capsys):
    code, _, err = invoke(["run", str(script), "--trace-ops"], capsys)
    adds, muls = GOLDEN_OP_COUNTS[script.stem]
    assert code == 0
    assert err == f"semiring ops: adds={adds} muls={muls}\n"


@pytest.mark.parametrize(
    "script, err",
    [
        ("\\frobnicate(1);", "1:1: unknown command \\frobnicate"),
        ("SPACE = Q[x, y];", "1:1: space Q takes at most one variable, 2 given"),
        ("SPACE = ZMaxPlus[]; \\closure(1, 2);", "1:21: \\closure takes 1 argument(s), got 2"),
        (
            "SPACE = ZMaxPlus[]; \\BellmanEquation([[0]], [0], [0]);",
            "1:21: \\BellmanEquation takes 1 or 2 argument(s), got 3",
        ),
        ("SPACE = Q[]; \\closure(1);", "1:14: \\closure needs a tropical space, the current space is Q"),
        (
            "SPACE = ZMaxPlus[]; \\BellmanInequality([[1]], [0, 0]);",
            "1:21: matrix has 1 rows but the right-hand side has 2",
        ),
        (
            "SPACE = ZMaxPlus[]; \\BellmanEquation([[1]], [0, 0]);",
            "1:21: matrix has 1 rows but the right-hand side has 2",
        ),
        (
            "SPACE = ZMaxPlus[]; \\SimplexMax([[1]], [1], [1]);",
            "1:21: \\SimplexMax needs a classical space, the current space is ZMaxPlus",
        ),
        (
            "SPACE = R64[]; \\solve([x <= 1]);",
            "1:16: \\solve needs the space Q or Q[x], the current space is R64",
        ),
        ("SPACE = ZMaxPlus[]; \\solveLAETropic(1, [1]);", "1:37: the coefficient matrix must be a matrix"),
        ("SPACE = ZMaxPlus[]; \\solveLAITropic([[1]], 1);", "1:44: the right-hand side must be a matrix"),
        ("SPACE = ZMinPlus[]; \\searchLeastDistances(1);", "1:43: the adjacency matrix must be a matrix"),
        (
            "SPACE = R64MinPlus[]; \\findTheShortestPath([[0]], 0.5, 0);",
            "1:51: the start vertex must be an integer",
        ),
        (
            "SPACE = R64MinPlus[]; \\findTheShortestPath([[0]], 0, 0.5);",
            "1:54: the end vertex must be an integer",
        ),
        ("SPACE = ZMaxPlus[]; \\closure(());", "1:30: \\closure needs a scalar or a matrix"),
        (
            "SPACE = Q[]; \\SimplexMax(1, [1], [1]);",
            "1:26: constraint arguments must be matrices or the empty literal",
        ),
        ("SPACE = Q[]; \\SimplexMin([[1]], [1], 1);", "1:38: the objective must be a vector"),
        (
            "SPACE = Q[]; \\SimplexMax((), [1], [1]);",
            "1:14: a constraint matrix and its right-hand side must be empty together",
        ),
        (
            "SPACE = Q[]; \\SimplexMax([[1]], [[1, 2]], [1]);",
            "1:14: expected a column vector, got a 1x2 matrix",
        ),
        ("SPACE = Q[x]; \\solve(1);", "1:15: \\solve takes a list of inequalities"),
        ("SPACE = Q[x]; \\solve([x <= 1, 2]);", "1:31: \\solve takes a list of inequalities"),
        (
            "SPACE = ZMaxPlus[]; \\searchLeastDistances([[0]]);",
            "1:21: graphs are weighted over a min-plus algebra",
        ),
        # The evaluator's own checks, positioned at the node evaluated.
        ("SPACE = ZMaxPlus[]; 1 + zz;", "1:25: undefined variable 'zz'"),
        ("x = 1 < 2;", "1:7: inequalities are only meaningful inside \\solve"),
        ("SPACE = ZMaxPlus[]; [[1, 7/2]];", "1:26: 7/2 is not an element of an integer space"),
        (
            "SPACE = R64[]; x = 1" + "0" * 400 + ";",
            "1:20: 1" + "0" * 400 + " is not in the number domain F64",
        ),
        ("SPACE = Q[]; [1, \\infty];", "1:18: space Q has no infinite elements"),
        # Literal entries of plain number rows and lists, read in one loop.
        ("SPACE = ZMinPlus[]; [1, -2.5];", "1:25: -2.5 is not an element of an integer space"),
        ("SPACE = ZMaxPlus[]; [[0, 1], [3 / 4, 0]];", "1:31: 3/4 is not an element of an integer space"),
        ("SPACE = ZMaxPlus[]; [[0, \\infty]];", "1:26: +infinity is not an element of a max-plus algebra"),
        ("SPACE = QMaxPlus[]; [1, \u221e];", "1:25: +infinity is not an element of a max-plus algebra"),
        (
            "SPACE = R64MinPlus[]; [[0], [-\\infty]];",
            "1:30: -infinity is not an element of a min-plus algebra",
        ),
        ("SPACE = ZMinPlus[]; [2, \u2212 inf];", "1:25: -infinity is not an element of a min-plus algebra"),
        ("SPACE = Q[]; [[0, -\\infty]];", "1:19: space Q has no infinite elements"),
        ("SPACE = R64[]; [[1], [\\infty]];", "1:23: space R64 has no infinite elements"),
        (
            "SPACE = R64[]; [1, -1" + "0" * 400 + "];",
            "1:20: -1" + "0" * 400 + " is not in the number domain F64",
        ),
        (
            "SPACE = R64MaxPlus[]; [[0, 1" + "0" * 400 + "]];",
            "1:28: 1" + "0" * 400 + " is not in the number domain F64",
        ),
        ("SPACE = ZMaxPlus[]; x = 2; [[1, x], [0.5, 2]];", "1:38: 0.5 is not an element of an integer space"),
        ("SPACE = Q[]; -();", "1:14: cannot negate this value"),
        (
            "SPACE = ZMaxPlus[]; [[1]] - [[2]];",
            "1:27: matrix subtraction is not defined in a tropical space",
        ),
        ("SPACE = Q[]; [1] + 2;", "1:18: operator '+' does not apply to these operands"),
        ("SPACE = Q[]; [[1, [2]]];", "1:19: matrix entries must be scalars"),
        ("SPACE = Q[]; [(), 1];", "1:15: matrix entries must be scalars"),
    ],
)
def test_command_errors_keep_their_messages_and_positions(script, err, capsys):
    assert invoke(["eval", script], capsys) == (1, "", f"error: {err}\n")


def test_internal_failure_is_one_line_with_its_own_status(capsys, monkeypatch):
    def broken(a):
        raise RuntimeError("closure broke")

    monkeypatch.setattr(interp, "closure_block", broken)
    code, out, err = invoke(["eval", "SPACE = ZMaxPlus[]; \\closure([[0]]);"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: internal error: RuntimeError: closure broke\n"


@pytest.mark.parametrize(
    "space, a, b, want",
    [
        # 0.2 - 3.3 rounds to -3.0999999999999996, and 3.3 plus that is
        # above 0.2: a max-plus cap, so it moves down one float.
        ("R64MaxPlus", "3.3", "0.2", "[[-\\infty, -3.1]]"),
        ("R64MinPlus", "3.3", "0.2", "[[-3.0999999999999996, \\infty]]"),
        # 0.1 - 0.7 rounds to -0.6, and 0.7 plus that is below 0.1: a
        # min-plus cap, so it moves up one float.
        ("R64MaxPlus", "0.7", "0.1", "[[-\\infty, -0.6]]"),
        ("R64MinPlus", "0.7", "0.1", "[[-0.5999999999999999, \\infty]]"),
    ],
)
def test_float_residuation_answers_where_rounding_passes_b(space, a, b, want, capsys):
    script = f"SPACE = {space}[]; \\solveLAITropic([[{a}]], [{b}]);"
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, want + "\n", "")


def test_float_shortest_path_walks_the_distances_it_was_given(capsys):
    # Read off the closure, whose float sums round in another order, no
    # edge out of vertex 0 was tight and the walk failed an internal check.
    script = (
        "SPACE = R64MinPlus[]; A = [[0, 0.3, 0.7, \\infty], [0.2, 0, 0.3, \\infty], "
        "[0.1, \\infty, 0, 0.7], [0.3, \\infty, 0.7, 0]]; \\findTheShortestPath(A, 0, 3);"
    )
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, "[0, 1, 2, 3]\n", "")


def test_non_ascii_letter_is_a_positioned_error(capsys):
    code, out, err = invoke(["eval", "x = é;"], capsys)
    assert (code, out, err) == (1, "", "error: 1:5: unexpected character 'é'\n")


@pytest.mark.parametrize("script", [b"x = \xc3\xa9;", b"x = 1;\xff"], ids=["utf8", "not-utf8"])
def test_stdin_is_read_as_run_reads_a_file(script, tmp_path):
    # Under the C locale without UTF-8 mode, sys.stdin decodes ASCII, so a
    # text read of stdin would see the first byte of the é as '\udcc3'.
    src = str(Path(tropalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0", LC_ALL="C")
    env.pop("PYTHONIOENCODING", None)
    path = tmp_path / "script.mp"
    path.write_bytes(script)

    def mathpar(*args, stdin=b""):
        result = subprocess.run(
            [sys.executable, "-m", "tropalg.mathpar", *args],
            input=stdin,
            capture_output=True,
            env=env,
            timeout=60,
        )
        return result.returncode, result.stdout, result.stderr

    from_stdin = mathpar(stdin=script)
    assert from_stdin == mathpar("run", str(path))
    assert from_stdin[:2] == (1, b"")


def test_installed_entry_point_runs():
    result = subprocess.run(
        ["mathpar", "eval", "SPACE = ZMaxPlus[]; 2 + 3;"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


def test_module_entry_point_runs():
    src = str(Path(tropalg.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "tropalg.mathpar", "eval", "SPACE = ZMaxPlus[]; 2 + 3;"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "3\n", "")


def test_cli_import_loads_no_code_generation_machinery():
    # Every script is answered by a fresh process, which pays for each
    # module the CLI imports: dataclasses and the modules it pulls in cost
    # more than tropalg's own, and argparse with gettext about 3 ms.
    src = str(Path(tropalg.__file__).resolve().parents[1])
    heavy = ["dataclasses", "inspect", "ast", "dis", "argparse", "gettext"]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, tropalg.mathpar.cli; "
         f"print(sorted(m for m in {heavy!r} if m in sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_layers_script_records_the_closure_count_n2_n_minus_1(tmp_path):
    # The elimination's n (n - 1) multiplications at each of n pivots, as
    # the --quick run's closure row at n = 8 counts them, beside its time.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "layers.json"
    result = subprocess.run(
        [sys.executable, "scripts/layers.py", "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    rows = {row["name"]: row for row in json.loads(out.read_text())["rows"]}
    head = rows["closure_block ZMaxPlus n=8"]["head"]
    assert (head["adds"], head["muls"]) == (448, 448) == (8 * 8 * 7,) * 2
    assert head["best_s"] > 0
    assert "base" not in rows["closure_block ZMaxPlus n=8"]


def test_layers_script_times_two_trees_as_its_usage_line_says(tmp_path):
    root = Path(__file__).resolve().parents[1]
    script = "scripts/layers.py"
    assert f"python3 {script} [--base REF] [--out FILE]" in (root / script).read_text()
    out = tmp_path / "layers.json"
    result = subprocess.run(
        [sys.executable, script, "--quick", "--base", "HEAD", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    meta, rows = data["meta"], data["rows"]
    assert meta["k"] == 3 and meta["quick"] and meta["head"].startswith("src tree ")
    assert meta["base"]["revision"] == "HEAD" and len(meta["base"]["commit"]) == 40
    names = [row["name"] for row in rows]
    assert names[:4] == ["script.tokenize", "script.parse", "script.evaluate", "script.run_cli"]
    assert "closure_block ZMaxPlus n=9" in names and "simplex_solve 5x5" in names
    for row in rows:
        for side in ("head", "base"):
            assert 0 < row[side]["best_s"] <= row[side]["median_s"], row
            assert type(row[side]["adds"]) is int and type(row[side]["muls"]) is int
        assert type(row["same_result"]) is bool
    # One line a row, after the header.
    assert len(result.stdout.splitlines()) == len(rows) + 1


def test_differential_script_runs_generated_scripts_as_the_calculator_answers_them():
    scripts = differential.generate(30, seed=1)
    assert scripts == differential.generate(30, seed=1)
    assert {re.search(r"\\(\w+)\(", s).group(1) for s in scripts} <= set(_COMMANDS)
    runs = [(s, flags) for s in scripts for flags in differential.FLAG_SETS]
    with differential.Worker(Path(tropalg.__file__).resolve().parents[1]) as worker:
        results = [worker.run(s, flags) for s, flags in runs]
    assert {code for code, _, _ in results} == {0, 1}
    for (script, flags), result in zip(runs, results):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["eval", script, *flags])
        assert result == (code, out.getvalue(), err.getvalue()), (script, flags)


def test_differential_deals_the_command_table_of_its_own_checkout(tmp_path):
    # Another tropalg first on PYTHONPATH, one that cannot be imported, is
    # never read by the generator.
    (tmp_path / "tropalg").mkdir()
    (tmp_path / "tropalg" / "__init__.py").write_text("raise ImportError('another tree')\n")
    tool = Path(__file__).resolve().parents[1] / "scripts" / "differential.py"
    code = (f"import runpy; cases = runpy.run_path({str(tool)!r})['cases']; import tropalg; "
            "print(len(cases()), tropalg.__file__)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                            timeout=60)
    assert result.returncode == 0, result.stderr
    count, where = result.stdout.split()
    assert int(count) == len(differential.cases())
    assert Path(where).resolve() == Path(tropalg.__file__).resolve()


def test_differential_expect_ops_excuses_the_ops_line_alone(capsys):
    # Two runs of one Bellman script: one differs only in the ops line,
    # the other in stdout too. --expect-ops excuses the first only;
    # --expect excuses the whole script.
    script = "SPACE = ZMaxPlus[]; \\BellmanEquation([[1]], [0]);"
    flags = differential.FLAG_SETS[0]
    ops = "semiring ops: adds={} muls={}\n".format
    ops_only = (script, flags, (0, "[0]\n", ops(3, 3)), (0, "[0]\n", ops(2, 2)))
    stdout = (script, flags, (0, "[0]\n", ops(3, 3)), (0, "[1]\n", ops(3, 3)))
    assert differential.report([ops_only, stdout], [], [r"\\Bellman"]) == 1
    out = capsys.readouterr().out
    assert "differences:  1, and 1 expected" in out
    assert out.index("\ndifference,") < out.index("'[1]\\n'") < out.index("expected difference,")
    assert differential.report([ops_only], [], [r"\\Bellman"]) == 0
    assert differential.report([ops_only], [], [r"\\Simplex"]) == 1
    assert differential.report([ops_only], [], []) == 1
    assert differential.report([ops_only, stdout], [r"\\Bellman"], []) == 0
    # Exit status and the rest of stderr are compared too.
    error = (script, flags, (1, "", "error: 1:1: one\n"), (1, "", "error: 1:1: two\n"))
    assert differential.report([error], [], [r"\\Bellman"]) == 1


def test_differential_flag_sets_show_an_objective_and_latex():
    script = "SPACE = Q[]; \\SimplexMax([[1, 2]], [4], [1, 1]);"
    with differential.Worker(Path(tropalg.__file__).resolve().parents[1]) as worker:
        plain, latex = (worker.run(script, flags) for flags in differential.FLAG_SETS)
    assert plain == (0, "[4, 0]\nobjective: 4\n", "semiring ops: adds=0 muls=0\n")
    assert latex == (0, "\\begin{pmatrix} 4 \\\\ 0 \\end{pmatrix}\n", "")


def test_differential_report_sets_expected_differences_apart(capsys):
    flags = differential.FLAG_SETS[0]
    same, other = (0, "1\n", ""), (1, "", "error: 1:1: no\n")
    runs = [
        ("\\closure(1);", flags, same, same),
        ("\\BellmanInequality([[1]], [0, 0]);", flags, same, other),
        ("\\BellmanEquation([[1]], [0, 0]);", flags, same, other),
    ]
    assert differential.report(runs, [r"\\BellmanInequality"]) == 1
    assert "differences:  1, and 1 expected" in capsys.readouterr().out
    assert differential.report(runs, [r"\\Bellman"]) == 0
    out = capsys.readouterr().out
    assert "differences:  0, and 2 expected" in out
    assert out.count("expected difference, --trace-ops --show-objective: ") == 2


# ---- deep and long expressions ----

DEEP = 5000


def test_long_sum_evaluates(capsys):
    code, out, err = invoke(["eval", "+".join(["1"] * DEEP) + ";"], capsys)
    assert (code, out, err) == (0, f"{DEEP}\n", "")


def test_long_product_evaluates(capsys):
    script = "SPACE = ZMaxPlus[]; " + " * ".join(["1"] * DEEP) + ";"
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, f"{DEEP}\n", "")


def test_long_sum_inside_solve_evaluates(capsys):
    terms = " + ".join(["x"] + ["1"] * (DEEP - 1))
    code, out, err = invoke(["eval", f"SPACE = Q[x]; \\solve([{terms} <= 0]);"], capsys)
    assert (code, out, err) == (0, f"(-\\infty, {1 - DEEP}]\n", "")


def test_long_run_of_unary_minus_evaluates(capsys):
    script = "SPACE = ZMaxPlus[]; " + "-" * DEEP + "1; " + "-" * (DEEP + 1) + "1;"
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, "1\n-1\n", "")


@pytest.mark.parametrize(
    "opening, closing",
    [("(", ")"), ("-(", ")"), ("\\closure(", ")"), ("[", "]")],
    ids=["parentheses", "negations", "closures", "brackets"],
)
def test_nesting_past_the_limit_is_a_positioned_error(opening, closing, capsys):
    prefix = "SPACE = ZMaxPlus[]; "
    script = prefix + opening * DEEP + "1" + closing * DEEP + ";"
    code, out, err = invoke(["eval", script], capsys)
    col = len(prefix) + len(opening) * (MAX_NESTING + 1)
    assert (code, out) == (1, "")
    assert err == f"error: 1:{col}: nesting deeper than {MAX_NESTING} levels\n"


@pytest.mark.parametrize(
    "opening, leaf, closing, want",
    [
        ("(", "1", ")", "1"),
        ("-(", "1", ")", "1"),
        ("\\closure(", "A", ")", "[0]"),
        ("\\closure(A + ", "A", ")", "[0]"),
        ("\\solveLAETropic(A + ", "A", ", b)", "[0]"),
    ],
    ids=["parentheses", "negations", "closures", "closure-sums", "equations"],
)
def test_nesting_at_the_limit_evaluates(opening, leaf, closing, want, capsys):
    script = "SPACE = ZMaxPlus[]; A = [[0]]; b = [0]; "
    script += opening * MAX_NESTING + leaf + closing * MAX_NESTING + ";"
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, want + "\n", "")


@pytest.mark.parametrize(
    "opening, closing, frames",
    [
        ("(", ")", 0),
        ("-(", ")", 0),
        ("\\closure(", ")", 1),
        ("\\solveLAETropic(A + ", ", b)", 2),
        ("\\BellmanEquation(", ")", 1),
        # eval and, before Python 3.12 inlined them, the list comprehension.
        ("[", "]", 2 if sys.version_info < (3, 12) else 1),
    ],
    ids=["parentheses", "negations", "closures", "equations", "bellman", "lists"],
)
def test_each_nesting_level_costs_the_evaluator_at_most_four_frames(
    opening, closing, frames, monkeypatch
):
    # Parsing takes at most four frames a level too, which keeps
    # MAX_NESTING levels inside the default recursion limit.
    depths = []
    binding = _Evaluator.binding

    def spy(self, node):
        if node.name == "z":  # the innermost operand, read once per script
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)
        return binding(self, node)

    monkeypatch.setattr(_Evaluator, "binding", spy)
    prefix = "SPACE = ZMaxPlus[]; A = [[0]]; b = [0]; z = [[0]]; "
    for levels in (10, 11):
        run_quietly(prefix + opening * levels + "z" + closing * levels + ";")
    assert len(depths) == 2 and depths[1] - depths[0] == frames <= 4


# ---- numbers of any length ----


SEVENS = "7" * 3000
FIVES = "5" * 5000
TWICE_NINES = "1" + "9" * 4299 + "8"  # NINES + NINES


@pytest.mark.parametrize(
    "script, want",
    [
        (f"SPACE = ZMaxPlus[]; x = {NINES}; x * x;", (0, TWICE_NINES + "\n", "")),
        (f"x = {SEVENS}; x * x;", (0, str(Decimal(int(SEVENS) ** 2)) + "\n", "")),
        (f"SPACE = ZMaxPlus[]; x = {NINES}; \\closure(x * x);", (0, "\\infty\n", "")),
        (
            f"SPACE = ZMaxPlus[]; [[{FIVES}, -{FIVES}, -\\infty]];",
            (0, f"[[{FIVES}, -{FIVES}, -\\infty]]\n", ""),
        ),
        (
            f"SPACE = ZMinPlus[]; x = {NINES}; "
            "\\findTheShortestPath([[0, 1], [1, 0]], 0, x * x);",
            (1, "", f"error: 1:{len(NINES) + 27}: vertex {TWICE_NINES} is outside 0..1\n"),
        ),
        (
            "x = 1/" + "0" * 4400 + ";",
            (1, "", "error: 1:5: rational literal with zero denominator\n"),
        ),
    ],
    ids=["tropical-product", "rational-square", "closure", "row", "path-vertex", "zero-denominator"],
)
def test_numbers_of_any_length_print(script, want, capsys):
    assert invoke(["eval", script], capsys) == want


ONES = "1" * 5000  # past the 4300 digits Python converts from text by default
NOT_F64 = "is not in the number domain F64"


@pytest.mark.parametrize(
    "space, literal, want",
    [
        ("Q", ONES, ONES),
        ("Q", f"{ONES}/3", f"{ONES}/3"),
        ("Q", f"1.{ONES}", f"1{ONES}/1{'0' * 5000}"),
        ("ZMaxPlus", ONES, ONES),
        ("ZMaxPlus", f"{ONES}/3", f"{ONES}/3 is not an element of an integer space"),
        ("ZMaxPlus", f"1.{ONES}", f"1.{ONES} is not an element of an integer space"),
        ("R64", ONES, f"{ONES} {NOT_F64}"),
        ("R64", f"{ONES}/3", f"{ONES}/3 {NOT_F64}"),
        ("R64", f"1.{ONES}", "1.1111111111111112"),
    ],
    ids=[f"{space}-{kind}" for space in ("Q", "ZMaxPlus", "R64") for kind in ("int", "rat", "dec")],
)
def test_literals_of_any_length_are_read_exactly(space, literal, want, capsys):
    prefix = f"SPACE = {space}[]; "
    code, out, err = invoke(["eval", f"{prefix}{literal};"], capsys)
    if code == 0:
        assert (out, err) == (want + "\n", "")
    else:
        assert (code, out, err) == (1, "", f"error: 1:{len(prefix) + 1}: {want}\n")
    assert "set_int_max_str_digits" not in err


def test_long_literal_inside_solve_is_read_exactly(capsys):
    code, out, err = invoke(["eval", f"SPACE = Q[x]; \\solve([3 * x <= {ONES}]);"], capsys)
    assert (code, out, err) == (0, f"(-\\infty, {ONES}/3]\n", "")


@pytest.mark.parametrize("command", ["BellmanEquation", "BellmanInequality"])
def test_r64_bellman_answers_where_the_closure_rounds_off_its_fixed_point(command, capsys):
    # The answer is the exact A^x b rounded once: x_2 = -7/3 - 2 on the
    # float -7/3 is a tie and rounds to even, and x_1 = 1 + x_2 on the
    # exact x_2 is the float -3.3333333333333335, where float sums, which
    # round x_2 first, gave -3.333333333333334.
    script = ("SPACE = R64MinPlus[]; "
              f"\\{command}([[0, \\infty, \\infty], [1, 0, 1], [-7/3, 3, 0]], [-2, 3, 3]);")
    code, out, err = invoke(["eval", script], capsys)
    assert (code, out, err) == (0, "[-2, -3.3333333333333335, -4.333333333333334]\n", "")


# ---- fuzzing ----


def run_quietly(script):
    """run_cli on a script read from stdin, which no argument parsing sees."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(script.encode()))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli([])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def assert_answered_or_positioned(script):
    code, _, err = run_quietly(script)
    assert code in (0, 1), (script, err)
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(r"error: \d+:\d+: [^\n]+\n", err), (script, err)


FRAGMENTS = [
    "SPACE = ZMinPlus[]; ", "SPACE = QMinPlus[]; ", "SPACE = R64MinPlus[]; ", "SPACE = Q[x]; ",
    "x", "A", "=", ";", ",", "(", ")", "[", "]", "[[", "]]", "+", "-", "*", "<=", "≥", "−", "∞",
    "0", "1", "7", "1/2", "3/0", "0.3", "\\infty", "inf", "\\closure(", "\\solve(",
    "\\findTheShortestPath(", "\\searchLeastDistances(", "\\SimplexMax(", "\\", "#",
    "\n", " ", "é", "ß", "Ω", "٣", "²", "۷", "x٣", "_", "$", "\"",
]


@seed(6)
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="0123456789 ;,.=+-*/()[]<>_#\\\nAxé٣²ΩßSPACE∞≤−", max_size=30),
        st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join),
    )
)
def test_any_text_is_answered_or_a_positioned_error(text):
    assert_answered_or_positioned(text)


WEIGHTS = {
    "ZMinPlus": ["0", "1", "5", "\\infty", "-1", "0.5"],
    "QMinPlus": ["0", "1/2", "3", "7/3", "\\infty", "-1/2"],
    "R64MinPlus": ["0.1", "0.2", "0.3", "0.7", "1" + "0" * 308 + ".0", "\\infty", "-0.2"],
}  # the first four of each are valid off-diagonal entries


@st.composite
def path_scripts(draw):
    """A small min-plus matrix, each entry a valid graph entry or any weight,
    and a query between vertices that may lie outside it."""
    space = draw(st.sampled_from(sorted(WEIGHTS)))
    weights = WEIGHTS[space]
    n = draw(st.integers(1, 5))

    def entry(i, j):
        if draw(st.booleans()):
            return "0" if i == j else draw(st.sampled_from(weights[:4]))
        return draw(st.sampled_from(weights))

    rows = ", ".join("[" + ", ".join(entry(i, j) for j in range(n)) + "]" for i in range(n))
    start, goal = draw(st.integers(-1, n)), draw(st.integers(-1, n))
    return (f"SPACE = {space}[]; A = [{rows}]; "
            f"\\findTheShortestPath(A, {start}, {goal}); \\searchLeastDistances(A);")


@seed(7)
@settings(max_examples=400, deadline=None)
@given(path_scripts())
def test_path_commands_on_small_matrices_answer_or_report_a_position(script):
    assert_answered_or_positioned(script)


@st.composite
def command_scripts(draw):
    """A script of the differential tool's generator: one (command, arity,
    space) case and the tool's operands, drawn through a seeded random."""
    case = draw(st.sampled_from(differential.cases()))
    return differential._script(draw(st.randoms(use_true_random=False)), *case)


@seed(8)
@settings(max_examples=600, deadline=None)
@given(command_scripts())
def test_every_command_answers_or_reports_a_position(script):
    assert_answered_or_positioned(script)


def test_the_fuzz_draws_every_command_of_the_table():
    assert set(differential.SHAPES) | {"SimplexMax", "SimplexMin"} == set(_COMMANDS)


def without_positions(result):
    code, out, err = result
    return code, out, re.sub(r"^error: \d+:\d+: ", "error: ", err)


@pytest.mark.parametrize("space", SPACE_FORMS)
def test_subtraction_is_the_operator_on_the_negated_operand(space):
    # a - b is a * (-b) tropically and a + (-b) classically, overflow and
    # illegal infinities included.
    op = "*" if "Plus" in space else "+"
    operands = ["0", "3", "-2", "1/2", "-7/3", "0.1", "2.5", NEAR_MAX, "-" + NEAR_MAX,
                MAX_FLOAT, "-" + MAX_FLOAT, "\\infty", "-\\infty"]
    for a, b in itertools.product(operands, repeat=2):
        # Bound to names, so that no minus folds into a literal.
        prefix = f"SPACE = {space}; p = {a}; q = {b}; "
        difference = run_quietly(prefix + "p - q;")
        expected = run_quietly(prefix + f"p {op} (-q);")
        assert without_positions(difference) == without_positions(expected), (a, b)


@pytest.mark.parametrize(
    "statement, col", [("a - (-a);", 3), ("a + a;", 3), ("[[a]] - [[-a]];", 7)]
)
def test_classical_float_overflow_is_an_error_at_the_operator(statement, col, capsys):
    prefix = f"SPACE = R64[]; a = {NEAR_MAX};\n"
    code, out, err = invoke(["eval", prefix + statement], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: 2:{col}: float overflow produced an illegal infinity\n"


@pytest.mark.parametrize("flags", [[], ["--show-objective"]])
@pytest.mark.parametrize(
    "a, c", [("0.5", "1"), ("1", "2")], ids=["optimum", "objective-only"]
)
def test_simplex_answer_that_overflows_a_float_is_an_error_at_the_command(a, c, flags, capsys):
    script = f"SPACE = R64[]; \\SimplexMax([[{a}]], [{MAX_FLOAT}], [{c}]);"
    code, out, err = invoke(["eval", script, *flags], capsys)
    assert (code, out) == (1, "")
    assert err == "error: 1:16: float overflow produced an illegal infinity\n"
