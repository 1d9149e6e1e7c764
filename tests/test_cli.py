"""End-to-end command-line behavior: frozen output bytes and exit codes."""

import contextlib
import io
import json
import math
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
from importlib.metadata import PathDistribution
from pathlib import Path

import pytest

import tlbraid.cli as cli_module
import tlbraid.tl as tl_module
from tlbraid import (
    BraidWord,
    LaurentPoly,
    fibonacci_params,
    make_params,
    normalized_bracket,
    verify_model,
    verify_relations,
)
from tlbraid.braid import BRAID_MAX_STRANDS
from tlbraid.cli import main, parse_phase
from tlbraid.fibrep import MATRIX_MAX_N

TREFOIL = ["--strands", "2", "--word", "1 1 1"]
REPO = Path(__file__).resolve().parents[1]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_phase_forms():
    assert parse_phase("3pi/5") == pytest.approx(3 * math.pi / 5)
    assert parse_phase("pi/10") == pytest.approx(math.pi / 10)
    assert parse_phase("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_phase("2*pi") == pytest.approx(2 * math.pi)
    assert parse_phase("PI") == pytest.approx(math.pi)
    assert parse_phase("0.75") == 0.75
    assert parse_phase(" 1.5pi ") == pytest.approx(1.5 * math.pi)
    for text in ("tau/2", "nan", "inf", "-Infinity", "1e400", "9" * 400 + "pi", "pi/0"):
        with pytest.raises(ValueError):
            parse_phase(text)


def test_bracket_frozen_output():
    code, out, err = _run(["bracket", *TREFOIL])
    assert (code, err) == (0, "")
    assert out == "-1*A^5 + -1*A^-3 + 1*A^-7\n"


def test_bracket_normalized_frozen_output():
    code, out, _ = _run(["bracket", *TREFOIL, "--normalized"])
    assert code == 0
    assert out == "1*A^-4 + 1*A^-12 + -1*A^-16\n"


def test_bracket_identity_braid_gives_loop_power():
    code, out, _ = _run(["bracket", "--strands", "3", "--word", ""])
    assert code == 0
    assert out == "1*A^4 + 2 + 1*A^-4\n"


def test_bracket_oracle_and_both_agree():
    base = _run(["bracket", *TREFOIL])
    oracle = _run(["bracket", *TREFOIL, "--oracle"])
    both = _run(["bracket", *TREFOIL, "--both"])
    assert oracle == base
    assert both == base


def test_bracket_both_reports_a_disagreement(monkeypatch):
    wrong = LaurentPoly({1: 7})
    monkeypatch.setattr(cli_module, "bracket_state_sum", lambda word: wrong)
    for extra in ([], ["--json"]):
        tl_route = _run(["bracket", *TREFOIL, *extra])
        assert tl_route[0] == 0
        code, out, err = _run(["bracket", *TREFOIL, "--both", *extra])
        assert (code, out) == (1, tl_route[1])
        assert err == "cross-check FAILED: state sum disagrees with the algebra trace\n"


def test_bracket_normalized_same_on_every_route():
    for word in (BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)),
                 BraidWord(4, (1, 2, -3, 2, 2))):
        text = " ".join(map(str, word.letters))
        argv = ["bracket", "--strands", str(word.strands), "--word", text]
        expected = f"{normalized_bracket(word)}\n"
        for route in ([], ["--oracle"], ["--both"]):
            assert _run([*argv, *route, "--normalized"]) == (0, expected, "")


def test_bracket_json_payload():
    code, out, _ = _run(["bracket", *TREFOIL, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "strands": 2,
        "word": [1, 1, 1],
        "variable": "A",
        "terms": [[5, "-1"], [-3, "-1"], [-7, "1"]],
    }


def test_jones_frozen_outputs_both_handednesses():
    code, out, _ = _run(["jones", *TREFOIL])
    assert code == 0
    assert out == "1*t^1 + 1*t^3 + -1*t^4\n"
    code, out, _ = _run(["jones", "--strands", "2", "--word", "-1 -1 -1"])
    assert code == 0
    assert out == "1*t^-1 + 1*t^-3 + -1*t^-4\n"


def test_jones_hopf_half_powers():
    code, out, _ = _run(["jones", "--strands", "2", "--word", "1 1"])
    assert code == 0
    assert out == "-1*t^1/2 + -1*t^5/2\n"


def test_jones_json_payload():
    code, out, _ = _run(["jones", *TREFOIL, "--json"])
    payload = json.loads(out)
    assert (code, payload["variable"]) == (0, "q")
    assert payload["terms"] == [[16, "-1"], [12, "1"], [4, "1"]]


@pytest.mark.parametrize(
    "argv, record",
    [
        (
            ["bracket", *TREFOIL, "--json"],
            '{"strands": 2, "word": [1, 1, 1], "variable": "A", '
            '"terms": [[5, "-1"], [-3, "-1"], [-7, "1"]]}',
        ),
        (
            ["jones", *TREFOIL, "--json"],
            '{"strands": 2, "word": [1, 1, 1], "variable": "q", '
            '"terms": [[16, "-1"], [12, "1"], [4, "1"]]}',
        ),
        (
            ["eval", *TREFOIL, "--phase", "0", "--json"],
            '{"strands": 2, "word": [1, 1, 1], "phase": 0.0, "value": [-1.0, 0.0]}',
        ),
        (
            ["eval", *TREFOIL, "--phase", "0", "--normalized", "--json"],
            '{"strands": 2, "word": [1, 1, 1], "phase": 0.0, "value": [1.0, 0.0]}',
        ),
        (
            ["fib-matrix", "--n", "1", "--gen", "2", "--json"],
            '{"n": 1, "generator": 2, "kind": "tl", "dim": 2, "entries": '
            "[[1.0, 0.0], [0.7861513777574233, 0.0], [0.7861513777574233, 0.0], "
            "[0.6180339887498948, 0.0]]}",
        ),
    ],
    ids=["bracket", "jones", "eval", "eval-normalized", "fib-matrix"],
)
def test_json_record_bytes(argv, record):
    # key order is each record's contract; these values are integers or come
    # from sqrt and division alone, so every libm gives the same bits
    assert _run(argv) == (0, record + "\n", "")


def test_eval_unknot_normalized_is_one():
    code, out, _ = _run(
        ["eval", "--strands", "2", "--word", "1", "--phase", "3pi/5", "--normalized"]
    )
    assert code == 0
    assert out == "1+0j\n"


def test_eval_json_matches_text():
    args = ["eval", "--strands", "3", "--word", "1 -2 1 -2", "--phase", "pi/7"]
    code, out, _ = _run([*args, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == pytest.approx(math.pi / 7)
    value = complex(*payload["value"])
    code, text, _ = _run(args)
    assert code == 0
    assert complex(text.strip()) == pytest.approx(value, abs=1e-9)


def test_eval_normalized_is_the_library_normalized_bracket():
    rng = random.Random(0)
    for _ in range(40):
        strands = rng.randint(2, 4)
        letters = tuple(
            rng.choice((-1, 1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 9))
        )
        theta = rng.uniform(-7.0, 7.0)
        word = " ".join(map(str, letters))
        code, out, _ = _run(
            ["eval", "--strands", str(strands), "--word", word,
             f"--phase={theta!r}", "--normalized", "--json"]
        )
        want = normalized_bracket(BraidWord(strands, letters)).evaluate_phase(theta)
        assert code == 0, (strands, word)
        assert json.loads(out)["value"] == [want.real, want.imag], (strands, word)


def test_dims_table():
    code, out, _ = _run(["dims", "--max", "5"])
    assert code == 0
    assert out == "1 2\n2 3\n3 5\n4 8\n5 13\n"
    code, out, _ = _run(["dims", "--max", "20"])
    assert code == 0
    assert out.splitlines()[-1] == "20 17711"


def test_fib_matrix_text_one_label():
    code, out, _ = _run(["fib-matrix", "--n", "1", "--gen", "1"])
    assert code == 0
    assert out == "0 0\n0 1.61803398875\n"
    code, out, _ = _run(["fib-matrix", "--n", "1", "--gen", "2"])
    assert code == 0
    assert out == "1 0.786151377757\n0.786151377757 0.61803398875\n"


def test_fib_matrix_braid_is_complex_diagonal():
    code, out, _ = _run(["fib-matrix", "--n", "1", "--gen", "1", "--braid"])
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    top = complex(rows[0][0])
    bottom = complex(rows[1][1])
    a = complex(math.cos(3 * math.pi / 5), math.sin(3 * math.pi / 5))
    assert abs(top - a) < 1e-9
    assert abs(bottom - (-(a**-3))) < 1e-9
    assert rows[0][1] == rows[1][0] == "0+0j"


def test_fib_matrix_braid_refuses_right_end():
    # there is one window rule, so no command takes --right-end
    for command in (
        ["fib-matrix", "--n", "2", "--gen", "3", "--braid"],
        ["fib-matrix", "--n", "2", "--gen", "3"],
        ["fib-verify", "--n", "2"],
        ["verify", "--n", "2"],
    ):
        for rule in ("uniform", "literal"):
            code, out, err = _run([*command, "--right-end", rule])
            assert (code, out) == (2, ""), command
            assert "unrecognized arguments: --right-end" in err, command


@pytest.mark.parametrize(
    "argv, stray",
    [
        (["verify", "--n", "3", "--delta", "2"], "--delta 2"),
        (["fib-verify", "--n", "2", "--bogus"], "--bogus"),
        (["fib-matrix", "--n", "2", "--gen", "2", "--tol", "0"], "--tol 0"),
    ],
)
def test_stray_option_shows_the_command_usage(argv, stray):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: tlbraid {argv[0]} [-h] --n N ")
    assert err.endswith(f"tlbraid {argv[0]}: error: unrecognized arguments: {stray}\n")


def _readme_command_lines():
    """(argv, stdout or None) for each tlbraid line of the README's "Command
    line" block; a "# " line right after a command is its expected output."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    examples = []
    for line, following in zip(lines, [*lines[1:], ""]):
        if line.startswith("tlbraid "):
            want = following[2:] + "\n" if following.startswith("# ") else None
            examples.append((shlex.split(line, comments=True)[1:], want))
    return examples


def test_readme_command_lines_run():
    examples = _readme_command_lines()
    assert examples and any(want for _, want in examples)
    for argv, want in examples:
        code, out, err = _run(argv)
        assert code == 0, (argv, err)
        if want is not None:
            assert out == want, argv


def test_fib_matrix_json_payload():
    code, out, _ = _run(["fib-matrix", "--n", "2", "--gen", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "tl"
    assert payload["dim"] == 3
    assert len(payload["entries"]) == 9
    assert payload["entries"][8] == pytest.approx([(1 + math.sqrt(5)) / 2, 0.0])


def test_fib_verify_passes_both_signs():
    for extra in ([], ["--delta-sign", "-"]):
        code, out, _ = _run(["fib-verify", "--n", "3", *extra])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all relations hold at tol 1e-10"
        assert len(lines) == 9
        assert all(line.endswith("PASS") for line in lines[:-1])
        assert lines[0].startswith("U_i^2 = delta U_i")


def test_fib_verify_generic_delta_fails_jones_row():
    code, out, _ = _run(["fib-verify", "--n", "3", "--delta", "2.0"])
    assert code == 1
    fail_rows = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert any("U_i U_j U_i = U_i" in line for line in fail_rows)


def test_verify_tl_exact_suite():
    code, out, _ = _run(["verify", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all relations hold exactly"
    assert len(lines) == 5
    assert all("exact" in line and line.endswith("PASS") for line in lines[:-1])
    assert any("trace(U_i U_j) = trace(U_j U_i)" in line for line in lines)


def test_verify_fib_routes_to_numeric_suite():
    # fib-verify is the numeric suite; verify, the exact one, has no --module
    code, out, _ = _run(["fib-verify", "--n", "2", "--phase", "3pi/5"])
    assert code == 0
    assert out.splitlines()[-1] == "all relations hold at tol 1e-10"
    for module in ("fib", "tl"):
        code, out, err = _run(["verify", "--module", module, "--n", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: tlbraid verify ")
        assert err.endswith(f"error: unrecognized arguments: --module {module}\n")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fib_verify_json_report():
    code, out, _ = _run(["fib-verify", "--n", "3", "--json"])
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert set(payload) == {"n", "delta", "tol", "passed", "checks"}
    assert payload["n"] == 3 and payload["tol"] == 1e-10 and payload["passed"]
    assert payload["delta"] == pytest.approx((1 + math.sqrt(5)) / 2)
    _, text, _ = _run(["fib-verify", "--n", "3"])
    lines = text.splitlines()[:-1]
    assert len(payload["checks"]) == len(lines)
    for check, line in zip(payload["checks"], lines):
        assert line.startswith(check["name"] + " ")
    assert all(c["passed"] and 0.0 <= c["residual"] <= 1e-10 for c in payload["checks"])


def test_fib_verify_json_failures():
    code, out, _ = _run(["fib-verify", "--n", "3", "--delta", "2.0", "--json"])
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert not payload["passed"]
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert "U_i U_j U_i = U_i (|i-j| = 1)" in failing
    # products overflow to inf - inf at this loop value: NaN residuals
    code, out, _ = _run(["fib-verify", "--n", "3", "--delta", "1e200", "--json"])
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    nulls = [c for c in payload["checks"] if c["residual"] is None]
    assert nulls and not any(c["passed"] for c in nulls)


@pytest.mark.parametrize(
    "extra, params, code",
    [
        ([], fibonacci_params(1), 0),
        (["--delta-sign", "-"], fibonacci_params(-1), 0),
        (["--delta", "1.5"], make_params(1.5), 1),
    ],
)
def test_fib_verify_at_the_largest_size(extra, params, code):
    n = MATRIX_MAX_N
    got, out, _ = _run(["fib-verify", "--n", str(n), *extra, "--json"])
    assert got == code
    report = verify_model(n, params)
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["n"] == n and payload["passed"] == report.passed
    assert payload["checks"] == [
        {"name": c.name, "residual": c.residual, "passed": c.passed}
        for c in report.checks
    ]
    assert _run(["fib-verify", "--n", str(n), *extra])[0] == code


def test_verify_tl_json_report():
    for n in (1, 4, 12):
        argv = ["verify", "--n", str(n)]
        code, out, err = _run([*argv, "--json"])
        assert code == 0 and err == ""
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload == {
            "n": n,
            "delta": None,
            "tol": None,
            "passed": True,
            "checks": [
                {"name": c.name, "residual": c.residual, "passed": c.passed}
                for c in verify_relations(n).checks
            ],
        }
        lines = _run(argv)[1].splitlines()[:-1]
        assert len(lines) == len(payload["checks"])
        for check, line in zip(payload["checks"], lines):
            assert line.startswith(check["name"] + " ")
        # the exact suite takes no loop value: a fib-only option is refused
        code, out, err = _run([*argv, "--delta", "0.5", "--json"])
        assert (code, out) == (2, "") and "--delta" in err


@pytest.mark.parametrize(
    "extra, flags",
    [
        (["--delta", "0.5"], "--delta"),
        (["--delta-sign", "-"], "--delta-sign"),
        (["--phase", "pi/0"], "--phase"),
        (["--tol", "0"], "--tol"),
        (["--right-end", "uniform"], "--right-end"),
        (["--phase", "3pi/5", "--tol", "1e-3"], "--phase, --tol"),
    ],
)
def test_verify_tl_refuses_fib_only_options(extra, flags):
    # verify takes only --n and --json, so argparse refuses the rest
    for json_flag in ([], ["--json"]):
        argv = ["verify", "--n", "4", *extra, *json_flag]
        code, out, err = _run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: tlbraid verify [-h] --n N [--json]\n")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")
        assert all(flag in err for flag in flags.split(", "))


def test_verify_tl_range_message_names_no_flag():
    for n in ("0", "13"):
        code, out, err = _run(["verify", "--n", n])
        assert (code, out, err) == (2, "", "error: n must be in 1..12\n")


_PARAMS_COMMANDS = [
    ["fib-verify", "--n", "3"],
    ["fib-matrix", "--n", "1", "--gen", "1", "--braid"],
    ["fib-matrix", "--n", "1", "--gen", "1"],
]


@pytest.mark.parametrize("argv", _PARAMS_COMMANDS)
def test_empty_phase_is_refused(argv):
    for json_flag in ([], ["--json"]):
        assert _run([*argv, "--phase", "", *json_flag]) == (
            2,
            "",
            "error: bad phase '': use radians or a pi literal\n",
        )
    assert _run([*argv, "--phase", "3pi/5"])[0] == 0


@pytest.mark.parametrize("argv", [["eval", *TREFOIL], ["fib-verify", "--n", "3"]])
@pytest.mark.parametrize("text", [".pi", "+.pi", "-.pi"])
def test_bare_dot_numerator_is_a_bad_phase(argv, text):
    # a numerator with no digit is refused as any other unreadable phase
    assert _run([*argv, f"--phase={text}"]) == (
        2,
        "",
        f"error: bad phase '{text}': use radians or a pi literal\n",
    )
    assert _run([*argv, "--phase=.6pi"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", *TREFOIL, "--phase"],
        ["eval", *TREFOIL, "--normalized", "--json", "--phase"],
        ["fib-verify", "--n", "3", "--phase"],
        ["fib-matrix", "--n", "2", "--gen", "1", "--braid", "--phase"],
    ],
)
@pytest.mark.parametrize("value", ["-pi/2", "-3pi/5", "-0.5", "-.5"])
def test_negative_phase_after_a_space(argv, value):
    # argparse alone reads -pi/2 as an option; main joins it to --phase
    spaced = _run([*argv, value])
    assert spaced == _run([*argv[:-1], f"--phase={value}"])
    assert spaced[0] != 2 and spaced[1]


@pytest.mark.parametrize("command", [["bracket"], ["jones"], ["eval", "--phase=pi/5"]])
def test_negative_word_after_a_space(command):
    argv = [*command, "--strands", "3"]
    spaced = _run([*argv, "--word", "-1,-2"])
    assert spaced == _run([*argv, "--word=-1,-2"])
    assert spaced == _run([*argv, "--word", "-1 -2"])
    assert spaced[0] == 0 and spaced[1]


def test_negative_loop_value_and_tolerance_after_a_space():
    spaced = _run(["fib-verify", "--n", "3", "--delta", "-1e5"])
    assert spaced == _run(["fib-verify", "--n", "3", "--delta=-1e5"])
    assert spaced[0] == 1
    assert _run(["fib-verify", "--n", "3", "--tol", "-1e-3"]) == (
        2, "", "error: tol must be finite and >= 0, got -0.001\n"
    )
    assert _run(["fib-matrix", "--n", "2", "--gen", "1", "--delta", "-inf"]) == (
        2, "", "error: delta must be finite, got -inf\n"
    )


def test_negative_value_after_a_prefix_of_its_option():
    # argparse reads --ph as --phase and --w as --word, the one option of
    # the command that each begins; main joins the value to it
    argv = ["eval", "--strands", "2", "--word", "1"]
    spaced = _run([*argv, "--ph", "-pi/2"])
    assert spaced == _run([*argv, "--phase=-pi/2"])
    assert spaced[0] == 0 and spaced[1]
    spaced = _run(["bracket", "--strands", "3", "--w", "-1,-2", "--js"])
    assert spaced == _run(["bracket", "--strands", "3", "--word=-1,-2", "--json"])
    assert spaced[0] == 0 and spaced[1]
    # --del begins both --delta and --delta-sign: argparse's own error stays
    code, out, err = _run(["fib-verify", "--n", "3", "--del", "-1e5"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: tlbraid fib-verify ")
    assert "error: ambiguous option: --del could match --delta-sign, --delta\n" in err


def test_only_a_value_option_of_the_command_takes_a_dash_value():
    for argv, message in (
        (
            ["eval", *TREFOIL, "--phase", "--json"],
            "argument --phase: expected one argument",
        ),
        (
            ["eval", *TREFOIL, "--phase", "0", "--json", "-1"],
            "unrecognized arguments: -1",
        ),
        (
            ["fib-matrix", "--n", "1", "--gen", "1", "--tol", "-1e-3"],
            "unrecognized arguments: --tol -1e-3",
        ),
    ):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"usage: tlbraid {argv[0]} "), argv
        assert err.endswith(f"tlbraid {argv[0]}: error: {message}\n"), argv


@pytest.mark.parametrize("argv", _PARAMS_COMMANDS)
def test_delta_sign_with_delta_is_refused(argv):
    # the two loop-value options are one mutually exclusive argparse group
    for sign in ("+", "-"):
        for first, second in (("--delta", "--delta-sign"), ("--delta-sign", "--delta")):
            value = {"--delta": "1.5", "--delta-sign": sign}
            code, out, err = _run([*argv, first, value[first], second, value[second]])
            assert (code, out) == (2, "")
            assert err.startswith(f"usage: tlbraid {argv[0]} ")
            assert err.endswith(f"error: argument {second}: not allowed with argument {first}\n")
    # either one alone still runs: generic delta fails the relation suite
    assert _run([*argv, "--delta", "1.5"])[0] == (0 if "fib-matrix" in argv else 1)
    assert _run([*argv, "--delta-sign", "-"])[0] == 0
    code, out, _ = _run([argv[0], "--help"])
    assert code == 0 and "--delta-sign" in out and "overriding" not in out


def test_verify_tl_reports_a_failing_row(monkeypatch):
    # a wrong loop value breaks only the row that multiplies by it
    monkeypatch.setattr(tl_module, "delta", lambda: LaurentPoly({2: -1}))
    argv = ["verify", "--n", "4"]
    code, out, _ = _run(argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"{'U_i U_i = delta U_i':<48} {'differs':>12}  FAIL"
    assert all(line.endswith("exact  PASS") for line in lines[1:-1])
    assert lines[-1] == "some relations FAILED" and len(lines) == 5
    code, out, _ = _run([*argv, "--json"])
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert [(c["residual"], c["passed"]) for c in payload["checks"]] == [
        (None, False),
        (0.0, True),
        (0.0, True),
        (0.0, True),
    ]


def test_repeated_runs_are_byte_identical():
    for argv in (
        ["bracket", *TREFOIL, "--json"],
        ["jones", "--strands", "3", "--word", "1 -2 1 -2"],
        ["fib-verify", "--n", "4"],
        # the benchmark's size and loop values
        ["fib-verify", "--n", "12", "--json", "--delta-sign", "-"],
        ["fib-verify", "--n", "12", "--json", "--delta", "1.5"],
        ["verify", "--n", "4"],
        ["verify", "--n", "4", "--json"],
        ["fib-matrix", "--n", "3", "--gen", "2", "--braid"],
    ):
        assert _run(argv) == _run(argv)


def test_shared_parser_matches_a_fresh_one(monkeypatch):
    sequence = [
        ["bracket", "--strands", "2"],  # usage error: --word missing
        ["--help"],
        ["bracket", "--both", "--json", *TREFOIL],
        ["fib-verify", "--n", "3"],
        ["bracket", "--strands", "2", "--word", "1 x"],
        ["bracket", *TREFOIL],  # no flag of an earlier call carries over
    ]
    assert cli_module.build_parser() is cli_module.build_parser()
    shared = [_run(argv) for argv in sequence]
    monkeypatch.setattr(cli_module, "build_parser", cli_module.build_parser.__wrapped__)
    fresh = [_run(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2, 0]
    assert shared[0][2].startswith("usage: tlbraid bracket")
    assert shared[1][1].startswith("usage: tlbraid")
    assert shared[5] == (0, "-1*A^5 + -1*A^-3 + 1*A^-7\n", "")


def test_overflowing_loop_value_writes_no_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    for extra in ([], ["--json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "tlbraid.cli", "fib-verify", "--n", "3",
             "--delta", "1e200", *extra],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (1, ""), extra
        assert ("null" if extra else "nan") in proc.stdout


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_the_process_by_sigpipe():
    # about 290 kB of matrix text: the child is still writing when the
    # reader closes the pipe after one line
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    with subprocess.Popen(
        [sys.executable, "-m", "tlbraid.cli", "fib-matrix", "--n", "12", "--gen", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"1 0 0")
        proc.stdout.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert proc.stderr.read() == b""


def test_usage_errors_exit_two():
    for argv in (
        ["bracket", "--strands", "2", "--word", "0"],
        ["bracket", "--strands", "2", "--word", "2"],
        ["bracket", "--strands", "2", "--word", "x y"],
        ["dims", "--max", "0"],
        ["fib-matrix", "--n", "0", "--gen", "1"],
        ["fib-matrix", "--n", "1", "--gen", "5"],
        ["fib-verify", "--n", "2", "--delta", "0.3"],
        ["fib-verify", "--n=-1"],
        ["verify", "--n=-3"],
        ["eval", "--strands", "2", "--word", "1", "--phase", "nope"],
        ["eval", "--strands", "2", "--word", "1", "--phase", "pi/0", "--json"],
    ):
        code, _, err = _run(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_non_finite_parameters_exit_two():
    for argv in (
        ["fib-verify", "--n", "3", "--delta", "nan"],
        ["fib-verify", "--n", "3", "--delta", "inf"],
        ["fib-verify", "--n", "3", "--phase", "nan"],
        ["fib-verify", "--n", "3", "--delta", "nan", "--json"],
        ["fib-matrix", "--n", "2", "--gen", "1", "--delta", "inf"],
        ["fib-matrix", "--n", "2", "--gen", "1", "--braid", "--phase", "inf"],
        ["eval", *TREFOIL, "--phase", "nan"],
        ["eval", *TREFOIL, "--phase=-inf", "--json"],
        ["eval", *TREFOIL, "--phase", "1e400", "--normalized", "--json"],
    ):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "finite" in err, argv


def test_eval_refuses_a_phase_past_float_resolution():
    for phase in ("1e308", "1e300", "1e17", "-1e17"):
        for extra in ([], ["--json"], ["--normalized"]):
            code, out, err = _run(["eval", *TREFOIL, f"--phase={phase}", *extra])
            assert (code, out) == (2, ""), phase
            assert err.startswith(f"error: phase {float(phase)!r} too large"), phase
    # below 2^52 / 7 (7 is the trefoil bracket's largest exponent) it evaluates
    code, _, err = _run(["eval", *TREFOIL, "--phase", str(2.0**52 / 8)])
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "extra", [[], ["--normalized"]], ids=["bracket_via_tl", "normalized"]
)
@pytest.mark.parametrize("terms", [{0: 2**1244, 4: -1}, {0: 2**1023, 2: 2**1023}])
def test_eval_refuses_a_value_past_the_largest_double(monkeypatch, extra, terms):
    # the bracket of "1 -2" repeated 900 times on 3 strands has a 1244-bit
    # coefficient; a stand-in polynomial keeps the test fast, and the
    # monomial factor of --normalized keeps the coefficients' size
    monkeypatch.setattr(cli_module, "bracket_via_tl", lambda word: LaurentPoly(terms))
    for json_flag in ([], ["--json"]):
        code, out, err = _run(["eval", *TREFOIL, "--phase", "0", *extra, *json_flag])
        assert (code, out) == (2, "")
        assert err == "error: value at phase 0.0 overflows a double\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
def test_bad_tol_exits_two(tol):
    for argv in (
        ["fib-verify", "--n", "3", f"--tol={tol}"],
        ["fib-verify", "--n", "3", f"--tol={tol}", "--json"],
    ):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "tol" in err, argv


def test_dims_cap_rejects_before_any_work(monkeypatch):
    def no_work(n):
        raise AssertionError("dims computed a row past its cap check")

    monkeypatch.setattr(cli_module, "fib_dim", no_work)
    for top in (cli_module.DIMS_MAX_N + 1, 10**9):
        code, out, err = _run(["dims", "--max", str(top)])
        assert (code, out) == (2, ""), top
        assert err.startswith("error:") and str(cli_module.DIMS_MAX_N) in err
    monkeypatch.undo()
    code, out, _ = _run(["dims", "--max", str(cli_module.DIMS_MAX_N)])
    assert code == 0
    assert len(out.splitlines()) == cli_module.DIMS_MAX_N


def test_strand_cap_rejects_before_any_work(monkeypatch):
    def no_work(word):
        raise AssertionError("a bracket route ran past the strand cap")

    for name in ("bracket_via_tl", "bracket_state_sum", "jones_polynomial"):
        monkeypatch.setattr(cli_module, name, no_work)
    strands = str(BRAID_MAX_STRANDS + 1)
    for argv in (
        ["bracket", "--strands", strands, "--word", "1"],
        ["bracket", "--strands", strands, "--word", "1", "--oracle"],
        ["bracket", "--strands", "3000", "--word", "1", "--both"],
        ["jones", "--strands", "3000", "--word", "1"],
        ["eval", "--strands", "3000", "--word", "", "--phase", "pi/5"],
        ["eval", "--strands", "3000", "--word", "", "--phase", "0", "--normalized"],
    ):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and str(BRAID_MAX_STRANDS) in err, argv


def test_argparse_errors_exit_two():
    for argv in (
        ["no-such-command"],
        ["bracket", "--strands", "2"],
        ["fib-matrix", "--n", "1", "--gen", "1", "--right-end", "sideways"],
        [],
    ):
        code, _, _ = _run(argv)
        assert code == 2, argv


def test_oracle_cap_reported_as_input_error():
    word = " ".join(["1"] * 25)
    code, _, err = _run(["bracket", "--strands", "2", "--word", word, "--oracle"])
    assert code == 2
    assert "bracket_via_tl" in err
    code, _, _ = _run(["bracket", "--strands", "2", "--word", word])
    assert code == 0


def test_both_routes_refused_by_the_oracle_cap_before_any_tl_work(monkeypatch):
    def no_work(word):
        raise AssertionError("the TL route ran before the oracle's letter cap")

    monkeypatch.setattr(cli_module, "bracket_via_tl", no_work)
    word = " ".join(["1 -2"] * 12 + ["1"])
    code, out, err = _run(["bracket", "--strands", "3", "--word", word, "--both"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap is 24 letters" in err


def test_tl_state_cap_reported_as_input_error(monkeypatch):
    monkeypatch.setattr(tl_module, "STATE_MAX_DIAGRAMS", 10)
    word = ["--strands", "6", "--word", "1 2 3 4 5 1 2 3 4 5"]
    for command in ("bracket", "jones"):
        code, out, err = _run([command, *word])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "exceeds 10 diagrams" in err
    monkeypatch.setattr(tl_module, "STATE_MAX_BITS", 100)
    for command in ("bracket", "jones"):
        code, out, err = _run([command, *word])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "exceeds 100 bits" in err
    monkeypatch.undo()
    monkeypatch.setattr(tl_module, "WORD_MAX_WORK", 1000)
    for command in ("bracket", "jones"):
        code, out, err = _run([command, *word])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "work budget of 1000" in err


def _console_script(tmp_path):
    """Write the ``tlbraid`` console script that this checkout's packaging
    metadata declares into ``tmp_path/bin`` and return its directory.

    setuptools' ``egg_info`` reads ``pyproject.toml`` offline and writes the
    metadata under ``tmp_path``; the script is the standard wrapper around the
    declared ``console_scripts`` entry point.
    """
    pytest.importorskip("setuptools")
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    dist = PathDistribution(tmp_path / "tlbraid.egg-info")
    entries = dist.entry_points.select(group="console_scripts", name="tlbraid")
    assert len(entries) == 1, "pyproject.toml declares no tlbraid console script"
    (entry,) = entries
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "tlbraid"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    script.chmod(0o755)
    return bin_dir


def test_installed_console_script(tmp_path):
    exe = shutil.which("tlbraid", path=_console_script(tmp_path))
    assert exe is not None, "console script missing"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [exe, "jones", "--strands", "2", "--word", "1 1 1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1*t^1 + 1*t^3 + -1*t^4\n"
