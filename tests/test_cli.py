import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale import adversary, analysis
from speedscale.adversary import eval_lower_bound, lower_bound_ratio
from speedscale.cli import LOWERBOUND_COLUMNS, _fmt, main
from speedscale.model import INFINITE, Instance, Job, PowerLaw, dumps_instance

from conftest import k_scan

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "two_jobs.jsonl"
    path.write_text('{"id":0,"arrival":1,"value":4.0,"deadline":1}\n'
                    '{"id":1,"arrival":1,"value":4.0,"deadline":"inf"}\n')
    return str(path)


class TestSimulate:
    def test_csv_row(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "min-lcr",
                               "--instance", instance_file, "--no-header")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "label,alpha,policy,off,alg,ratio,max_lcr"
        cells = row.split(",")
        assert cells[3] == "6" and cells[4] == "4" and cells[5] == "1.5"

    def test_json_has_ledger(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "sim-lcr",
                               "--instance", instance_file, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["policy"] == "sim-lcr"
        assert obj["per_slot_lcr"][0]["slot"] == 1

    def test_unknown_policy_exits_2(self, capsys, instance_file):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "foo",
                               "--instance", instance_file)
        assert code == 2
        assert "min-lcr" in err and "sim-lcr" in err and "greedy" in err

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":0,"arrival":1,"value":1.0,"deadline":1}\n{oops\n')
        code, _, err = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                               "--instance", str(bad))
        assert code == 2 and "line 2" in err

    def test_refused_job_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":0,"arrival":1,"value":1.0,"deadline":1}\n'
                       '{"id":1,"arrival":0,"value":1.0,"deadline":1}\n')
        assert run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                       "--instance", str(bad)) == (
            2, "", "error: bad instance file: line 2: arrival must be an integer slot >= 1, got 0\n")

    def test_ratio_above_the_ledger_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "offline_profit", lambda instance, cost: 1e9)
        assert run_cli(capsys, "simulate", "--gen", "alpha2-lb:z=3", "--alpha", "2.5",
                       "--policy", "min-lcr") == (
            1, "", "verification failure: [lcr-ledger-soundness] empirical ratio exceeds the "
            "per-slot LCR certificate (label='alpha2-lb:z=3', policy='min-lcr', "
            "ratio=200000000.0, max_lcr=2.268629150101524)\n")

    def test_empty_file_ratio_one(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "min-lcr",
                               "--instance", str(empty), "--no-header")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "0" and row[4] == "0" and row[5] == "1"

    def test_requires_exactly_one_source(self, capsys, instance_file):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy")
        assert code == 2 and "--instance or --gen" in err
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                             "--instance", instance_file, "--gen", "random:n=3")
        assert code == 2

    def test_generator_specs(self, capsys):
        for gen in ("random:n=6", "heavy-tail:n=6", "alpha2-lb:z=5,k=2"):
            code, out, err = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                                     "--gen", gen, "--no-header")
            assert code == 0, (gen, err)
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "3", "--policy", "greedy",
                             "--gen", "sqrt2-lb:k=1", "--no-header")
        assert code == 0

    def test_bad_generator_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                             "--gen", "alpha2-lb")
        assert code == 2
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                             "--gen", "wat:z=1")
        assert code == 2

    def test_alpha_below_one_exits_2(self, capsys, instance_file):
        code, _, _ = run_cli(capsys, "simulate", "--alpha", "0.5", "--policy", "greedy",
                             "--instance", instance_file)
        assert code == 2

    @pytest.mark.parametrize("gen", ["random:n=abc", "random:n=0", "random:m=5",
                                     "alpha2-lb:z=4,k=9", "sqrt2-lb:k=5"])
    def test_bad_generator_parameter_exits_2(self, capsys, gen):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "3", "--policy", "greedy",
                                 "--gen", gen, "--no-header")
        assert code == 2 and out == "" and err.startswith("error: ")

    # int() reads each of these as a count; only ASCII decimal digits are one
    @pytest.mark.parametrize("digits", ["1_0", " 2", "+3", "\u0663", "4 ", "0x5", "6.0", ""],
                             ids=["underscore", "leading-space", "plus", "arabic-indic",
                                  "trailing-space", "hex", "float", "empty"])
    def test_fixed_count_in_ascii_digits_only(self, capsys, digits):
        code, out, err = run_cli(capsys, "game", "--alpha", "2", "--z", "5",
                                 "--policy", f"fixed:{digits}")
        assert code == 2 and out == ""
        assert err == (f"error: bad fixed policy 'fixed:{digits}': "
                       f"invalid literal for int() with base 10: {digits!r}\n")

    # the generator spec strips spaces around its keys and values itself
    @pytest.mark.parametrize("digits", ["1_0", "+3", "\u0663", "1 0", "0x5", "6.0"],
                             ids=["underscore", "plus", "arabic-indic", "inner-space",
                                  "hex", "float"])
    def test_generator_count_in_ascii_digits_only(self, capsys, digits):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "2", "--policy", "greedy",
                                 "--gen", f"random:n={digits}", "--no-header")
        assert code == 2 and out == ""
        assert err == f"error: generator parameter n must be an integer, got {digits!r}\n"

    @pytest.mark.parametrize("argv, message", [
        (("game", "--alpha", "2", "--z", "5", "--policy", "fixed:-3"),
         "bad fixed policy 'fixed:-3': fixed count must be >= 1, got -3"),
        (("simulate", "--alpha", "2", "--policy", "greedy", "--gen", "random:n=-3"),
         "generator parameter n must be >= 1, got -3"),
    ], ids=["fixed", "gen"])
    def test_negative_count_keeps_range_message(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err == f"error: {message}\n"

    def test_leading_zero_is_the_same_count(self, capsys):
        runs = [run_cli(capsys, "game", "--alpha", "2", "--z", "5", "--policy", policy)
                for policy in ("fixed:3", "fixed:03")]
        assert runs[0][0] == 0 and runs[0] == runs[1]

    def test_infinite_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alpha", "inf", "--policy", "greedy",
                               "--gen", "random:n=5")
        assert code == 2 and "finite" in err

    # at alpha=650, g(3) overflows; min-lcr evaluates it to test whether a
    # third job is profitable once a view's top two beat c_2, which
    # random:n=10 reaches at seed 0
    @pytest.mark.parametrize("alpha,policy,gen", [
        pytest.param("2000", "greedy", "random:n=5", id="2000-greedy"),
        pytest.param("650", "min-lcr", "random:n=10", id="650-min-lcr")])
    def test_overflowing_alpha_exits_2(self, capsys, alpha, policy, gen):
        code, out, err = run_cli(capsys, "simulate", "--alpha", alpha, "--policy", policy,
                                 "--gen", gen)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "overflows" in err and f"alpha={alpha}" in err

    def test_cost_past_every_load_is_never_evaluated(self, capsys):
        # random:n=5 never loads a slot past 2 jobs and shows min-lcr no view
        # of 5, so g(4), which overflows at alpha=600, is never needed
        code, out, err = run_cli(capsys, "simulate", "--alpha", "600", "--policy", "min-lcr",
                                 "--gen", "random:n=5", "--no-header")
        assert code == 0 and err == ""
        row = dict(zip(out.splitlines()[0].split(","), out.splitlines()[1].split(",")))
        assert 1.0 <= float(row["ratio"]) <= float(row["max_lcr"])

    def test_ledger_never_evaluates_a_cost_it_does_not_use(self, capsys):
        # random:n=10 shows min-lcr a view of 5 jobs with m = 2; its ledger
        # reads g up to g(3), never the overflowing g(4)
        code, out, err = run_cli(capsys, "simulate", "--alpha", "600", "--policy", "min-lcr",
                                 "--gen", "random:n=10", "--no-header")
        assert code == 0 and err == ""
        assert out == ("label,alpha,policy,off,alg,ratio,max_lcr\n"
                       "random:seed=0,600,min-lcr,6.34460713244e+181,5.0309348702e+181,"
                       "1.26111891649,1.61092684027\n")

    def test_leftover_scan_never_evaluates_a_cost_it_does_not_use(self, capsys):
        # sim-lcr's c_greedy scans the leftover pool only while a value beats
        # its marginal, so on the same input it never reads g(4) either
        code, out, err = run_cli(capsys, "simulate", "--alpha", "600", "--policy", "sim-lcr",
                                 "--gen", "random:n=10", "--no-header")
        assert code == 0 and err == ""
        assert out == ("label,alpha,policy,off,alg,ratio,max_lcr\n"
                       "random:seed=0,600,sim-lcr,6.34460713244e+181,5.0309348702e+181,"
                       "1.26111891649,1.61092684027\n")


_ODD = st.one_of(st.integers(-2, 10**20), st.floats(), st.booleans(), st.none(),
                st.text(max_size=3), st.just("inf"))


@st.composite
def instance_lines(draw):
    """JSONL text: mostly jobs, each field now and then odd (a JSON int up to 10**20,
    any float, a bool, null, a short string, "inf") or missing, plus other JSON values
    and non-JSON lines."""
    clean = draw(st.booleans())  # half the files hold only well-formed jobs

    def odd(one_in):
        return not clean and draw(st.integers(1, one_in)) == 1

    def field(valid):
        return draw(_ODD) if odd(8) else draw(valid)

    lines = []
    for line_id in range(draw(st.integers(0, 6))):
        kind = "job" if clean else draw(st.sampled_from(["text", "json"] + ["job"] * 8))
        if kind == "text":
            lines.append(draw(st.text(st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="\r\n"),
                                      max_size=12)))
        elif kind == "json":
            lines.append(json.dumps(draw(_ODD | st.lists(_ODD, max_size=3))))
        else:
            obj = {"id": field(st.just(line_id)),
                   "arrival": field(st.integers(1, 20) | st.integers(1, 10**20)),
                   "value": field(st.floats(0, 40) | st.integers(0, 10**20)),
                   "deadline": field(st.integers(1, 6) | st.integers(1, 10**20) | st.just("inf"))}
            if odd(8):
                del obj[draw(st.sampled_from(sorted(obj)))]
            lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


@given(instance_lines(), st.sampled_from(["min-lcr", "sim-lcr", "greedy", "fixed:2"]),
       st.sampled_from(["1", "2", "2.5", "3"]), st.sampled_from(["csv", "json"]))
@settings(max_examples=150, deadline=None)
def test_any_instance_file_runs_or_exits_2(tmp_path_factory, text, policy, alpha, fmt):
    # an accepted file runs; a refused one exits 2 with a message, never a traceback
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "instance.jsonl"
    path.write_text(text, encoding="utf-8")
    code = main(["simulate", "--instance", str(path), "--policy", policy, "--alpha", alpha,
                 "--format", fmt, "--out", str(folder / "out")])
    assert code in (0, 2)


@pytest.mark.parametrize("argv,code,stream,needle", [
    (["game", "--alpha", "2", "--z", "10", "--policy", "min-lcr"], 0, "stdout", "ratio: "),
    (["verify", "mincran", "--inject-delta", "0.1"], 1, "stdout", "[FAIL] mincran"),
    (["simulate", "--alpha", "2", "--policy", "greedy", "--instance", "bad.jsonl"], 2,
     "stderr", "line 2"),
])
def test_exit_code_of_the_module_entry_point(tmp_path, argv, code, stream, needle):
    # runs `python -m speedscale.cli` in a child process, so the sys.exit(main()) hook is
    # what turns the returned code into the process's exit status
    (tmp_path / "bad.jsonl").write_text(
        '{"id": 0, "arrival": 1, "value": 1.0, "deadline": 1}\n{"id": 1}\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "speedscale.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert needle in getattr(proc, stream)


# Runs each argv through cli.main in one fresh interpreter and prints, per run, the
# exit code, whether numpy is loaded after it, and the output. The test process
# itself has numpy loaded already (conftest imports it).
_IMPORT_PROBE = """
import contextlib, io, json, sys
import speedscale, speedscale.cli
runs = [{"argv": None, "numpy": "numpy" in sys.modules}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = speedscale.cli.main(argv)
    runs.append({"argv": argv, "code": code, "numpy": "numpy" in sys.modules,
                 "out": out.getvalue()})
print(json.dumps(runs))
"""


def test_game_and_simulate_run_without_numpy(capsys, instance_file):
    numpy_free = [
        ["game", "--alpha", "2", "--z", "50", "--policy", "min-lcr"],
        ["simulate", "--instance", instance_file, "--alpha", "2", "--policy", "min-lcr",
         "--no-header"],
        ["simulate", "--instance", instance_file, "--alpha", "2", "--policy", "min-lcr",
         "--format", "json"],
        ["simulate", "--gen", "alpha2-lb:z=20", "--alpha", "2", "--policy", "min-lcr",
         "--no-header"],
    ]
    lowerbound = ["lowerbound", "--alpha", "2,3", "--z-max", "12", "--x-grid", "8", "--no-header"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps(numpy_free + [lowerbound])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported, *runs = json.loads(proc.stdout)
    assert imported["numpy"] is False
    for run in runs[:-1]:
        assert (run["code"], run["numpy"]) == (0, False), run["argv"]
    # lowerbound needs numpy: the probe sees it load, and the bytes match this process's run
    assert (runs[-1]["code"], runs[-1]["numpy"]) == (0, True)
    for run in runs:
        assert run["out"] == run_cli(capsys, *run["argv"])[1], run["argv"]


_BLOCK_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy now fails
import speedscale.cli
sys.exit(speedscale.cli.main(sys.argv[1:]))
"""


def run_without_numpy(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # from the repository root, where the pins' instance paths start
    return subprocess.run([sys.executable, "-c", _BLOCK_NUMPY, *argv], cwd=SRC.parent,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ("lowerbound", "--alpha", "2", "--z-max", "4", "--x-grid", "4"),
    ("simulate", "--gen", "random:n=5", "--alpha", "2", "--policy", "min-lcr"),
    ("verify", "hbound"),
], ids=["lowerbound", "simulate-random", "verify"])
def test_commands_that_need_numpy_exit_2_without_it(argv):
    proc = run_without_numpy(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {argv[0]} needs numpy, which cannot be imported\n"


CLI_PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text())


@pytest.mark.parametrize("pin", CLI_PINS, ids=[" ".join(pin["argv"]) for pin in CLI_PINS])
def test_cli_pin(pin):
    # each pinned command line, with numpy blocked: CI runs the same table on
    # the oldest supported Python
    proc = run_without_numpy(*pin["argv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (pin["code"], pin["stdout"], pin["stderr"])


MINCRAN_LINE = ("[PASS] mincran: z=10: k*=6.18034 value=2.61803399; "
                "z=100: k*=61.8034 value=2.61803399; z=10000: k*=6180.34 value=2.61803399\n")


def test_verify_mincran_runs_without_numpy(capsys):
    # mincran is a golden section on floats: without numpy it prints the line
    # it prints with numpy, while hbound, whose grid is np.arange, is refused
    assert run_cli(capsys, "verify", "mincran") == (0, MINCRAN_LINE, "")
    proc = run_without_numpy("verify", "mincran")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, MINCRAN_LINE, "")
    proc = run_without_numpy("verify", "hbound")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: verify needs numpy, which cannot be imported\n"


@pytest.mark.parametrize("argv", [
    ("verify", "hbound", "--format", "json"),
    ("verify", "hbound", "--no-header"),
    ("game", "--alpha", "2", "--z", "5", "--policy", "greedy", "--seed", "1"),
    ("game", "--alpha", "2", "--z", "5", "--policy", "greedy", "--format", "json"),
    ("game", "--alpha", "2", "--z", "5", "--policy", "greedy", "--no-header"),
    ("lowerbound", "--alpha", "2", "--seed", "1"),
])
def test_option_the_subcommand_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--alpha", "2", "--policy", "greedy", "--gen", "random:n"),
     "bad generator parameter 'n' in 'random:n'"),
    (("lowerbound", "--alpha", "inf"), "alpha values must be finite, got 'inf'"),
    (("game", "--alpha", "1.5", "--z", "3", "--policy", "greedy"),
     "game needs alpha >= 2, got 1.5"),
], ids=["gen-parameter-without-value", "lowerbound-infinite-alpha", "game-alpha-below-2"])
def test_refused_value_exits_2_with_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    path = str(tmp_path / "missing" / "out.csv")
    argv = ("game", "--alpha", "2", "--z", "3", "--policy", "greedy", "--out", path)
    assert run_cli(capsys, *argv) == (2, "", f"error: [Errno 2] No such file or directory: {path!r}\n")


# every integer option, in a command line that runs quickly once the option reads 10
INTEGER_OPTIONS = {
    "--z": ("game", "--alpha", "2", "--policy", "greedy", "--z"),
    "--seed": ("simulate", "--alpha", "2", "--policy", "greedy", "--gen", "random:n=3",
               "--seed"),
    "--z-max": ("lowerbound", "--alpha", "2", "--x-grid", "4", "--z-max"),
    "--x-grid": ("lowerbound", "--alpha", "2", "--z-max", "4", "--x-grid"),
    "--samples": ("verify", "subadd", "--samples"),
}


class TestIntegerOptions:
    # argparse's int() reads each of these as 10 or 3; only ASCII decimal digits are one
    @pytest.mark.parametrize("digits", ["1_0", "\u0661\u0660", "+3", " 2", "0x5", "6.0"],
                             ids=["underscore", "arabic-indic", "plus", "leading-space",
                                  "hex", "float"])
    @pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
    def test_ascii_digits_only(self, capsys, option, digits):
        argv = INTEGER_OPTIONS[option]
        with pytest.raises(SystemExit) as exc:
            main([*argv, digits])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"speedscale {argv[0]}: error: argument {option}: invalid int value: {digits!r}")

    @pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
    def test_leading_zero_is_the_same_number(self, capsys, option):
        argv = INTEGER_OPTIONS[option]
        runs = [run_cli(capsys, *argv, digits) for digits in ("10", "010")]
        assert runs[0][0] == 0 and runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [
        ("simulate", "--alpha", "2", "--policy", "greedy", "--gen", "random:n=5", "--seed", "-1"),
        ("simulate", "--alpha", "2", "--policy", "greedy", "--gen", "heavy-tail:n=5",
         "--seed", "-3"),
        ("verify", "subadd", "--seed", "-1"),
        ("verify", "oracle", "--seed", "-1"),
        ("verify", "smallm", "--seed", "-2"),
    ], ids=["random", "heavy-tail", "subadd", "oracle", "smallm"])
    def test_negative_seed_exits_2(self, capsys, argv):
        # numpy refuses a negative seed with a traceback; the CLI refuses it first
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: --seed must be >= 0, got {argv[-1]}\n"


class TestLowerbound:
    def test_summary_row_near_phi_plus_1(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--alpha", "2",
                               "--z-max", "400", "--x-grid", "32", "--no-header")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,z,x,k_star,value"
        summary = [l for l in lines[1:] if l.split(",")[1] == ""]
        assert len(summary) == 1
        best = float(summary[0].split(",")[4])
        assert abs(best - 2.618033988) < 2e-3

    def test_multiple_alphas_above_sqrt2_bound(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--alpha", "2.5,3",
                               "--z-max", "40", "--x-grid", "32", "--no-header")
        assert code == 0
        bests = [float(l.split(",")[4]) for l in out.strip().splitlines()[1:]
                 if l.split(",")[1] == ""]
        assert len(bests) == 2
        assert all(b >= math.sqrt(2) + 1 - 1e-6 for b in bests)

    @pytest.mark.parametrize("z_max", ["1000000000000", "4611686018427387904"])
    def test_unallocatable_grid_exits_2(self, capsys, z_max):
        # 1.82 PiB, and 2**68 points: numpy refuses both before touching memory
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", "2", "--z-max", z_max,
                                 "--x-grid", "64")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot allocate the lower-bound grid of {z_max} x 64 "
                              "points: ")

    def test_empty_alpha_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "--alpha", ",")
        assert code == 2

    def test_alpha_below_two_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "lowerbound", "--alpha", "1.5")
        assert code == 2

    def test_non_numeric_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "lowerbound", "--alpha", "2,abc")
        assert code == 2 and "'abc'" in err

    def test_byte_identical_without_header(self, capsys, tmp_path):
        args = ("lowerbound", "--alpha", "2.5", "--z-max", "20", "--x-grid", "16",
                "--no-header")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_matches_row_dict_writer(self, capsys):
        for fmt in (("--no-header",), (), ("--format", "json")):
            _, out, _ = run_cli(capsys, "lowerbound", "--alpha", "3,2.5,2", "--z-max", "30",
                                "--x-grid", "16", *fmt)
            assert_matches_reference(out, [3.0, 2.5, 2.0], 30, 16, fmt)

    @given(st.lists(st.floats(2.0, 6.0), min_size=1, max_size=3), st.integers(1, 30),
           st.integers(2, 16), st.sampled_from([("--no-header",), (), ("--format", "json")]))
    @settings(max_examples=30, deadline=None)
    def test_matches_row_dict_writer_drawn(self, alphas, z_max, x_grid, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["lowerbound", "--alpha", ",".join(map(repr, alphas)),
                         "--z-max", str(z_max), "--x-grid", str(x_grid), *fmt])
        assert code == 0
        assert_matches_reference(out.getvalue(), alphas, z_max, x_grid, fmt)

    def test_header_line_present_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--alpha", "2.5",
                               "--z-max", "5", "--x-grid", "8")
        assert code == 0
        assert out.startswith("# speedscale lowerbound generated=")

    @pytest.mark.parametrize("alpha, bad, best", [("180", 14, "k-scan"), ("650", 784, "inf")])
    def test_overflowing_curve_exits_2(self, capsys, monkeypatch, alpha, bad, best):
        # at alpha = 180 only 14 grid points overflow, though 51 ** 180 is
        # finite, so no check of z_max ** alpha alone would find them; the
        # best it names is still a value the inner min takes
        taken = record_inner_min(monkeypatch)
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", alpha, "--z-max", "50",
                                 "--x-grid", "16", "--no-header")
        assert code == 2 and out == ""
        head = (f"error: the lower-bound curve overflows a float at alpha={alpha}: "
                f"{bad} of 800 grid points are not finite, best is ")
        assert err.startswith(head) and err.endswith("\n")
        shown = err[len(head):-1]
        if best == "inf":
            assert shown == "inf"
        else:
            assert_best_is_k_scan_value(float(alpha), float(shown), taken)

    def test_finite_curve_at_large_alpha_matches_k_scan(self, capsys, monkeypatch):
        # alpha = 178 overflows B v, yet every point and the best come out as
        # a direct scan over k gives them, and numpy warns of nothing
        taken = record_inner_min(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "lowerbound", "--alpha", "178", "--z-max", "50",
                                     "--x-grid", "16", "--no-header")
        assert code == 0 and err == ""
        assert out.count("\n") == 802
        assert_rows_match_k_scan(out, 178.0)
        summary = out.splitlines()[-1]
        assert summary.startswith("178,,,,")
        assert_best_is_k_scan_value(178.0, float(summary.split(",")[4]), taken)

    @pytest.mark.parametrize("alpha, z_max, x_grid, z_min", [
        ("80", "200", "64", 190),  # B v overflows from z = 83 on; the top rows keep it short
        ("100", "50", "16", 1),
    ])
    def test_large_alpha_rows_match_k_scan(self, capsys, alpha, z_max, x_grid, z_min):
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", alpha, "--z-max", z_max,
                                 "--x-grid", x_grid, "--no-header")
        assert code == 0 and err == ""
        assert_rows_match_k_scan(out, float(alpha), z_min)


def assert_rows_match_k_scan(out, alpha, z_min=1):
    """Each printed grid row with z >= z_min holds the k-scan minimum, and
    its k_star attains it."""
    checked = 0
    for line in out.splitlines()[1:]:
        _, z, x, k, value = line.split(",")
        if z == "" or int(z) < z_min:
            continue
        z, x = int(z), float(x)
        best = k_scan(alpha, z, x)
        assert math.isclose(float(value), best, rel_tol=1e-11), line
        assert math.isclose(lower_bound_ratio(alpha, z, x, int(k)), best, rel_tol=1e-11), line
        checked += 1
    assert checked


def record_inner_min(monkeypatch):
    """Record every point _inner_min_batch evaluates, as value -> [(z, x), ...]."""
    taken = {}
    inner = adversary._inner_min_batch

    def recording(g, z, x, k0):
        values, ks = inner(g, z, x, k0)
        zs, xs = np.broadcast_arrays(z, x)
        for point in zip(values.ravel().tolist(), zs.ravel().tolist(), xs.ravel().tolist()):
            taken.setdefault(point[0], []).append(point[1:])
        return values, ks

    monkeypatch.setattr(adversary, "_inner_min_batch", recording)
    return taken


def assert_best_is_k_scan_value(alpha, best, taken):
    """The best printed is the inner min at some point evaluated, as the k-scan
    gives it: a grid point or a row's crossing, never a value the rows do not take."""
    shown = format(best, ".12g")
    points = [p for value, at in taken.items() if format(value, ".12g") == shown for p in at]
    assert points
    for z, x in points:
        assert format(k_scan(alpha, z, x), ".12g") == shown, (z, x)


def reference_fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return "" if value is None else str(value)


def reference_lowerbound(alphas, z_max, x_grid, as_json):
    """The lowerbound output built one row dict at a time, each cell through
    reference_fmt, as the CLI wrote it before its CSV went column-wise."""
    rows, summaries = [], []
    for alpha in sorted(alphas):
        curve, best = eval_lower_bound(PowerLaw(alpha), z_max, x_grid)
        columns = [curve[name].tolist() for name in LOWERBOUND_COLUMNS[1:]]
        rows.extend({"alpha": alpha, "z": z, "x": x, "k_star": k, "value": value}
                    for z, x, k, value in zip(*columns))
        rows.append({"alpha": alpha, "z": None, "x": None, "k_star": None, "value": best})
        summaries.append({"alpha": alpha, "best": best})
    if as_json:
        return json.dumps({"summaries": summaries, "points": rows}, indent=2) + "\n"
    lines = [",".join(LOWERBOUND_COLUMNS)]
    for row in rows:
        lines.append(",".join(reference_fmt(row.get(c)) for c in LOWERBOUND_COLUMNS))
    return "\n".join(lines) + "\n"


def assert_matches_reference(out, alphas, z_max, x_grid, fmt):
    expected = reference_lowerbound(alphas, z_max, x_grid, "json" in fmt)
    if not fmt:  # the header line differs only by its timestamp
        stamp, _, out = out.partition("\n")
        assert stamp.startswith("# speedscale lowerbound generated=")
    assert out == expected


class TestVerify:
    def test_mincran_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "mincran")
        assert code == 0 and "[PASS] mincran" in out

    def test_injected_delta_fails_naming_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "mincran", "--inject-delta", "0.01")
        assert code == 1
        assert "mincran-minimizer" in out + err

    def test_injected_nan_fails(self, capsys):
        # a NaN target compares False both ways: the check must still fail
        code, out, _ = run_cli(capsys, "verify", "mincran", "--inject-delta", "nan")
        assert code == 1
        assert out.startswith("[FAIL] mincran: [mincran-minimizer] ")

    def test_quick_suites(self, capsys):
        for suite, extra in (("hbound", ()), ("alpha2lcr", ()),
                             ("subadd", ("--samples", "60")),
                             ("oracle", ("--samples", "60"))):
            code, out, _ = run_cli(capsys, "verify", suite, *extra)
            assert code == 0, (suite, out)
            assert f"[PASS] {suite}" in out

    def test_smallm_passes(self, capsys):
        assert run_cli(capsys, "verify", "smallm") == (
            0, "[PASS] smallm: 155 case bounds <= 2.47173798 <= phi+1=2.618034\n", "")

    @pytest.mark.parametrize("suite", ["subadd", "oracle"])
    def test_zero_samples_exits_2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", suite, "--samples", "0")
        assert code == 2 and "[PASS]" not in out and "--samples" in err


class TestGame:
    def test_alpha2_prediction_matches(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--alpha", "2", "--z", "50",
                               "--policy", "fixed:31")
        assert code == 0
        fields = dict(l.split(": ") for l in out.strip().splitlines())
        assert fields["slot1_count"] == "31"
        assert fields["ratio"] == fields["predicted"]

    def test_sqrt2_game(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--alpha", "3", "--sqrt2",
                               "--policy", "greedy")
        assert code == 0
        fields = dict(l.split(": ") for l in out.strip().splitlines())
        assert abs(float(fields["ratio"]) - (math.sqrt(2) + 1)) < 1e-9

    def test_sqrt2_at_alpha2_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "game", "--alpha", "2", "--sqrt2",
                             "--policy", "greedy")
        assert code == 2

    def test_needs_z_or_sqrt2(self, capsys):
        code, _, _ = run_cli(capsys, "game", "--alpha", "2", "--policy", "greedy")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        # an explicit --z 0 is refused, with or without --sqrt2
        (("--alpha", "3", "--z", "0", "--sqrt2"), "--z must be >= 1, got 0"),
        (("--alpha", "2", "--z", "0"), "--z must be >= 1, got 0"),
        (("--alpha", "2", "--z", "-4"), "--z must be >= 1, got -4"),
        # "exactly one" only when both options or neither is given
        (("--alpha", "3", "--z", "5", "--sqrt2"), "exactly one of --z or --sqrt2 required"),
        (("--alpha", "2",), "exactly one of --z or --sqrt2 required"),
    ])
    def test_z_and_sqrt2_combinations(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "game", *argv, "--policy", "greedy")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("z, jobs, reason", [
        # 2**61 and 2**63: CPython refuses both tuples before touching memory
        ("2305843009213693952", "4611686018427387904", "out of memory"),
        ("9223372036854775808", "18446744073709551616",
         "cannot fit 'int' into an index-sized integer")])
    @pytest.mark.parametrize("command", ["game", "simulate"])
    def test_unallocatable_template_exits_2(self, capsys, command, z, jobs, reason):
        argv = (("game", "--z", z) if command == "game"
                else ("simulate", "--gen", f"alpha2-lb:z={z}"))
        code, out, err = run_cli(capsys, *argv, "--alpha", "2", "--policy", "greedy")
        assert (code, out, err) == (
            2, "", f"error: cannot allocate the alpha2-lb template of {jobs} jobs: {reason}\n")

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "game.txt"
        code, _, _ = run_cli(capsys, "game", "--alpha", "2", "--z", "10",
                             "--policy", "min-lcr", "--out", str(out_path))
        assert code == 0
        assert "ratio:" in out_path.read_text()


def test_fmt_spells_out_nan_and_inf():
    assert _fmt(float("nan")) == "nan"
    assert [_fmt(v) for v in (math.inf, -0.0, 1 / 3, 7, None)] == \
        ["inf", "-0", "0.333333333333", "7", ""]


class TestGoldenOutput:
    """Exact output pinned from the reference implementation: a change to any of
    these numbers, however small, shows up as a changed byte."""

    def test_verify_mincran(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "mincran")
        assert code == 0
        assert out == ("[PASS] mincran: z=10: k*=6.18034 value=2.61803399; "
                       "z=100: k*=61.8034 value=2.61803399; "
                       "z=10000: k*=6180.34 value=2.61803399\n")

    def test_lowerbound_summary_rows(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--alpha", "2,3", "--z-max", "12",
                               "--x-grid", "8", "--no-header")
        assert code == 0
        summary = [line for line in out.splitlines()[1:] if line.split(",")[1] == ""]
        assert summary == ["2,,,,2.56266024904", "3,,,,2.41421356237"]

    def test_lowerbound_summary_rows_at_large_alpha(self, capsys):
        # row z = 2 peaks at x / xcap near 2e-4 and below, left of the first
        # grid point; its crossing of branches 1 and 2 is the 4-job construction
        code, out, _ = run_cli(capsys, "lowerbound", "--alpha", "16,20,30,40,60", "--z-max",
                               "200", "--x-grid", "64", "--no-header")
        assert code == 0
        summary = [line for line in out.splitlines()[1:] if line.split(",")[1] == ""]
        assert summary == [f"{alpha},,,,2.41421356237" for alpha in (16, 20, 30, 40, 60)]

    @pytest.mark.parametrize("policy,row", [
        ("min-lcr", "heavy-tail:seed=3,2.5,min-lcr,203.498044628,182.335400102,"
                    "1.1160643765,1.969014987"),
        ("sim-lcr", "heavy-tail:seed=3,2.5,sim-lcr,203.498044628,182.335400102,"
                    "1.1160643765,1.969014987"),
        ("greedy", "heavy-tail:seed=3,2.5,greedy,203.498044628,178.678545852,"
                   "1.13890586952,2.57471544635"),
    ])
    def test_simulate_heavy_tail(self, capsys, policy, row):
        code, out, _ = run_cli(capsys, "simulate", "--gen", "heavy-tail:n=30", "--seed", "3",
                               "--alpha", "2.5", "--policy", policy, "--no-header")
        assert code == 0
        assert out == "label,alpha,policy,off,alg,ratio,max_lcr\n" + row + "\n"

    def test_simulate_sparse_bursts_instance(self, capsys, tmp_path):
        # three bursts of ten jobs, 2,000 idle slots apart; every fifth job never expires
        path = tmp_path / "bursts.jsonl"
        jobs = [Job(10 * b + i, 1 + 2000 * b + i // 3, 1.5 + 1.25 * (7 * (10 * b + i) % 11),
                    INFINITE if i % 5 == 0 else 1 + i % 4)
                for b in range(3) for i in range(10)]
        path.write_text(dumps_instance(Instance(tuple(jobs))), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--alpha", "2.5", "--policy", "min-lcr",
                               "--instance", str(path), "--no-header")
        assert code == 0
        assert out == ("label,alpha,policy,off,alg,ratio,max_lcr\n"
                       f"{path},2.5,min-lcr,193.186291501,163.338311755,"
                       "1.18273716329,1.70588235294\n")

    def test_game_min_lcr(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--alpha", "2", "--z", "500", "--policy", "min-lcr")
        assert code == 0
        assert out == ("template: alpha2-lb:z=500\npolicy: min-lcr\nslot1_count: 309\n"
                       "off: 558691\nalg: 213519\nratio: 2.61658681429\n"
                       "predicted: 2.61658681429\n")

    @pytest.mark.parametrize("z, policy, count, off, alg, ratio", [
        (500, "min-lcr", 309, 558691, 213519, "2.61658681429"),
        (500, "sim-lcr", 309, 558691, 213519, "2.61658681429"),
        (500, "greedy", 500, 749500, 250000, "2.998"),
        (1000, "min-lcr", 618, 2235382, 854076, "2.61731040329"),
        (1000, "sim-lcr", 618, 2235382, 854076, "2.61731040329"),
        (1000, "greedy", 1000, 2999000, 1000000, "2.999"),
        (2000, "min-lcr", 1236, 8942764, 3416304, "2.61767219779"),
        (2000, "sim-lcr", 1236, 8942764, 3416304, "2.61767219779"),
        (2000, "greedy", 2000, 11998000, 4000000, "2.9995"),
    ])
    def test_benchmark_games(self, capsys, z, policy, count, off, alg, ratio):
        # the nine runs of the benchmark's game workload, whose flow is runs of one window
        code, out, err = run_cli(capsys, "game", "--alpha", "2", "--z", str(z),
                                 "--policy", policy)
        assert code == 0 and err == ""
        assert out == (f"template: alpha2-lb:z={z}\npolicy: {policy}\nslot1_count: {count}\n"
                       f"off: {off}\nalg: {alg}\nratio: {ratio}\npredicted: {ratio}\n")

    @pytest.mark.parametrize("alphas, digest", [
        ("2.1,2.7,3.4,4", "59991a0d02992a048dafcaea3c4bf75113c112d39de7730905adf91531290833"),
        (",".join(str(round(2.1 + 0.1 * i, 1)) for i in range(20)),
         "78471e0ed66e12f0424a7574bfa117b07a895fc186f7b6feee4a8e58783f9d8b"),
    ], ids=["benchmark-alphas", "criterion-3-alphas"])
    def test_lowerbound_curve_digest(self, capsys, alphas, digest):
        # every byte of the curves the benchmark and criterion 3 print;
        # reference_lowerbound checks the writer, not the numbers it writes
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", alphas, "--z-max", "200",
                                 "--x-grid", "64", "--no-header")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_lowerbound_curve_digest_at_large_alpha(self, capsys):
        # B v overflows in the top rows at alpha = 80, yet every point is finite
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", "80,100", "--z-max", "200",
                                 "--x-grid", "64", "--no-header")
        assert code == 0 and err == ""
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "1acb0d48d21cace6b8e4eaa38cb6d5392b783dc5452c4fdc0fbbc975c94a4b67")

    @pytest.mark.parametrize("alpha, bad", [("150", 5817), ("178", 9511)])
    def test_lowerbound_overflow_refusal(self, capsys, alpha, bad):
        code, out, err = run_cli(capsys, "lowerbound", "--alpha", alpha, "--z-max", "200",
                                 "--x-grid", "64", "--no-header")
        assert (code, out) == (2, "")
        assert err == (f"error: the lower-bound curve overflows a float at alpha={alpha}: "
                       f"{bad} of 12800 grid points are not finite, best is inf\n")

    def test_lowerbound_alpha2_z10000_bytes(self):
        curve, best = eval_lower_bound(PowerLaw(2.0), 10_000, 64)
        assert (hashlib.sha256(curve.tobytes()).hexdigest()
                == "46164d03c87e3d060501cdbb95888813b2a17538631516dea8c06a5d5f0c3996")
        assert best.hex() == "0x1.4f195decdba60p+1"

    def test_game_without_prediction(self, capsys):
        # alpha != 2 and no sqrt2 template: there is no closed form to predict
        code, out, _ = run_cli(capsys, "game", "--alpha", "3", "--z", "10", "--policy", "greedy")
        assert code == 0
        assert out == ("template: alpha2-lb:z=10\npolicy: greedy\nslot1_count: 3\n"
                       "off: 90\nalg: 33\nratio: 2.72727272727\npredicted: nan\n")
