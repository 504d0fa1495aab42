import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speedscale.adversary import eval_lower_bound
from speedscale.cli import LOWERBOUND_COLUMNS, _fmt, main
from speedscale.model import INFINITE, Instance, Job, write_instance

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
        curve, best = eval_lower_bound(alpha, z_max, x_grid)
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

    def test_quick_suites(self, capsys):
        for suite, extra in (("hbound", ()), ("alpha2lcr", ()),
                             ("subadd", ("--samples", "60")),
                             ("oracle", ("--samples", "60"))):
            code, out, _ = run_cli(capsys, "verify", suite, *extra)
            assert code == 0, (suite, out)
            assert f"[PASS] {suite}" in out

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
        write_instance(Instance(tuple(jobs)), path)
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

    def test_game_without_prediction(self, capsys):
        # alpha != 2 and no sqrt2 template: there is no closed form to predict
        code, out, _ = run_cli(capsys, "game", "--alpha", "3", "--z", "10", "--policy", "greedy")
        assert code == 0
        assert out == ("template: alpha2-lb:z=10\npolicy: greedy\nslot1_count: 3\n"
                       "off: 90\nalg: 33\nratio: 2.72727272727\npredicted: nan\n")
