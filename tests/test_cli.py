import csv
import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngcodes import cli
from ngcodes.cli import main
from ngcodes.codes import NumericalFailure, build_ngc, code_from_json, code_to_json, decode_row
from ngcodes.descent import default_learning_rate, make_dataset, run_descent
from ngcodes.latency import ClusterParams, latency_curve, parse_scheme
from ngcodes.simulator import run_experiment

from reference import csv_bytes, fmt


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def main_without_warnings(argv):
    """``main(argv)``, raising any warning it lets out, which a user would see on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def curve_columns(rows):
    curves = {}
    for scheme, t, prob in rows:
        curves.setdefault(scheme, []).append((float(t), float(prob)))
    return curves


def dkw_band(trials, confidence=0.99):
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def test_construct_writes_verified_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert main(["construct", "--n", "8", "--smax", "3", "--seed", "42", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "4 components" in printed and printed.endswith("nesting: ok\nall checks passed\n")
    ngc = code_from_json(out.read_text())
    assert ngc.n == 8 and ngc.s_max == 3 and ngc.seed == 42


@pytest.mark.parametrize("n, s_max", [(1, 0), (8, 3), (12, 5)])
def test_construct_prints_the_report_verify_prints_for_the_file_it_wrote(tmp_path, capsys, n, s_max):
    out = tmp_path / "code.json"
    assert main(["construct", "--n", str(n), "--smax", str(s_max), "--seed", "4", "--out", str(out)]) == 0
    wrote, constructed = capsys.readouterr().out.split("\n", 1)
    assert wrote == f"wrote {out}: n={n}, s_max={s_max}, seed=4, {s_max + 1} components"
    assert main(["verify", str(out)]) == 0
    assert constructed == capsys.readouterr().out


def test_construct_writes_a_code_that_fails_verification_then_exits_2(tmp_path, capsys, monkeypatch):
    def build_with_a_zero_component(n, s_max, seed):
        ngc = build_ngc(n, s_max, seed)
        ngc.components[2].windows[:] = 0.0
        return ngc

    monkeypatch.setattr(cli, "build_ngc", build_with_a_zero_component)
    out = tmp_path / "code.json"
    assert main_without_warnings(["construct", "--n", "6", "--smax", "2", "--seed", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: code file failed verification\n"
    assert ("sigma=2: support FAIL, decodable FAIL, max residual 1.000e+00 at stragglers [0, 1], "
            "exhaustive: 15 patterns\n" in captured.out)
    assert not code_from_json(out.read_text()).components[2].windows.any()


def test_construct_roundtrip_bit_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["construct", "--n", "6", "--smax", "2", "--seed", "5", "--out", str(first)])
    main(["construct", "--n", "6", "--smax", "2", "--seed", "5", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()
    a, b = code_from_json(first.read_text()), code_from_json(second.read_text())
    for x, y in zip(a.components, b.components):
        assert np.array_equal(x.windows, y.windows)


def test_construct_rejects_out_of_range_tolerance(tmp_path):
    out = tmp_path / "code.json"
    assert main(["construct", "--n", "4", "--smax", "4", "--seed", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_accepts_good_and_rejects_tampered_files(tmp_path, capsys):
    out = tmp_path / "code.json"
    main(["construct", "--n", "6", "--smax", "2", "--seed", "3", "--out", str(out)])
    assert main(["verify", str(out)]) == 0
    assert "all checks passed" in capsys.readouterr().out

    doc = json.loads(out.read_text())
    doc["components"][2]["windows"] = [0.0] * 18
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main_without_warnings(["verify", str(bad)]) == 2
    # an all-zero component decodes nothing, with no LinAlgError or divide-by-zero warning on the way
    captured = capsys.readouterr()
    assert ("sigma=2: support FAIL, decodable FAIL, max residual 1.000e+00 at stragglers [0, 1], "
            "exhaustive: 15 patterns\n" in captured.out)
    assert captured.err == "error: code file failed verification\n"


@pytest.mark.parametrize("windows", [[1e-320, -1e-320] * 3, [1.0, 1e-320] * 3], ids=["subnormal", "one-and-subnormal"])
def test_verify_fails_a_code_with_subnormal_coefficients_without_a_warning(windows, tmp_path, capsys):
    # the decoding solve of such a B overflows: its residual is nan, which fails, and no warning shows
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 3, "s_max": 1, "seed": 1, "components": [
        {"sigma": 0, "windows": [1, 1, 1]}, {"sigma": 1, "windows": windows}]}))
    assert main_without_warnings(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "sigma=1: support ok, decodable FAIL, max residual nan at stragglers [0], exhaustive: 3 patterns\n" in (
        captured.out)
    assert captured.err == "error: code file failed verification\n"
    with warnings.catch_warnings(), pytest.raises(NumericalFailure, match="^decode residual .* above 1e-08$"):
        warnings.simplefilter("error")
        decode_row(code_from_json(path.read_text()).components[1], [0, 2])


def test_verify_missing_file_is_validation_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 1


def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys):
    # verify gates at DECODE_TOL and checks its fixed pattern budget, as construct does: it takes no --tol, --cap
    # or --config
    out = tmp_path / "code.json"
    main(["construct", "--n", "6", "--smax", "2", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    for option in ("--tol=nan", "--tol=-1", "--tol=inf", "--tol=1", "--cap=20", "--config=v.json"):
        assert main(["verify", str(out), option]) == 1
        captured = capsys.readouterr()
        assert captured == ("", f"error: unrecognized arguments: {option}\n")


def test_analyze_headline_configuration(tmp_path):
    out = tmp_path / "curves.csv"
    schemes = "uncoded,gc:1,gc:2,gc:4,gc:6,ngc:2,ngc:4,ngc:6"
    code = main(
        ["analyze", "--schemes", schemes, "--n", "8", "--lambda", "0.5", "--rho", "0.5",
         "--gamma", "0", "--eps", "0.1", "--pe", "0.05",
         "--t-min", "2", "--t-max", "18", "--steps", "25", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scheme", "t", "prob"]
    curves = curve_columns(rows)
    assert len(curves) == 8 and all(len(v) == 25 for v in curves.values())
    for points in curves.values():
        probs = [p for _, p in points]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))


def test_analyze_uncoded_asymptote(tmp_path):
    out = tmp_path / "limit.csv"
    main(["analyze", "--schemes", "uncoded", "--t-min", "2", "--t-max", "100",
          "--steps", "10", "--out", str(out)])
    _, rows = read_csv(out)
    assert abs(float(rows[-1][2]) - 0.95**8) <= 1e-4


def test_analyze_nested_scheme_dominates_fixed(tmp_path):
    out = tmp_path / "pair.csv"
    main(["analyze", "--schemes", "gc:3,ngc:3", "--steps", "50", "--out", str(out)])
    curves = curve_columns(read_csv(out)[1])
    gc = [p for _, p in curves["gc:3"]]
    ngc = [p for _, p in curves["ngc:3"]]
    assert all(b >= a - 1e-12 for a, b in zip(gc, ngc))


def test_analyze_fixed_code_beyond_float_binomials(tmp_path):
    # C(1100, 550) does not fit a double
    for grid in ([], ["--t-min", "1200", "--t-max", "1600", "--steps", "41"]):
        out = tmp_path / "wide.csv"
        assert main(["analyze", "--n", "1100", "--schemes", "gc:550", *grid, "--out", str(out)]) == 0
        probs = [p for _, p in curve_columns(read_csv(out)[1])["gc:550"]]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert probs[0] < 1e-12 and probs[-1] > 1.0 - 1e-12


def test_analyze_minimal_grid(tmp_path):
    out = tmp_path / "two.csv"
    main(["analyze", "--schemes", "gc:1", "--steps", "2", "--out", str(out)])
    assert len(read_csv(out)[1]) == 2


def test_analyze_requires_out(tmp_path):
    assert main(["analyze", "--schemes", "uncoded"]) == 1


def test_analyze_rejects_bad_grid(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["analyze", "--schemes", "uncoded", "--t-min", "5", "--t-max", "2",
                 "--out", str(out)]) == 1
    assert main(["analyze", "--schemes", "uncoded", "--steps", "1", "--out", str(out)]) == 1
    assert main(["analyze", "--schemes", "nope:1", "--out", str(out)]) == 1


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("bounds, printed", [
    (["--t-max", "inf"], "2.0 and inf"),
    (["--t-max", "nan"], "2.0 and nan"),
    (["--t-min=-inf"], "-inf and 18.0"),
    (["--t-min=-1e308", "--t-max", "1e308"], "-1e+308 and 1e+308"),  # finite bounds, infinite span
], ids=["inf", "nan", "minus-inf", "span-overflows"])
def test_a_grid_without_a_finite_span_is_rejected_before_any_warning(command, bounds, printed, tmp_path, capsys):
    assert main_without_warnings([command, *bounds, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: need finite t_min, t_max and t_max - t_min, got {printed}\n"
    assert not (tmp_path / "x.csv").exists()


def test_simulate_single_trial_step_function(tmp_path):
    out = tmp_path / "step.csv"
    assert main(["simulate", "--schemes", "ngc:2", "--trials", "1", "--seed", "4",
                 "--steps", "30", "--out", str(out)]) == 0
    probs = [float(r[2]) for r in read_csv(out)[1]]
    assert set(probs) <= {0.0, 1.0}


def test_simulate_outputs_are_deterministic(tmp_path):
    args = ["simulate", "--schemes", "gc:2,ngc:2", "--trials", "400", "--seed", "9",
            "--steps", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_loads.csv").read_bytes() == (tmp_path / "b_loads.csv").read_bytes()


def test_simulate_analyze_consistency(tmp_path):
    trials = 20_000
    common = ["--schemes", "ngc:2,gc:1", "--steps", "40"]
    ana, emp = tmp_path / "ana.csv", tmp_path / "emp.csv"
    assert main(["analyze", *common, "--out", str(ana)]) == 0
    assert main(["simulate", *common, "--trials", str(trials), "--seed", "11",
                 "--out", str(emp)]) == 0
    analytic = curve_columns(read_csv(ana)[1])
    empirical = curve_columns(read_csv(emp)[1])
    for scheme in ("ngc:2", "gc:1"):
        gap = max(abs(a[1] - e[1]) for a, e in zip(analytic[scheme], empirical[scheme]))
        assert gap <= dkw_band(trials)


def test_simulate_load_statistics(tmp_path):
    out = tmp_path / "sim.csv"
    trials = 20_000
    assert main(["simulate", "--schemes", "gc:6,ngc:3", "--pe", "0.05", "--trials",
                 str(trials), "--seed", "2", "--steps", "10", "--out", str(out)]) == 0
    header, rows = read_csv(tmp_path / "sim_loads.csv")
    assert header == ["scheme", "mean_load", "p95_load", "undecodable_rate"]
    stats = {r[0]: [float(x) for x in r[1:]] for r in rows}
    # fixed-load scheme: every surviving worker computes sigma + 1 tasks
    assert abs(stats["gc:6"][0] - 7 * 0.95) <= 0.05
    tail = sum(math.comb(8, k) * 0.05**k * 0.95 ** (8 - k) for k in range(7, 9))
    assert abs(stats["gc:6"][2] - tail) <= 3.0 / trials + tail
    # nested scheme adapts: mean load strictly below the fixed 4 tasks
    assert stats["ngc:3"][0] < 4.0


def test_gd_demo_outputs(tmp_path):
    out = tmp_path / "gd.csv"
    assert main(["gd-demo", "--m", "64", "--c", "8", "--iterations", "120",
                 "--smax", "3", "--seed", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["iter", "loss", "recovery_error", "decoded_sigma", "latency"]
    assert len(rows) == 120
    losses = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert max(float(r[2]) for r in rows) < 1e-8
    assert {int(r[3]) for r in rows} <= {0, 1, 2, 3}


def test_gd_demo_sigma_zero_without_failures(tmp_path):
    out = tmp_path / "gd0.csv"
    assert main(["gd-demo", "--m", "16", "--c", "2", "--iterations", "10", "--smax", "0",
                 "--pe", "0", "--seed", "1", "--out", str(out)]) == 0
    assert all(int(r[3]) == 0 for r in read_csv(out)[1])


def test_gd_demo_deterministic(tmp_path):
    # at n=8, s_max=1, p_e=0.3 about 3 trials in 4 are undecodable: 600 iterations span two chunks
    for args in (["--m", "24", "--c", "3", "--iterations", "15", "--smax", "2", "--seed", "7"],
                 ["--n", "8", "--smax", "1", "--pe", "0.3", "--m", "32", "--c", "3",
                  "--iterations", "600", "--seed", "5"]):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gd-demo", *args, "--out", str(a)]) == 0
        assert main(["gd-demo", *args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_non_finite_cluster_parameters_are_validation_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for argv in (["analyze", "--schemes", "ngc:3", "--lambda", "nan"],
                 ["analyze", "--schemes", "ngc:3", "--rho", "nan"],
                 ["analyze", "--schemes", "ngc:3", "--eps", "inf"],
                 ["simulate", "--schemes", "ngc:3", "--lambda", "nan", "--trials", "10"]):
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_overflowing_cluster_parameters_are_validation_errors(tmp_path, capsys):
    # finite flags whose task times overflow: before they were rejected, simulate
    # reported every trial undecodable and gd-demo gave up after 1000 resamples
    out = str(tmp_path / "x.csv")
    for argv in (["simulate", "--schemes", "ngc:1", "--n", "4", "--lambda", "5e-324"],
                 ["simulate", "--schemes", "ngc:1", "--rho", "1e308", "--eps", "1e308"],
                 ["analyze", "--schemes", "ngc:3", "--lambda", "5e-324"],
                 ["gd-demo", "--m", "8", "--c", "2", "--iterations", "1", "--lambda", "5e-324"],
                 ["gd-demo", "--m", "8", "--c", "2", "--iterations", "1",
                  "--rho", "1e308", "--eps", "1e308"]):
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("iterations", ["0", "5"])
def test_noise_that_overflows_the_labels_is_a_validation_error(iterations, tmp_path, capsys):
    # before, numpy's overflow warning came first, and with iterations the run wrote a NaN CSV and exited 2
    out = tmp_path / "g.csv"
    assert main_without_warnings(["gd-demo", "--m", "12", "--c", "4", "--iterations", iterations,
                                  "--noise", "1.7976931348623157e+308", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: noise 1.7976931348623157e+308 overflows the labels\n")
    assert not out.exists()


def test_a_rate_whose_task_times_overflow_gives_a_curve_in_0_1(tmp_path, capsys):
    # lam (t - shift) overflows to +-inf here, which the CDF takes as 1 and 0, with no overflow warning
    out = tmp_path / "w.csv"
    assert main_without_warnings(["analyze", "--n", "9", "--lambda", "1.7976931348623157e+308", "--rho", "5.08e16",
                                  "--schemes", "ngc:5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert all(0.0 <= float(prob) <= 1.0 for _, _, prob in read_csv(out)[1])


def test_finish_times_that_overflow_their_waits_are_validation_errors(tmp_path, capsys):
    # 1/lam is finite, but the sum of eight exponential waits overflows: before
    # this was rejected, simulate reported 14% undecodable with no worker failing
    out = str(tmp_path / "x.csv")
    cluster = ["--n", "8", "--lambda", "3e-308", "--pe", "0"]
    for argv in (["simulate", "--schemes", "gc:7", *cluster, "--trials", "100"],
                 ["gd-demo", "--smax", "7", *cluster]):
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_an_n_too_large_for_a_float_is_a_validation_error(tmp_path, capsys):
    # before, the finish-time overflow check raised OverflowError out of main
    out = str(tmp_path / "x.csv")
    assert main(["analyze", "--n", str(10**400), "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: finish times overflow")


def test_sizes_too_large_to_allocate_are_validation_errors(tmp_path, capsys):
    # 10**14 float64 values are 728 TiB: numpy refuses the request at once,
    # before any memory is touched
    out = str(tmp_path / "x.csv")
    for argv in (["analyze", "--steps", "100000000000000"],
                 ["simulate", "--trials", "100000000000000"],
                 ["gd-demo", "--m", "8", "--c", "2", "--iterations", "100000000000000"]):
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate 728. TiB")


# any float, or None to leave the flag at its default so that valid runs stay common
ANY_FLOAT = st.none() | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def cli_invocations(draw):
    """Small invocations; FLAG=VALUE keeps negative values and empty strings from reading as flags."""
    command = draw(st.sampled_from(["analyze", "simulate", "gd-demo"]))
    flags = {"n": draw(st.none() | st.integers(-1, 10))}
    if command != "analyze":
        flags["seed"] = draw(st.integers(-1, 2**31))
    for name in ("lambda", "rho", "gamma", "eps", "pe"):
        flags[name] = draw(ANY_FLOAT)
    tolerance = st.integers(-1, 12)
    if command == "gd-demo":
        flags.update(smax=draw(tolerance), m=draw(st.integers(0, 20)), c=draw(st.integers(0, 4)),
                     iterations=draw(st.integers(0, 5)), eta=draw(ANY_FLOAT), noise=draw(ANY_FLOAT))
    else:
        kinds = st.lists(st.sampled_from(["uncoded", "gc", "ngc"]), min_size=1, max_size=3)
        flags["schemes"] = ",".join(k if k == "uncoded" else f"{k}:{draw(tolerance)}" for k in draw(kinds))
        flags.update({"steps": draw(st.integers(1, 50)), "t-min": draw(ANY_FLOAT), "t-max": draw(ANY_FLOAT)})
        if command == "simulate":
            flags["trials"] = draw(st.integers(0, 200))
    if spoiled := draw(st.none() | st.sampled_from(sorted(flags.keys() - {"schemes"}))):  # not a number
        flags[spoiled] = draw(st.sampled_from(["x", ""]))
    return [command, *(f"--{name}={value}" for name, value in flags.items() if value is not None)]


@settings(max_examples=150, deadline=None)
@given(argv=cli_invocations())
@example(argv=["simulate", "--schemes=ngc:3", "--lambda=nan", "--trials=10"])
def test_exit_code_is_always_0_1_or_2(argv, tmp_path_factory):
    assert main([*argv, "--out", str(tmp_path_factory.mktemp("prop") / "out.csv")]) in (0, 1, 2)


def test_gd_demo_without_a_decodable_draw_is_exit_2(tmp_path, capsys):
    out = tmp_path / "gd.csv"
    assert main(["gd-demo", "--m", "8", "--c", "2", "--iterations", "1", "--pe", "1",
                 "--out", str(out)]) == 2
    assert "no decodable draw" in capsys.readouterr().err


def test_gd_demo_rejects_empty_datasets_and_bad_step_sizes(tmp_path, capsys):
    out = str(tmp_path / "gd.csv")
    for argv in (["--m", "0"], ["--c", "0"], ["--eta", "nan", "--iterations", "3"],
                 ["--noise", "nan"], ["--eta", "0"], ["--eta", "-inf"], ["--noise", "-1"]):
        assert main(["gd-demo", *argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_gd_demo_that_diverges_fails_the_recovery_gate(tmp_path, capsys):
    # the recovery errors turn nan; a nan must not pass the gate, whose line is all stderr holds
    out = tmp_path / "gd.csv"
    assert main_without_warnings(["gd-demo", "--eta", "1e300", "--iterations", "30", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: recovery error nan above gate 1e-06\n"


NEAR_GATE_SEEDS = (195, 251, 384, 23, 114, 171, 321, 337)


@pytest.mark.parametrize("argv", [
    *(["construct", "--n", "12", "--smax", "5", "--seed", str(seed)] for seed in NEAR_GATE_SEEDS),
    ["gd-demo", "--n", "12", "--smax", "5", "--m", "4096", "--c", "32", "--iterations", "200", "--seed", "1833",
     "--lambda", "0.5", "--rho", "0.5", "--gamma", "0", "--eps", "0.1", "--pe", "0.05"],
    ["gd-demo", "--n", "64", "--smax", "8", "--m", "4096", "--c", "16", "--iterations", "200", "--seed", "3"],
], ids=[*(f"construct-n12-seed{seed}" for seed in NEAR_GATE_SEEDS), "gd-demo-n12-seed1833", "gd-demo-n64-seed3"])
def test_a_decoding_near_the_residual_gate_passes(argv, tmp_path, capsys):
    # each run meets a responsive set near the 1e-8 residual gate. A single least-squares solve misses it
    # in the first three construct runs and both gd-demo runs; a single pass of the sigma x sigma decode
    # misses it in the last five construct runs and both gd-demo runs
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_gd_demo_with_a_non_finite_loss_is_exit_2(tmp_path, capsys):
    out = tmp_path / "gd.csv"
    argv = ["gd-demo", "--n", "8", "--smax", "3", "--iterations", "1", "--m", "8", "--c", "2",
            "--noise", "1e300", "--seed", "3", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "final loss inf" in captured.out
    assert captured.err == "error: loss inf at iteration 0 is not finite\n"
    # the CSV is written before the gate, as for the recovery gate
    assert read_csv(out)[1][0][:2] == ["0", "inf"]


def test_a_nan_recovery_error_after_the_first_fails_the_gate(tmp_path, monkeypatch, capsys):
    real_run_descent = cli.run_descent

    def with_a_nan(*args, **kwargs):
        run = real_run_descent(*args, **kwargs)
        records = list(run.records)
        records[1] = dataclasses.replace(records[1], recovery_error=math.nan)
        return dataclasses.replace(run, records=tuple(records))

    monkeypatch.setattr(cli, "run_descent", with_a_nan)
    out = tmp_path / "gd.csv"
    assert main(["gd-demo", "--iterations", "5", "--out", str(out)]) == 2
    assert "max recovery error nan" in capsys.readouterr().out


# each subcommand's (option strings, dest) pairs, which scripts rely on
PARSER_OPTIONS = {
    "construct": {("--n",): "n", ("--smax",): "smax", ("--seed",): "seed", ("--out",): "out"},
    "verify": {(): "path"},
    "analyze": {("--schemes",): "schemes", ("--n",): "n", ("--lambda",): "lam", ("--rho",): "rho",
                ("--gamma",): "gamma", ("--eps",): "eps", ("--pe",): "pe", ("--t-min",): "t_min",
                ("--t-max",): "t_max", ("--steps",): "steps", ("--out",): "out"},
    "gd-demo": {("--m",): "m", ("--c",): "c", ("--noise",): "noise", ("--iterations",): "iterations",
                ("--eta",): "eta", ("--smax",): "smax", ("--n",): "n", ("--lambda",): "lam",
                ("--rho",): "rho", ("--gamma",): "gamma", ("--eps",): "eps", ("--pe",): "pe",
                ("--seed",): "seed", ("--out",): "out"},
}
PARSER_OPTIONS["simulate"] = {**PARSER_OPTIONS["analyze"], ("--trials",): "trials", ("--seed",): "seed"}


def test_each_subcommand_accepts_the_same_options_as_before():
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert set(subcommands) == set(PARSER_OPTIONS)
    for name, sub in subcommands.items():
        declared = {tuple(a.option_strings): a.dest for a in sub._actions if a.dest != "help"}
        assert declared == PARSER_OPTIONS[name], name


@pytest.mark.parametrize("argv", [["construct"], ["analyze"], ["simulate"], ["gd-demo"]])
def test_a_writing_command_without_out_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: --out\n"
    assert not any(tmp_path.iterdir())


def test_analyze_deep_in_the_left_tail_of_a_high_layer(tmp_path):
    # F_256 taken as 1 - survival was rounding noise here, and not monotone in t
    out = tmp_path / "tail.csv"
    assert main(["analyze", "--schemes", "gc:255", "--n", "256", "--rho", "0", "--t-min", "100",
                 "--t-max", "200", "--steps", "5", "--out", str(out)]) == 0
    probs = [p for _, p in curve_columns(read_csv(out)[1])["gc:255"]]
    assert 0.0 < probs[0] < 1e-90 and all(a < b for a, b in zip(probs, probs[1:]))


def subcommands(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_the_parser_of_one_subcommand_equals_that_subcommand_of_the_full_parser(name):
    alone = cli.build_parser(name)
    assert {a.dest for a in alone._actions} == {"help", *cli.COMMANDS[name][2]}  # that subcommand's settings alone
    assert alone.format_help() == subcommands(cli.build_parser())[name].format_help()


REPRESENTATIVE_ARGV = {
    "construct": ["construct", "--n", "6", "--smax", "2", "--seed", "3", "--out", "c.json"],
    "verify": ["verify", "c.json"],
    "analyze": ["analyze", "--schemes", "gc:2,ngc:2", "--lambda", "1.5", "--t-min", "1",
                "--steps", "7", "--out", "a.csv"],
    "simulate": ["simulate", "--schemes", "uncoded", "--n", "5", "--pe", "0", "--trials", "9",
                 "--seed", "4", "--out", "s.csv"],
    "gd-demo": ["gd-demo", "--m", "16", "--c", "2", "--eta", "0.1", "--smax", "1", "--rho", "0",
                "--out", "g.csv"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_the_removed_config_flag_is_an_unknown_argument(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = code_to_json(build_ngc(4, 1, 0))
    (tmp_path / "c.json").write_text(code)
    assert main([*REPRESENTATIVE_ARGV[name], "--config=c.json"]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --config=c.json\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"] and (tmp_path / "c.json").read_text() == code


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_the_parser_of_one_subcommand_parses_as_the_full_parser(name):
    argv = REPRESENTATIVE_ARGV[name]
    parsed = cli.build_parser(name).parse_args(argv[1:])
    assert parsed == cli.build_parser().parse_args(argv)
    assert parsed.command == name and parsed.func is cli.COMMANDS[name][0]


@pytest.mark.parametrize("argv", [
    ["analyze", "--t", "3", "--out", "x.csv"],  # an abbreviation of two flags
    ["analyze", "--n=x", "--out", "x.csv"],
    ["verify", "a.json", "b.json"],
    ["gd-demo", "--m", "4", "--m", "-", "--out", "x.csv"],
    ["simulate", "--out"],
    ["construct", "--", "--out", "x.json"],
])
def test_a_named_subcommand_gives_the_usage_error_of_the_full_parser(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cli._UsageError) as error:
        cli.build_parser().parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error.value}\n")
    assert not any(tmp_path.iterdir())


def test_main_without_argv_reads_the_command_line(tmp_path, monkeypatch, capsys):
    out = tmp_path / "a.csv"
    monkeypatch.setattr(sys, "argv", ["ngcodes", "analyze", "--steps", "3", "--out", str(out)])
    assert main() == 0
    assert len(read_csv(out)[1]) == 3
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["ngcodes", "analyze", "--steps", "3"])
    assert main() == 1
    assert capsys.readouterr().err == "error: the following arguments are required: --out\n"


def test_argv_that_names_no_subcommand_keeps_the_full_parser_messages(capsys):
    names = ", ".join(f"'{name}'" for name in cli.COMMANDS)
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    assert main(["bogus"]) == 1
    assert capsys.readouterr().err == f"error: argument command: invalid choice: 'bogus' (choose from {names})\n"
    assert main(["--n", "3", "simulate"]) == 1
    assert capsys.readouterr().err == f"error: argument command: invalid choice: '3' (choose from {names})\n"
    with pytest.raises(SystemExit) as exit_:
        main(["-h", "simulate"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def edited_code(value, *path):
    """A valid n=4, s_max=1 code file with the field at ``path`` set to ``value``."""
    doc = json.loads(code_to_json(build_ngc(4, 1, 0)))
    field = doc
    for step in path[:-1]:
        field = field[step]
    field[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("document", [
    '{"n": 4}',
    '[1, 2]',
    '{"n": 2, "s_max": 0, "seed": 1, "components": [5]}',
    '{"n": 0, "s_max": -1, "seed": 1, "components": []}',
    '{"n": null, "s_max": 0, "seed": 1, "components": []}',
    '{"n": 1, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "entries": {"a": 1}}]}',
    edited_code(4.9, "n"),
    edited_code(True, "s_max"),
    edited_code(-3, "seed"),
    edited_code(1.5, "components", 1, "sigma"),
    '{"n": 1, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "windows": {"a": 1}}]}',
    '{"n": 2, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "windows": ["1", true]}]}',
    edited_code("0.5", "components", 1, "windows", 0),
    edited_code(True, "components", 0, "windows", 3),
    edited_code(None, "components", 1, "windows", 7),
    edited_code([[1.0, 0.5]] * 4, "components", 1, "windows"),
    edited_code([1.0] * 4, "components", 1, "windows"),
    '{"n": 2, "s_max": 0, "seed": 1, "components": [{"sigma": 0, "entries": ["1", "0", "0", true]}]}',
], ids=["keys-missing", "not-an-object", "component-not-an-object", "no-workers", "null-n", "entries-object",
        "float-n", "bool-s_max", "negative-seed", "float-sigma", "windows-object", "windows-string-and-bool",
        "window-string", "window-bool", "window-null", "windows-nested", "windows-too-short", "old-dense-strings"])
def test_verify_rejects_a_malformed_code_file(document, tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(document)
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_rejects_the_old_dense_format_as_a_malformed_component(tmp_path, capsys):
    ngc = build_ngc(4, 1, 0)
    dense = {"n": 4, "s_max": 1, "seed": 0,
             "components": [{"sigma": c.sigma, "entries": c.dense().reshape(-1).tolist()} for c in ngc.components]}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(dense, indent=2))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: component 0 is not an object holding sigma and windows\n")


def test_construct_at_n256_writes_n_sigma_plus_one_numbers_per_component(tmp_path, capsys):
    # the file is written first; seed 2 has components that fail the sampled audit, so construct then exits 2
    path = tmp_path / "code.json"
    assert main(["construct", "--n", "256", "--smax", "32", "--seed", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert "\nsigma=1: support ok, decodable ok, " in captured.out and ", exhaustive: 256 patterns\n" in captured.out
    assert ", decodable FAIL, max residual " in captured.out and ", sampled: 4096 patterns\n" in captured.out
    assert captured.err == "error: code file failed verification\n"
    assert path.stat().st_size < 5_000_000
    assert path.read_text().count("\n") == 1  # one compact JSON line
    doc = json.loads(path.read_text())
    assert [len(c["windows"]) for c in doc["components"]] == [256 * (sigma + 1) for sigma in range(33)]
    assert all(set(c) == {"sigma", "windows"} for c in doc["components"])


def test_top_level_help_is_for_users_not_readers_of_the_source(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "Exit codes" in text
    assert "``" not in text and "SETTINGS" not in text


def curve_rows(name, grid, values):
    return [(name, fmt(t), fmt(v)) for t, v in zip(grid, values)]


def analyze_csv(names, cluster, grid):
    rows = [row for name in names
            for row in curve_rows(name, grid, latency_curve(parse_scheme(name), grid + cluster.gamma, cluster).values)]
    return {"out.csv": csv_bytes(["scheme", "t", "prob"], rows)}


def simulate_csv(names, cluster, grid, trials, seed):
    results = {name: run_experiment(parse_scheme(name), trials, seed, cluster, grid + cluster.gamma) for name in names}
    rows = [row for name, result in results.items() for row in curve_rows(name, grid, result.curve.values)]
    load_rows = [(name, fmt(r.mean_load), fmt(r.p95_load), fmt(r.undecodable / trials))
                 for name, r in results.items()]
    return {"out.csv": csv_bytes(["scheme", "t", "prob"], rows),
            "out_loads.csv": csv_bytes(["scheme", "mean_load", "p95_load", "undecodable_rate"], load_rows)}


def gd_demo_csv(cluster, s_max, iterations, seed):
    dataset = make_dataset(64, 8, 0.1, seed)
    eta = default_learning_rate(dataset, iterations)
    run = run_descent(dataset, build_ngc(cluster.n, s_max, seed), iterations, eta, cluster, seed)
    rows = [(r.iteration, fmt(r.loss), fmt(r.recovery_error), r.decoded_sigma, fmt(r.latency)) for r in run.records]
    return {"out.csv": csv_bytes(["iter", "loss", "recovery_error", "decoded_sigma", "latency"], rows)}


def headline(**changes):
    return ClusterParams(**{"lam": 0.5, "rho": 0.5, "gamma": 0.0, "eps": 0.1, "p_e": 0.05, "n": 8, **changes})


HEADLINE_SCHEMES = ["uncoded", "gc:3", "ngc:3"]


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "--schemes", "uncoded,gc:3,ngc:3"],
     lambda: analyze_csv(HEADLINE_SCHEMES, headline(), np.linspace(2, 18, 100))),
    (["analyze", "--schemes", "uncoded,gc:3,ngc:3", "--pe", "1", "--t-min", "1e-300", "--t-max", "1e300",
      "--steps", "9"],
     lambda: analyze_csv(HEADLINE_SCHEMES, headline(p_e=1.0), np.linspace(1e-300, 1e300, 9))),
    (["analyze", "--schemes", "gc:255", "--n", "256", "--rho", "0", "--t-min", "-20", "--t-max", "200",
      "--steps", "45"],
     lambda: analyze_csv(["gc:255"], headline(n=256, rho=0.0), np.linspace(-20, 200, 45))),
    (["simulate", "--schemes", "uncoded,gc:3,ngc:3", "--trials", "3000", "--seed", "4", "--steps", "40"],
     lambda: simulate_csv(HEADLINE_SCHEMES, headline(), np.linspace(2, 18, 40), 3000, 4)),
    (["simulate", "--schemes", "uncoded,gc:3,ngc:3", "--pe", "1", "--trials", "500", "--steps", "10"],
     lambda: simulate_csv(HEADLINE_SCHEMES, headline(p_e=1.0), np.linspace(2, 18, 10), 500, 42)),
    (["gd-demo", "--n", "12", "--smax", "5", "--iterations", "60", "--seed", "3"],
     lambda: gd_demo_csv(headline(n=12), 5, 60, 3)),
    (["gd-demo", "--n", "12", "--smax", "0", "--iterations", "60", "--seed", "3"],
     lambda: gd_demo_csv(headline(n=12), 0, 60, 3)),
], ids=["analyze-headline", "analyze-extreme-grid", "analyze-gc255-negative-t", "simulate", "simulate-all-fail",
        "gd-demo-smax5", "gd-demo-smax0"])
def test_each_csv_is_byte_identical_to_the_csv_module_writer(argv, expected, tmp_path, capsys):
    # the library computes the values here and in the CLI alike, so only the formatting is compared
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()
    files = expected()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, content in files.items():
        assert (tmp_path / name).read_bytes() == content, name
