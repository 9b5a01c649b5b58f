import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngcodes import cli
from ngcodes.cli import main
from ngcodes.codes import load_code


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


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
    assert "4 components" in printed and "nesting ok" in printed
    ngc = load_code(out)
    assert ngc.n == 8 and ngc.s_max == 3 and ngc.seed == 42


def test_construct_roundtrip_bit_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["construct", "--n", "6", "--smax", "2", "--seed", "5", "--out", str(first)])
    main(["construct", "--n", "6", "--smax", "2", "--seed", "5", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()
    a, b = load_code(first), load_code(second)
    for x, y in zip(a.components, b.components):
        assert np.array_equal(x.entries, y.entries)


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
    doc["components"][2]["entries"] = [0.0] * 36
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2


def test_verify_missing_file_is_validation_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 1


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
    args = ["gd-demo", "--m", "24", "--c", "3", "--iterations", "15", "--smax", "2",
            "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schemes": "gc:2", "lambda": 1.0, "t-min": 1.0, "t-max": 9.0, "steps": 5,
    }))
    out = tmp_path / "from_config.csv"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 5

    out2 = tmp_path / "overridden.csv"
    assert main(["analyze", "--config", str(config), "--steps", "7", "--out", str(out2)]) == 0
    rows = read_csv(out2)[1]
    assert len(rows) == 7
    assert float(rows[0][1]) == 1.0  # t-min still from the config file


def test_config_file_must_be_json_object(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("[1, 2, 3]")
    assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1


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


def test_finish_times_that_overflow_their_waits_are_validation_errors(tmp_path, capsys):
    # 1/lam is finite, but the sum of eight exponential waits overflows: before
    # this was rejected, simulate reported 14% undecodable with no worker failing
    out = str(tmp_path / "x.csv")
    cluster = ["--n", "8", "--lambda", "3e-308", "--pe", "0"]
    for argv in (["simulate", "--schemes", "gc:7", *cluster, "--trials", "100"],
                 ["gd-demo", "--smax", "7", *cluster]):
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")


# any float, or None to leave the flag at its default so that valid runs stay common
ANY_FLOAT = st.none() | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def cli_invocations(draw):
    """Small invocations; FLAG=VALUE keeps negative values from reading as flags."""
    command = draw(st.sampled_from(["analyze", "simulate", "gd-demo"]))
    flags = {"n": draw(st.integers(-1, 10)), "seed": draw(st.integers(-1, 2**31))}
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
    return [command, *(f"--{name}={value!r}" for name, value in flags.items() if value is not None)]


@settings(max_examples=150, deadline=None)
@given(argv=cli_invocations())
@example(argv=["simulate", "--schemes=ngc:3", "--lambda=nan", "--trials=10"])
def test_exit_code_is_always_0_1_or_2(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("prop") / "out.csv"
    assert main([*argv, "--out", str(out)]) in (0, 1, 2)


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_gd_demo_that_diverges_fails_the_recovery_gate(tmp_path, capsys):
    # the recovery errors turn nan; a nan must not pass the gate
    out = tmp_path / "gd.csv"
    assert main(["gd-demo", "--eta", "1e300", "--iterations", "30", "--out", str(out)]) == 2
    assert "recovery error nan" in capsys.readouterr().err


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
