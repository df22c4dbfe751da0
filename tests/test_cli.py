import json
import math
import warnings

import pytest

from aoisim import cli, simkernel
from aoisim.cli import main


def run_cli(args):
    return main(args)


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["simulate", "--policy", "threshold", "--tau0", "0.901",
                    "--battery", "1", "--horizon", "2000", "--paths", "4",
                    "--seed", "7", "--checkpoints", "500", "1000", "2000",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mean_avg_aoi,stderr"
    assert len(lines) == 4
    # full round-trip precision: fields parse back to floats exactly
    t, mean, stderr = lines[-1].split(",")
    assert float(t) == 2000.0
    assert 0.5 < float(mean) < 2.0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["base_seed"] == 7
    assert manifest["parameters"]["tau0"] == 0.901
    assert manifest["tool_version"]
    assert "r.csv" in manifest["outputs"]
    assert "mean_avg_aoi=" in capsys.readouterr().out


def test_simulate_json_format_embeds_manifest(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["simulate", "--policy", "greedy", "--battery", "1",
                    "--horizon", "500", "--paths", "2", "--seed", "3",
                    "--out", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["subcommand"] == "simulate"
    # The backend that ran; not in the manifest, which the CSV outputs share.
    assert doc["backend"] == simkernel.BACKEND in ("c", "python")
    assert "backend" not in json.dumps(doc["manifest"])
    assert doc["n_paths"] == 2
    assert doc["series"][-1]["t"] == 500.0
    assert doc["mean_avg_aoi"] > 0.5


def test_simulate_validation_failure_exit_2(tmp_path, capsys):
    code = run_cli(["simulate", "--policy", "adaptive", "--k", "50",
                    "--battery", "10", "--horizon", "100", "--paths", "1",
                    "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "0 < beta < 1" in err
    assert not (tmp_path / "x.csv").exists()
    code = run_cli(["simulate", "--policy", "uniform", "--battery", "two",
                    "--horizon", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "invalid battery capacity" in capsys.readouterr().err


def test_simulate_unit_policy_wrong_battery_exit_2(tmp_path, capsys):
    code = run_cli(["simulate", "--policy", "threshold", "--tau0", "0.9",
                    "--battery", "inf", "--horizon", "100", "--paths", "1",
                    "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "capacity 1" in capsys.readouterr().err


def test_simulate_io_failure_exit_1(capsys):
    code = run_cli(["simulate", "--policy", "greedy", "--battery", "1",
                    "--horizon", "50", "--paths", "1", "--seed", "1",
                    "--out", "/proc/definitely/not/writable/out.csv"])
    assert code == 1


def test_simulate_update_log_has_gamma_column(tmp_path):
    logfile = tmp_path / "log.csv"
    code = run_cli(["simulate", "--policy", "threshold", "--tau0", "0.901",
                    "--battery", "1", "--horizon", "200", "--paths", "1",
                    "--seed", "5", "--out", str(tmp_path / "r.csv"),
                    "--update-log", str(logfile)])
    assert code == 0
    lines = logfile.read_text().strip().split("\n")
    assert lines[0] == "index,epoch,delay,gamma"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == float(first[2])  # S_1 == X_1
    assert float(first[2]) >= float(first[3])  # X >= gamma


def test_simulate_update_log_without_gamma_for_unbounded(tmp_path):
    logfile = tmp_path / "log.csv"
    code = run_cli(["simulate", "--policy", "uniform", "--period", "1",
                    "--battery", "inf", "--horizon", "50", "--paths", "1",
                    "--seed", "5", "--out", str(tmp_path / "r.csv"),
                    "--update-log", str(logfile)])
    assert code == 0
    assert logfile.read_text().splitlines()[0] == "index,epoch,delay"


def test_analytic_h_at_scalar(capsys):
    assert run_cli(["analytic", "--h-at", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == 1.0


def test_analytic_h_at_list(capsys):
    assert run_cli(["analytic", "--h-at", "0,0.901,2"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values[0] == 1.0
    assert values[1] == pytest.approx(0.9012, abs=5e-5)
    assert values[2] == pytest.approx(1.12676, abs=1e-5)


def test_analytic_optimal_threshold(capsys):
    assert run_cli(["analytic", "--optimal-threshold", "--tol", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_star"] == pytest.approx(0.901, abs=1e-3)
    assert doc["h_star"] == pytest.approx(0.9012, abs=5e-4)


@pytest.mark.parametrize("tol", ["1.5", "3", "10"])
def test_analytic_optimal_threshold_at_a_coarse_tol(capsys, tol):
    # A tol wider than the search's first step is no usage error.
    assert run_cli(["analytic", "--optimal-threshold", "--tol", tol]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["tau_star"] - 0.9012010) <= float(tol)


def test_analytic_idle_pmf(capsys):
    assert run_cli(["analytic", "--idle-pmf", "3"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values == pytest.approx([0.632121, 0.232544, 0.085548], abs=1e-6)


def test_analytic_moments(capsys):
    assert run_cli(["analytic", "--moments", "0.901"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean"] == pytest.approx(1.30720, abs=1e-4)
    assert doc["second_moment"] == pytest.approx(2.35606, abs=1e-4)


def test_analytic_gap_bound(capsys):
    assert run_cli(["analytic", "--gap-bound", "1", "100"]) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(
        0.0106038, abs=1e-7)


def test_analytic_requires_exactly_one_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["analytic"])
    assert exc.value.code == 2


def test_analytic_invalid_value_exit_2(capsys):
    assert run_cli(["analytic", "--idle-pmf", "0"]) == 2
    assert run_cli(["analytic", "--gap-bound", "50", "10"]) == 2
    assert run_cli(["analytic", "--h-at", "0.5,x"]) == 2
    assert run_cli(["analytic", "--h-at", "-1"]) == 2


@pytest.mark.parametrize("mode", [["--h-at", "nan"], ["--h-at", "0.5,inf"],
                                  ["--moments", "nan"],
                                  ["--optimal-threshold", "--tol", "nan"]])
def test_analytic_non_finite_input_exit_2(capsys, mode):
    # NaN would otherwise be printed as a bare NaN, which is not JSON.
    assert run_cli(["analytic", *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--policy", "uniform", "--battery", "1", "--checkpoints", "nan", "5"],
     "checkpoints must lie in (0, horizon]"),
    (["--policy", "uniform", "--battery", "3", "--period", "nan"],
     "period must be positive"),
    (["--policy", "threshold", "--battery", "1", "--tau0", "nan"],
     "tau0 must be non-negative"),
    (["--policy", "greedy", "--battery", "1", "--rate", "nan"],
     "rate must be positive"),
    # inf used to crash with an OverflowError; a huge finite rate would
    # try to hold about rate * horizon arrivals in memory.
    (["--policy", "greedy", "--battery", "1", "--rate", "inf"],
     "rate must be positive and finite"),
    (["--policy", "uniform", "--battery", "inf", "--rate", "1e300"],
     "rate * horizon must not exceed"),
], ids=["checkpoint", "period", "tau0", "rate", "rate-inf", "rate-huge"])
def test_simulate_nan_input_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    code = run_cli(["simulate", *flags, "--horizon", "10", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # Only configuration errors map to exit 2; a ValueError raised inside
    # the program is a bug and must surface as one.
    def broken(tol):
        raise ValueError("internal failure")
    monkeypatch.setattr(cli, "optimal_threshold", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run_cli(["analytic", "--optimal-threshold"])


def test_optimize_tau0_analytic(capsys, tmp_path):
    out = tmp_path / "opt.json"
    code = run_cli(["optimize", "--target", "tau0-analytic",
                    "--bracket", "0", "5", "--tol", "1e-6",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arg"] == pytest.approx(0.9012010, abs=1e-4)
    assert doc["value"] == pytest.approx(0.9012, abs=5e-5)
    saved = json.loads(out.read_text())
    assert saved["manifest"]["subcommand"] == "optimize"
    assert saved["arg"] == doc["arg"]


def test_optimize_tol_wider_than_the_bracket(capsys):
    # No interior point is probed: the search returns the better end.
    with pytest.warns(UserWarning, match="best endpoint"):
        code = run_cli(["optimize", "--target", "tau0-analytic",
                        "--bracket", "0", "5", "--tol", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["arg"], doc["value"]) == (0.0, 1.0)
    assert doc["flat_bracket"] is True
    assert doc["n_evaluations"] == 2


def test_optimize_bad_bracket_exit_2(capsys):
    code = run_cli(["optimize", "--target", "tau0-analytic",
                    "--bracket", "5", "0", "--tol", "1e-6"])
    assert code == 2
    code = run_cli(["optimize", "--target", "tau0-analytic",
                    "--bracket", "0", "5", "--tol", "0"])
    assert code == 2
    code = run_cli(["optimize", "--target", "uniform-period-b1",
                    "--bracket", "0.1", "inf", "--paths", "2",
                    "--horizon", "100"])
    assert code == 2


def _golden_count(lo, hi, tol):
    """Distinct objective calls of a golden-section search with
    hi - lo > tol: the two ends, the first two interior probes, and one
    new probe for every shrink after the first."""
    width, shrinks = hi - lo, 0
    while width > tol:
        width *= (math.sqrt(5.0) - 1.0) / 2.0
        shrinks += 1
    return shrinks + 3


@pytest.mark.parametrize("target,bracket", [
    ("uniform-period-b1", ("0.1", "1.5")),
    ("beta-b1", ("-0.5", "0.5")),
])
def test_optimize_simulated_targets(capsys, tmp_path, target, bracket):
    out = tmp_path / "optimum.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["optimize", "--target", target, "--bracket",
                        *bracket, "--tol", "1e-2", "--paths", "3",
                        "--horizon", "2000", "--seed", "4", "--out",
                        str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"target", "arg", "value", "flat_bracket",
                        "n_evaluations"}
    lo, hi = map(float, bracket)
    assert doc["target"] == target
    assert lo <= doc["arg"] <= hi
    assert doc["value"] > 0.5  # the universal lower bound on the mean age
    assert doc["n_evaluations"] == _golden_count(lo, hi, 1e-2)
    saved = json.loads(out.read_text())
    assert saved["manifest"]["subcommand"] == "optimize"
    assert saved["manifest"]["parameters"]["target"] == target
    assert {k: saved[k] for k in doc} == doc
    # The B=1 uniform objective rises over its whole bracket, so that
    # search ends at its lower end with the flatness warning.
    assert doc["flat_bracket"] == (target == "uniform-period-b1")
    assert [str(w.message) for w in caught] == (
        ["no interior improvement over the bracket; returning the best "
         "endpoint"] if doc["flat_bracket"] else [])


@pytest.mark.parametrize("target", ["uniform-period-b1", "beta-b1"])
@pytest.mark.parametrize("flags,message", [
    (["--horizon", "0"], "horizon must lie in"),
    (["--horizon", "nan"], "horizon must lie in"),
    (["--horizon", "2e7"], "horizon must lie in"),
    (["--paths", "0"], "n_paths must be >= 1"),
])
def test_optimize_simulated_bad_config_exit_2(capsys, tmp_path, target,
                                              flags, message):
    out = tmp_path / "optimum.json"
    code = run_cli(["optimize", "--target", target, "--bracket", "0.1",
                    "0.5", "--paths", "2", "--horizon", "100", *flags,
                    "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon,mean_range", [
    ("200", (0.4, 1.5)),
    ("500.7", (0.4, 1.5)),  # rounded checkpoints must not pass the horizon
    ("0.4", (0.19, 0.21)),  # no grid epoch before T: the mean age is T/2
], ids=["200", "500.7", "0.4"])
def test_reproduce_figure2_writes_series_and_manifest(tmp_path, horizon,
                                                      mean_range):
    outdir = tmp_path / "fig2"
    code = run_cli(["reproduce", "--figure", "2", "--out", str(outdir),
                    "--paths", "20", "--horizon", horizon, "--seed", "5"])
    assert code == 0
    single = (outdir / "fig2_single_path.csv").read_text()
    ensemble = (outdir / "fig2_ensemble.csv").read_text()
    assert single.splitlines()[0] == "t,mean_avg_aoi,stderr"
    ts = [float(line.split(",")[0])
          for line in ensemble.strip().splitlines()[1:]]
    assert ts[0] > 0 and all(a < b for a, b in zip(ts, ts[1:]))
    assert ts[-1] == float(horizon)
    last = ensemble.strip().splitlines()[-1].split(",")
    assert mean_range[0] < float(last[1]) < mean_range[1]
    manifest = json.loads((outdir / "fig2_manifest.json").read_text())
    assert manifest["parameters"]["figure"] == 2
    assert set(manifest["outputs"]) == {"fig2_single_path.csv",
                                        "fig2_ensemble.csv"}


def test_reproduce_figure3_schema(tmp_path):
    outdir = tmp_path / "fig3"
    code = run_cli(["reproduce", "--figure", "3", "--out", str(outdir),
                    "--paths", "3", "--horizon", "2000", "--seed", "5"])
    assert code == 0
    lines = (outdir / "fig3_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "k,B,beta,mean_gap,stderr,gap_bound"
    assert len(lines) == 9  # 2 k-values x 4 capacities
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(math.log(30) / 30)


def test_reproduce_figure5_three_policies(tmp_path):
    outdir = tmp_path / "fig5"
    code = run_cli(["reproduce", "--figure", "5", "--out", str(outdir),
                    "--paths", "3", "--horizon", "1000", "--seed", "5"])
    assert code == 0
    for name in ("uniform", "adaptive", "threshold"):
        assert (outdir / f"fig5_{name}.csv").exists()


@pytest.mark.parametrize("figure", ["2", "3", "5"])
@pytest.mark.parametrize("flag,value,message", [
    ("--paths", "0", "n_paths must be >= 1"),
    ("--paths", "-3", "n_paths must be >= 1"),
    ("--horizon", "0", "horizon must lie in (0, 1e+07]"),
    ("--horizon", "-5", "horizon must lie in (0, 1e+07]"),
])
def test_reproduce_explicit_non_positive_exit_2(tmp_path, capsys, figure,
                                                flag, value, message):
    # An explicit 0 is an error, not a request for the preset default.
    others = {"--paths": "2", "--horizon": "50"}
    others[flag] = value
    code = run_cli(["reproduce", "--figure", figure,
                    "--out", str(tmp_path / "out"),
                    "--paths", others["--paths"],
                    "--horizon", others["--horizon"]])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / f"fig{figure}_manifest.json").exists()


def test_reproduce_rerun_is_byte_identical(tmp_path):
    # criterion-9 mechanism at reduced scale; the acceptance suite repeats
    # this at the preset defaults
    outdir = tmp_path / "repro"
    args = ["reproduce", "--figure", "4", "--out", str(outdir),
            "--paths", "2", "--horizon", "500", "--seed", "9"]
    assert run_cli(args) == 0
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert run_cli(args) == 0
    second = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert first == second
    assert len(first) == 4  # three series + manifest


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--policy", "nope", "--battery", "1",
                 "--horizon", "10", "--out", "x.csv"])
    assert exc.value.code == 2
