"""Command-line front end: simulation, analytics, figure presets, and
numeric optimization with machine-readable output.

Contracts fixed here:

* exit codes: 0 success, 1 runtime/I-O failure, 2 usage or validation.
* CSV schemas: convergence series ``t,mean_avg_aoi,stderr``; sweeps
  ``k,B,beta,mean_gap,stderr,gap_bound``; update logs
  ``index,epoch,delay[,gamma]``. Headers always present, '.' decimal,
  no locale.
* every numeric value is printed with full round-trip precision;
* every output file is written atomically (temp + rename) and is
  accompanied by (or embeds) a manifest sufficient to re-derive it;
* no environment variables: everything is a flag, so the manifest is
  complete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, simkernel
from .analytics import (
    adaptive_gap_bound,
    idle_interval_pmf,
    inter_update_moments,
    optimal_threshold,
    threshold_average_aoi,
)
from .arrivals import derive_seed, sample_path
from .policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
)
from .runner import (
    compare_unit_battery,
    optimize_scalar,
    run_ensemble,
    sweep_battery,
    unit_beta_objective,
    unit_uniform_period_objective,
)
from .simkernel import SimConfig, _check_horizon, _unit_gammas, run_path

DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    """Shortest representation that parses back exactly."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _manifest(subcommand: str, args: argparse.Namespace,
              outputs: list[str]) -> dict:
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "subcommand") and v is not None}
    return {
        "subcommand": subcommand,
        "parameters": params,
        "base_seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": [os.path.basename(p) for p in outputs],
    }


def _series_rows(result) -> list[list]:
    return [[t, m, s] for t, m, s in zip(result.checkpoints,
                                         result.checkpoint_means,
                                         result.checkpoint_stderrs)]


def _fig_checkpoints(horizon: float, n: int = 40) -> np.ndarray:
    """Up to n rounded log-spaced checkpoints in (0, horizon], the last one
    the horizon itself."""
    start = max(1.0, horizon / 100.0)
    ts = np.unique(np.rint(np.geomspace(start, horizon, n)))
    return np.append(ts[(ts > 0) & (ts < horizon)], horizon)


# ---------------------------------------------------------------------------
# simulate

def _parse_battery(text: str) -> int | None:
    if text.lower() in ("inf", "infinite", "unbounded"):
        return None
    try:
        cap = int(text)
    except ValueError:
        raise ConfigError(f"invalid battery capacity {text!r}") from None
    if cap < 1:
        raise ConfigError("battery capacity must be a positive integer or inf")
    return cap


def _policy_from_args(args) -> object:
    name = args.policy
    if name == "uniform":
        return BestEffortUniform(period=args.period)
    if name == "adaptive":
        return EnergyAwareAdaptive(k=args.k)
    if name == "threshold":
        if args.tau0 is None:
            raise ConfigError("threshold policy requires --tau0")
        return ThresholdUnitBattery(tau0=args.tau0)
    if name == "adaptive-b1":
        if args.beta is None:
            raise ConfigError("adaptive-b1 policy requires --beta")
        return AdaptiveUnitBattery(beta=args.beta)
    if name == "greedy":  # update at every arrival
        return ThresholdUnitBattery(tau0=0.0)
    raise ConfigError(f"unknown policy {name!r}")


def cmd_simulate(args) -> int:
    policy = _policy_from_args(args)
    capacity = _parse_battery(args.battery)
    config = SimConfig(policy=policy, capacity=capacity,
                       horizon=args.horizon, seed=args.seed, rate=args.rate)
    config.validate()
    checkpoints = args.checkpoints if args.checkpoints else [args.horizon]
    # Path 0's arrivals, drawn once for the ensemble and the update log;
    # a path count below 1 is refused by the ensemble before any draw.
    drawn = ((sample_path(derive_seed(args.seed, 0), args.horizon,
                          args.rate),)
             if args.update_log and args.paths >= 1 else ())
    result = run_ensemble(config, args.paths, checkpoints=checkpoints,
                          drawn=drawn)

    outputs = [args.out]
    if args.update_log:
        outputs.append(args.update_log)
    manifest = _manifest("simulate", args, outputs)

    if args.format == "csv":
        _write_series(args.out, result)
        _atomic_write(args.out + ".manifest.json", _json_text(manifest))
    else:
        def _num(x):  # strict JSON has no NaN
            return None if np.isnan(x) else float(x)
        doc = {
            "manifest": manifest,
            "backend": simkernel.BACKEND,
            "n_paths": result.n_paths,
            "mean_avg_aoi": result.mean_avg_aoi,
            "stderr": result.stderr,
            "delay_mean": _num(result.delay_mean),
            "delay_second_moment": _num(result.delay_second_moment),
            "series": [{"t": float(t), "mean_avg_aoi": float(m),
                        "stderr": float(s)} for t, m, s in _series_rows(result)],
        }
        _atomic_write(args.out, _json_text(doc))

    if args.update_log:
        # Path 0 of the ensemble, replayed on its arrivals.
        arrivals = drawn[0]
        log = run_path(config, arrivals)[1]
        header = ["index", "epoch", "delay"]
        rows: list[list] = [[i + 1, e, d] for i, (e, d)
                            in enumerate(zip(log.epochs, log.delays))]
        if capacity == 1 and log.n:
            # Delay from each S_{n-1} to the first arrival after it.
            header.append("gamma")
            for row, g in zip(rows, _unit_gammas(arrivals, log.epochs)):
                row.append(g)
        _atomic_write(args.update_log, _csv_text(header, rows))
        _atomic_write(args.update_log + ".manifest.json", _json_text(manifest))

    print(f"mean_avg_aoi={_fmt(result.mean_avg_aoi)} "
          f"stderr={_fmt(result.stderr)} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# analytic

def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid number list {text!r}") from None


def cmd_analytic(args) -> int:
    if args.h_at is not None:
        values = [threshold_average_aoi(t) for t in _parse_float_list(args.h_at)]
        payload = values[0] if len(values) == 1 else values
    elif args.optimal_threshold:
        tau_star, h_star = optimal_threshold(args.tol)
        payload = {"tau_star": tau_star, "h_star": h_star}
    elif args.moments is not None:
        mean, second = inter_update_moments(args.moments)
        payload = {"tau0": args.moments, "mean": mean,
                   "second_moment": second}
    elif args.idle_pmf is not None:
        if args.idle_pmf < 1:
            raise ConfigError("--idle-pmf requires kmax >= 1")
        payload = [idle_interval_pmf(k) for k in range(1, args.idle_pmf + 1)]
    else:
        k, cap = args.gap_bound
        if not float(cap).is_integer():
            raise ConfigError("--gap-bound expects an integer battery size")
        payload = adaptive_gap_bound(k, int(cap))
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out:
        doc = {"manifest": _manifest("analytic", args, [args.out]),
               "result": payload}
        _atomic_write(args.out, _json_text(doc))
    return 0


# ---------------------------------------------------------------------------
# reproduce

def _write_series(path: str, result) -> None:
    _atomic_write(path, _csv_text(["t", "mean_avg_aoi", "stderr"],
                                  _series_rows(result)))


# Preset horizon and path count of each figure, for flags left out.
_PRESETS = {2: (500.0, 1000), 3: (1.0e5, 1000), 4: (1.0e5, 1),
            5: (1.0e5, 1000)}


def _reproduce_fig2(args, outdir: str, horizon: float,
                    paths: int) -> list[str]:
    checkpoints = _fig_checkpoints(horizon)
    config = SimConfig(policy=BestEffortUniform(period=1.0), capacity=None,
                       horizon=horizon, seed=args.seed)
    # Path 0 is drawn once for both ensembles; a tuple keeps no other path.
    drawn = (sample_path(derive_seed(args.seed, 0), horizon, config.rate),)
    single = run_ensemble(config, 1, checkpoints=checkpoints, drawn=drawn)
    ensemble = run_ensemble(config, paths, checkpoints=checkpoints,
                            drawn=drawn)
    files = [os.path.join(outdir, "fig2_single_path.csv"),
             os.path.join(outdir, "fig2_ensemble.csv")]
    _write_series(files[0], single)
    _write_series(files[1], ensemble)
    return files


def _reproduce_fig3(args, outdir: str, horizon: float,
                    paths: int) -> list[str]:
    cells = sweep_battery([1.0, 2.0], [30, 60, 100, 200],
                          horizon=horizon, n_paths=paths, base_seed=args.seed)
    rows = [[c.k, c.cap, c.beta, c.mean_gap, c.stderr, c.gap_bound]
            for c in cells]
    path = os.path.join(outdir, "fig3_sweep.csv")
    _atomic_write(path, _csv_text(
        ["k", "B", "beta", "mean_gap", "stderr", "gap_bound"], rows))
    return [path]


def _reproduce_compare(args, outdir: str, horizon: float,
                       paths: int) -> list[str]:
    checkpoints = _fig_checkpoints(horizon)
    results = compare_unit_battery(horizon=horizon, n_paths=paths,
                                   base_seed=args.seed,
                                   checkpoints=checkpoints)
    files = []
    for name, result in results.items():
        path = os.path.join(outdir, f"fig{args.figure}_{name}.csv")
        _write_series(path, result)
        files.append(path)
    return files


def cmd_reproduce(args) -> int:
    # Only a flag left out takes the preset: an explicit 0 is an error.
    preset_horizon, preset_paths = _PRESETS[args.figure]
    horizon = preset_horizon if args.horizon is None else args.horizon
    paths = preset_paths if args.paths is None else args.paths
    # Checked before the checkpoints are spaced out over (0, horizon].
    _check_horizon(None, horizon)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    if args.figure == 2:
        files = _reproduce_fig2(args, outdir, horizon, paths)
    elif args.figure == 3:
        files = _reproduce_fig3(args, outdir, horizon, paths)
    else:
        files = _reproduce_compare(args, outdir, horizon, paths)
    manifest_path = os.path.join(outdir, f"fig{args.figure}_manifest.json")
    _atomic_write(manifest_path,
                  _json_text(_manifest("reproduce", args, files)))
    print(f"wrote {len(files)} series + manifest to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    if args.target == "tau0-analytic":
        objective = threshold_average_aoi
    elif args.target == "uniform-period-b1":
        objective = unit_uniform_period_objective(
            horizon=args.horizon, n_paths=args.paths, base_seed=args.seed)
    else:
        objective = unit_beta_objective(
            horizon=args.horizon, n_paths=args.paths, base_seed=args.seed)
    optimum = optimize_scalar(objective, args.bracket, args.tol)
    payload = {
        "target": args.target,
        "arg": optimum.arg,
        "value": optimum.value,
        "flat_bracket": optimum.flat,
        "n_evaluations": len(optimum.evaluations),
    }
    sys.stdout.write(_json_text(payload))
    if args.out:
        doc = {"manifest": _manifest("optimize", args, [args.out]),
               **payload}
        _atomic_write(args.out, _json_text(doc))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisim",
        description="Age-of-information simulator and analytics for an "
                    "energy-harvesting status-update source")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run a policy ensemble")
    p.add_argument("--policy", required=True,
                   choices=["uniform", "adaptive", "threshold",
                            "adaptive-b1", "greedy"])
    p.add_argument("--period", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--battery", required=True,
                   help="capacity as a positive integer, or 'inf'")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--checkpoints", type=float, nargs="+", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--update-log", default=None,
                   help="also write path 0's update log as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form values as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h-at", default=None,
                       help="comma-separated tau0 list")
    group.add_argument("--optimal-threshold", action="store_true")
    group.add_argument("--moments", type=float, default=None)
    group.add_argument("--idle-pmf", type=int, default=None,
                       help="print the idle-interval pmf for k=1..kmax")
    group.add_argument("--gap-bound", type=float, nargs=2, default=None,
                       metavar=("K", "B"))
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("reproduce", help="run a figure preset")
    p.add_argument("--figure", type=int, required=True, choices=[2, 3, 4, 5])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("optimize", help="bracketed scalar optimization")
    p.add_argument("--target", required=True,
                   choices=["uniform-period-b1", "beta-b1", "tau0-analytic"])
    p.add_argument("--bracket", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--horizon", type=float, default=1.0e5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
