"""The four benchmark workloads: the aoisim command each one runs, the
ensembles that command simulates, and the checks on its outputs.

Each workload is one CLI invocation, repeated on fresh seeds for the
length of a run. Path i of an ensemble with base seed s runs on
derive_seed(s, i).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from aoisim.policies import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    EnergyAwareAdaptive,
    ThresholdUnitBattery,
)
from aoisim.simkernel import SimConfig, run_path

FIG3_K = (1.0, 2.0)
FIG3_B = (30, 60, 100, 200)
FIG5_PERIOD = 0.43
FIG5_BETA = -0.145
OPT_BRACKET = (0.1, 1.5)
OPT_TOL = 1e-3
TAU_STAR, H_STAR = oracles.threshold_optimum()


@dataclass(frozen=True)
class Ensemble:
    """n_paths paths of one configuration on seeds derive_seed(seed, i)."""

    policy: object
    capacity: int | None
    horizon: float
    n_paths: int


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    quick: dict
    argv: Callable[[int, Path, dict], list]
    ensembles: Callable[[dict], list]
    # Output checks of one command: (seed, out dir, size, reference_run)
    # -> problems found.
    check: Callable[[int, Path, dict, Callable], list]
    # Paths to replay against the reference: (size, out dir) ->
    # [(Ensemble, path indices)].
    samples: Callable[[dict, Path], list]
    # Simulated time summed over every path of one command: (size, out dir).
    sim_time: Callable[[dict, Path], float]


def _simulated(ensembles: list) -> float:
    return sum(e.horizon * e.n_paths for e in ensembles)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


def _optimum(out_dir: Path) -> dict:
    return json.loads((out_dir / "optimum.json").read_text())


def replay(seed: int, ens: Ensemble, indices, reference_run) -> list[str]:
    """Sampled paths must match the reference simulator bit for bit and
    conserve energy: arrivals = final level + updates + wasted."""
    problems = []
    for i in indices:
        cfg = SimConfig(policy=ens.policy, capacity=ens.capacity,
                        horizon=ens.horizon, seed=oracles.derive_seed(seed, i))
        summary, log = run_path(cfg)
        ref = reference_run(cfg.seed, ens.policy, ens.capacity, ens.horizon)
        tag = f"{ens.policy} B={ens.capacity} path {i}"
        if not np.array_equal(log.epochs, ref.epochs):
            problems.append(f"{tag}: epochs differ from the reference")
        if (summary.wasted_units, summary.infeasible_epochs,
                summary.final_level) != (ref.wasted, ref.infeasible,
                                         ref.final_level):
            problems.append(f"{tag}: waste/infeasible/level differ")
        if summary.arrivals_seen != (summary.final_level + summary.updates
                                     + summary.wasted_units):
            problems.append(f"{tag}: energy not conserved")
        if ref.n_arrivals != summary.arrivals_seen:
            problems.append(f"{tag}: arrival count differs")
    return problems


def _ends(n: int) -> tuple[int, ...]:
    return (0,) if n == 1 else (0, n - 1)


def _series_ok(ts: np.ndarray, horizon: float) -> bool:
    return bool(len(ts) and np.all(np.diff(ts) > 0) and ts[0] > 0
                and ts[-1] == horizon)


# ---------------------------------------------------------------------------
# fig2-uniform-inf

def _fig2_argv(seed, out, size):
    return ["reproduce", "--figure", "2", "--paths", str(size["paths"]),
            "--seed", str(seed), "--out", str(out)]


def _fig2_ensembles(size):
    policy = BestEffortUniform(period=1.0)
    return [Ensemble(policy, None, 500.0, 1),
            Ensemble(policy, None, 500.0, size["paths"])]


def _fig2_check(seed, out, size, reference_run):
    problems = []
    single = _fig2_ensembles(size)[0]
    _, s_rows = _read_csv(out / "fig2_single_path.csv")
    _, e_rows = _read_csv(out / "fig2_ensemble.csv")
    ts = s_rows[:, 0]
    if not _series_ok(ts, 500.0) or not np.array_equal(ts, e_rows[:, 0]):
        return ["fig2: checkpoints malformed"]
    ref = reference_run(oracles.derive_seed(seed, 0), single.policy, None,
                        500.0)
    expect = oracles.running_averages(ref.epochs, ts)
    if not np.allclose(s_rows[:, 1], expect, rtol=1e-12, atol=0.0):
        problems.append("fig2: single-path series differs from the "
                        "reference running averages")
    if not (np.all(np.isfinite(e_rows)) and np.all(e_rows[:, 2] > 0)
            and e_rows[-1, 1] >= 0.5):
        problems.append("fig2: ensemble series out of range")
    return problems


def _fig2_samples(size, out):
    ensemble = _fig2_ensembles(size)[1]
    return [(ensemble, _ends(ensemble.n_paths))]


# ---------------------------------------------------------------------------
# fig3-adaptive-sweep

def _fig3_argv(seed, out, size):
    return ["reproduce", "--figure", "3", "--paths", str(size["paths"]),
            "--horizon", repr(size["horizon"]), "--seed", str(seed),
            "--out", str(out)]


def _fig3_ensembles(size):
    return [Ensemble(EnergyAwareAdaptive(k=k), cap, size["horizon"],
                     size["paths"]) for k in FIG3_K for cap in FIG3_B]


def _fig3_check(seed, out, size, reference_run):
    problems = []
    header, rows = _read_csv(out / "fig3_sweep.csv")
    if header != ["k", "B", "beta", "mean_gap", "stderr", "gap_bound"]:
        return ["fig3: unexpected header"]
    cells = [(k, cap) for k in FIG3_K for cap in FIG3_B]
    if [(r[0], int(r[1])) for r in rows] != cells:
        return ["fig3: cells missing or out of order"]
    for (k, cap), (_, _, beta, gap, se, bound) in zip(cells, rows):
        if not math.isclose(beta, oracles.adaptive_beta(k, cap),
                            rel_tol=1e-12):
            problems.append(f"fig3 k={k} B={cap}: beta != k ln B / B")
        if not math.isclose(bound, oracles.adaptive_gap_bound(k, cap),
                            rel_tol=1e-12):
            problems.append(f"fig3 k={k} B={cap}: gap_bound off the formula")
        if not (se > 0 and gap >= -3.0 * se):
            problems.append(f"fig3 k={k} B={cap}: mean_gap {gap} below "
                            f"-3 stderr ({se})")
    return problems


def _fig3_samples(size, out):
    """For each k, the first path of the smallest battery and the last
    path of the largest."""
    t, n = size["horizon"], size["paths"]
    ends = ((FIG3_B[0], 0), (FIG3_B[-1], n - 1))
    return [(Ensemble(EnergyAwareAdaptive(k=k), cap, t, n), (i,))
            for k in FIG3_K for cap, i in ends]


# ---------------------------------------------------------------------------
# fig5-unit-compare

def _fig5_argv(seed, out, size):
    return ["reproduce", "--figure", "5", "--paths", str(size["paths"]),
            "--horizon", repr(size["horizon"]), "--seed", str(seed),
            "--out", str(out)]


def _fig5_ensembles(size):
    t, n = size["horizon"], size["paths"]
    return [Ensemble(BestEffortUniform(period=FIG5_PERIOD), 1, t, n),
            Ensemble(AdaptiveUnitBattery(beta=FIG5_BETA), 1, t, n),
            Ensemble(ThresholdUnitBattery(tau0=TAU_STAR), 1, t, n)]


def _fig5_check(seed, out, size, reference_run):
    problems = []
    t, n = size["horizon"], size["paths"]
    final = {}
    ts0 = None
    for name in ("uniform", "adaptive", "threshold"):
        _, rows = _read_csv(out / f"fig5_{name}.csv")
        if ts0 is None:
            ts0 = rows[:, 0]
        if not (_series_ok(rows[:, 0], t)
                and np.array_equal(rows[:, 0], ts0)):
            problems.append(f"fig5 {name}: checkpoints malformed")
        final[name] = rows[-1, 1]
    if problems:
        return problems
    if not oracles.near(final["threshold"], H_STAR,
                        oracles.threshold_scale(TAU_STAR, t), n, t):
        problems.append(f"fig5: threshold mean {final['threshold']} not "
                        f"near h(tau*) = {H_STAR}")
    u_ref = oracles.unit_uniform_mean(FIG5_PERIOD)
    if not oracles.near(final["uniform"], u_ref,
                        oracles.uniform_b1_scale(FIG5_PERIOD, t), n, t):
        problems.append(f"fig5: uniform mean {final['uniform']} not near "
                        f"p(2-q)/(2q) = {u_ref}")
    if not final["adaptive"] > final["threshold"]:
        problems.append("fig5: adaptive mean not above the threshold mean")
    if min(final.values()) < 0.5:
        problems.append("fig5: a mean is below the bound 1/2")
    return problems


def _fig5_samples(size, out):
    return [(ens, _ends(ens.n_paths)) for ens in _fig5_ensembles(size)]


# ---------------------------------------------------------------------------
# optimize-period-b1

def _opt_argv(seed, out, size):
    lo, hi = OPT_BRACKET
    return ["optimize", "--target", "uniform-period-b1",
            "--bracket", repr(lo), repr(hi), "--tol", repr(OPT_TOL),
            "--paths", str(size["paths"]), "--horizon", repr(size["horizon"]),
            "--seed", str(seed), "--out", str(out / "optimum.json")]


def _opt_ensembles(size, period=0.5):
    return [Ensemble(BestEffortUniform(period=period), 1, size["horizon"],
                     size["paths"])]


def _opt_check(seed, out, size, reference_run):
    problems = []
    doc = _optimum(out)
    t, n = size["horizon"], size["paths"]
    lo, hi = OPT_BRACKET
    arg, value = doc["arg"], doc["value"]
    if not lo <= arg <= hi:
        return [f"optimize: arg {arg} outside the bracket"]
    target = oracles.unit_uniform_mean(arg)
    if not oracles.near(value, target, oracles.uniform_b1_scale(arg, t), n, t):
        problems.append(f"optimize: value {value} not near "
                        f"p(2-q)/(2q) = {target} at p = {arg}")
    expect = oracles.golden_evaluations(lo, hi, OPT_TOL)
    if doc["n_evaluations"] != expect:
        problems.append(f"optimize: {doc['n_evaluations']} evaluations, "
                        f"golden section implies {expect}")
    return problems


def _opt_sim_time(size, out):
    """The optimizer runs its ensemble once per evaluation."""
    return _simulated(_opt_ensembles(size)) * _optimum(out)["n_evaluations"]


def _opt_samples(size, out):
    """The ensemble at the returned optimum."""
    ens = _opt_ensembles(size, _optimum(out)["arg"])[0]
    return [(ens, _ends(ens.n_paths))]


WORKLOADS = {w.name: w for w in (
    Workload("fig2-uniform-inf", {"paths": 3000}, {"paths": 300},
             _fig2_argv, _fig2_ensembles, _fig2_check, _fig2_samples,
             lambda size, out: _simulated(_fig2_ensembles(size))),
    Workload("fig3-adaptive-sweep", {"paths": 6, "horizon": 1.0e5},
             {"paths": 3, "horizon": 2.0e4},
             _fig3_argv, _fig3_ensembles, _fig3_check, _fig3_samples,
             lambda size, out: _simulated(_fig3_ensembles(size))),
    Workload("fig5-unit-compare", {"paths": 8, "horizon": 1.0e5},
             {"paths": 4, "horizon": 2.0e4},
             _fig5_argv, _fig5_ensembles, _fig5_check, _fig5_samples,
             lambda size, out: _simulated(_fig5_ensembles(size))),
    Workload("optimize-period-b1", {"paths": 2, "horizon": 2.5e3},
             {"paths": 2, "horizon": 1.0e3},
             _opt_argv, _opt_ensembles, _opt_check, _opt_samples,
             _opt_sim_time),
)}


def warm(workload: Workload) -> None:
    """First tiny call of every kernel the workload uses (where numba is
    present, this is where the kernels compile)."""
    for ens in workload.ensembles({"paths": 1, "horizon": 20.0}):
        run_path(SimConfig(policy=ens.policy, capacity=ens.capacity,
                           horizon=20.0, seed=1))
