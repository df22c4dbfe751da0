import dataclasses
import math
import signal
import warnings
import weakref

import numpy as np
import pytest

from aoisim import (
    AdaptiveUnitBattery,
    BestEffortUniform,
    ConfigError,
    EnergyAwareAdaptive,
    SimConfig,
    ThresholdUnitBattery,
    adaptive_beta,
    adaptive_gap_bound,
    compare_unit_battery,
    derive_seed,
    optimal_threshold,
    optimize_scalar,
    run_ensemble,
    run_path,
    sample_path,
    sweep_battery,
    threshold_average_aoi,
)
from aoisim import cli, runner, simkernel
from aoisim.aoi_metrics import running_averages
from aoisim.arrivals import sample_rows
from aoisim.runner import (
    DEFAULT_B1_BETA,
    DEFAULT_B1_UNIFORM_PERIOD,
    EnsembleResult,
    SweepCell,
    uniform_idle_runs,
    unit_beta_objective,
    unit_uniform_period_objective,
)
from aoisim.search import golden_section


def test_single_path_ensemble_degenerates_to_run_path():
    cfg = SimConfig(ThresholdUnitBattery(0.901), 1, 2000.0, seed=42)
    result = run_ensemble(cfg, 1)
    path_summary, _ = run_path(
        SimConfig(ThresholdUnitBattery(0.901), 1, 2000.0,
                  seed=derive_seed(42, 0)))
    assert result.mean_avg_aoi == path_summary.time_avg_aoi
    assert result.stderr == 0.0
    assert result.n_paths == 1


def test_ensemble_deterministic_and_seed_sensitive():
    cfg = SimConfig(BestEffortUniform(1.0), None, 500.0, seed=3)
    ts = [100.0, 250.0, 500.0]
    r1 = run_ensemble(cfg, 20, checkpoints=ts)
    r2 = run_ensemble(cfg, 20, checkpoints=ts)
    assert r1.mean_avg_aoi == r2.mean_avg_aoi
    assert np.array_equal(r1.checkpoint_means, r2.checkpoint_means)
    r3 = run_ensemble(SimConfig(BestEffortUniform(1.0), None, 500.0, seed=4), 20)
    assert r3.mean_avg_aoi != r1.mean_avg_aoi


def test_checkpoint_series_matches_horizon_average():
    cfg = SimConfig(ThresholdUnitBattery(0.0), 1, 1000.0, seed=12)
    result = run_ensemble(cfg, 5, checkpoints=[250.0, 1000.0])
    assert result.checkpoint_means[-1] == pytest.approx(result.mean_avg_aoi,
                                                        rel=1e-12)
    assert result.checkpoints[0] == 250.0
    assert len(result.checkpoint_stderrs) == 2


def test_checkpoints_must_lie_in_horizon():
    cfg = SimConfig(ThresholdUnitBattery(0.0), 1, 100.0, seed=12)
    with pytest.raises(ConfigError):
        run_ensemble(cfg, 2, checkpoints=[0.0, 50.0])
    with pytest.raises(ConfigError):
        run_ensemble(cfg, 2, checkpoints=[200.0])
    with pytest.raises(ConfigError):
        run_ensemble(cfg, 0)


def test_running_averages_prefix():
    summary, log = run_path(
        SimConfig(ThresholdUnitBattery(0.0), 1, 400.0, seed=2))
    ts = np.array([10.0, 107.5, 400.0])
    vals = running_averages(log, ts)
    from aoisim import UpdateLog, accumulate_reward
    for t, v in zip(ts, vals):
        inside = log.epochs[log.epochs <= t]
        expected = accumulate_reward(UpdateLog(epochs=inside), t).time_average
        assert v == pytest.approx(expected, rel=1e-12)


def test_running_averages_with_no_updates():
    from aoisim import UpdateLog
    vals = running_averages(UpdateLog(), np.array([2.0, 8.0]))
    assert np.allclose(vals, [1.0, 4.0])  # pure triangle t/2


def test_delay_moments_pooled():
    cfg = SimConfig(ThresholdUnitBattery(0.0), 1, 5000.0, seed=8)
    result = run_ensemble(cfg, 20)
    # Greedy delays are Exp(1): mean 1, second moment 2.
    assert result.delay_mean == pytest.approx(1.0, abs=0.03)
    assert result.delay_second_moment == pytest.approx(2.0, abs=0.1)
    assert result.n_delays > 90_000


def test_uniform_idle_runs_extraction():
    period = 0.5
    delays = np.array([1, 3, 1, 2, 4, 1]) * period
    runs = uniform_idle_runs(delays, period)
    assert runs.tolist() == [2, 1, 3]


def test_idle_run_collection_only_for_uniform():
    cfg = SimConfig(ThresholdUnitBattery(0.0), 1, 100.0, seed=1)
    with pytest.raises(ConfigError):
        run_ensemble(cfg, 1, collect_idle_runs=True)
    cfg = SimConfig(BestEffortUniform(1.0), None, 2000.0, seed=1)
    result = run_ensemble(cfg, 10, collect_idle_runs=True)
    counts = result.idle_run_counts
    assert counts is not None and counts.sum() > 0
    assert counts[0] == 0  # no zero-length runs


def test_optimize_scalar_parabola():
    opt = optimize_scalar(lambda x: (x - 1.3) ** 2, (0.0, 3.0), tol=1e-8)
    assert opt.arg == pytest.approx(1.3, abs=1e-6)
    assert not opt.flat
    assert opt.value == pytest.approx(0.0, abs=1e-10)


def test_optimize_scalar_analytic_threshold():
    opt = optimize_scalar(threshold_average_aoi, (0.0, 5.0), tol=1e-6)
    # true minimizer is 0.9012010 (0.901 at three decimals)
    assert opt.arg == pytest.approx(0.9012010, abs=1e-4)
    assert opt.value == pytest.approx(0.9012, abs=5e-5)


def test_optimize_scalar_flat_bracket_warns_and_returns_endpoint():
    with pytest.warns(UserWarning, match="endpoint"):
        opt = optimize_scalar(lambda x: x, (0.0, 1.0), tol=1e-4)
    assert opt.arg == 0.0
    assert opt.value == 0.0
    assert opt.flat


def test_optimize_scalar_bad_bracket():
    with pytest.raises(ConfigError):
        optimize_scalar(lambda x: x, (1.0, 1.0), tol=1e-3)


@pytest.mark.parametrize("search", [golden_section, optimize_scalar])
@pytest.mark.parametrize("bracket,tol", [
    ((1.0, 1.0), 1e-3), ((2.0, 1.0), 1e-3), ((math.nan, 1.0), 1e-3),
    ((0.0, math.nan), 1e-3), ((0.0, math.inf), 1e-3),
    ((-math.inf, 0.0), 1e-3), ((0.0, 1.0), 0.0), ((0.0, 1.0), -1.0),
    ((0.0, 1.0), math.nan),
])
def test_bad_bracket_or_tol_calls_no_objective(search, bracket, tol):
    calls = []
    with pytest.raises(ConfigError):
        if search is golden_section:
            search(calls.append, *bracket, tol)
        else:
            search(calls.append, bracket, tol)
    assert calls == []


def test_golden_section_ties_go_to_the_earlier_probe():
    # The ends are probed first, lo before hi, so a tie goes to an end.
    opt = golden_section(lambda x: 1.0, 0.0, 1.0, 0.1)
    assert (opt.arg, opt.value, opt.flat) == (0.0, 1.0, True)
    opt = golden_section(lambda x: max(1.0 - x, 0.25), 0.0, 1.0, 0.1)
    assert (opt.arg, opt.value, opt.flat) == (1.0, 0.25, True)
    assert sum(v == 0.25 for _, v in opt.evaluations) > 1
    opt = golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.1)
    assert not opt.flat and 0.0 < opt.arg < 1.0
    xs = [x for x, _ in opt.evaluations]
    assert xs == sorted(xs) and xs[0] == 0.0 and xs[-1] == 1.0


def test_golden_section_stops_where_floats_cannot_split_the_bracket():
    # Below the float spacing of the bracket, the probes meet its ends
    # before its width reaches tol: the search must stop there. The alarm
    # turns an endless loop into a failure.
    def endless(signum, frame):
        raise TimeoutError("golden_section did not stop")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(10)
    try:
        opt = golden_section(lambda x: (x - 1.3) ** 2, 0.0, 3.0, 1e-300)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    lo, hi = opt.bracket
    assert lo <= opt.arg <= hi and hi - lo < 1e-14
    assert opt.arg == pytest.approx(1.3, abs=1e-7) and not opt.flat


def test_simulated_objectives_use_common_random_numbers():
    obj = unit_uniform_period_objective(horizon=500.0, n_paths=5, base_seed=11)
    assert obj(0.8) == obj(0.8)  # same seeds, bit-identical
    obj2 = unit_beta_objective(horizon=500.0, n_paths=5, base_seed=11)
    assert obj2(-0.1) == obj2(-0.1)
    # the B=1 uniform objective increases over this bracket, so both runs
    # end at the endpoint with the documented flatness warning
    with pytest.warns(UserWarning):
        opt_a = optimize_scalar(obj, (0.3, 1.2), tol=0.05)
    with pytest.warns(UserWarning):
        opt_b = optimize_scalar(obj, (0.3, 1.2), tol=0.05)
    assert opt_a.arg == opt_b.arg
    assert opt_a.evaluations == opt_b.evaluations


def _count_draws(monkeypatch):
    """The (seed, horizon, rate) of every path drawn, in order: by each
    sample_path call of simkernel and cli, and by each row of runner's
    chunk draws. The rows that sample_rows draws again are not counted
    twice."""
    draws = []

    def counted(*args):
        draws.append(args)
        return sample_path(*args)

    def counted_rows(seeds, horizon, rate, fill):
        draws.extend((seed, horizon, rate) for seed in seeds)
        return sample_rows(seeds, horizon, rate, fill)

    for module in (simkernel, cli):
        monkeypatch.setattr(module, "sample_path", counted)
    monkeypatch.setattr(runner, "sample_rows", counted_rows)
    return draws


def test_sweep_battery_draws_each_path_once(monkeypatch):
    # The four cells run on one draw of each path and give, bit for bit,
    # what four separate ensembles on the same seeds give.
    draws = _count_draws(monkeypatch)
    cells = sweep_battery([1.0, 2.0], [30, 60], horizon=2000.0, n_paths=3,
                          base_seed=5)
    assert len(draws) == 3
    assert [(c.k, c.cap) for c in cells] == [(1.0, 30), (1.0, 60),
                                             (2.0, 30), (2.0, 60)]
    for cell in cells:
        alone = run_ensemble(SimConfig(EnergyAwareAdaptive(cell.k), cell.cap,
                                       2000.0, seed=5), 3)
        expected = SweepCell(k=cell.k, cap=cell.cap,
                             beta=adaptive_beta(cell.k, cell.cap),
                             mean_gap=alone.mean_gap, stderr=alone.stderr,
                             gap_bound=adaptive_gap_bound(cell.k, cell.cap))
        assert (np.array(dataclasses.astuple(cell)).tobytes()
                == np.array(dataclasses.astuple(expected)).tobytes()), cell


def test_sweep_battery_rejects_invalid_cells(monkeypatch):
    draws = _count_draws(monkeypatch)
    with pytest.raises(ConfigError, match="k=50, B=30"):
        sweep_battery([1.0, 50.0], [30, 60], horizon=2000.0, n_paths=3,
                      base_seed=5)
    assert draws == []


@pytest.mark.parametrize("k_values,cap_values", [([], [30, 60]),
                                                 ([1.0, 2.0], [])])
def test_sweep_battery_empty_grid(monkeypatch, k_values, cap_values):
    draws = _count_draws(monkeypatch)
    assert sweep_battery(k_values, cap_values, horizon=2000.0, n_paths=3,
                         base_seed=5) == []
    assert draws == []


@pytest.mark.parametrize("period,horizon", [(1.0, 400.0), (0.4, 1.0),
                                            (2.5, 300.0)])
def test_idle_run_counts_merge_every_path(period, horizon):
    # The histogram equals one bincount over the runs of all paths, with
    # a single zero bin when no run closes (period 0.4 at T=1).
    cfg = SimConfig(BestEffortUniform(period), None, horizon, seed=8)
    result = run_ensemble(cfg, 6, collect_idle_runs=True)
    runs = [uniform_idle_runs(run_path(SimConfig(
        cfg.policy, None, horizon, derive_seed(8, i)))[1].delays, period)
        for i in range(6)]
    expected = np.bincount(np.concatenate(runs), minlength=1)
    assert result.idle_run_counts.dtype == np.int64
    assert np.array_equal(result.idle_run_counts, expected)


def test_compare_unit_battery_smoke():
    results = compare_unit_battery(horizon=2000.0, n_paths=5, base_seed=4,
                                   checkpoints=[500.0, 2000.0])
    assert set(results) == {"uniform", "adaptive", "threshold"}
    for res in results.values():
        assert res.n_paths == 5
        assert len(res.checkpoint_means) == 2
        assert res.mean_avg_aoi > 0.5  # universal bound


def test_compare_unit_battery_draws_each_path_once(monkeypatch):
    # The three policies run on one draw of each path and reduce exactly
    # as three separate ensembles on the same seeds do.
    draws = _count_draws(monkeypatch)
    ts = [100.0, 700.0, 3000.0]
    shared = compare_unit_battery(horizon=3000.0, n_paths=4, base_seed=9,
                                  checkpoints=ts)
    assert len(draws) == 4
    policies = {
        "uniform": BestEffortUniform(period=DEFAULT_B1_UNIFORM_PERIOD),
        "adaptive": AdaptiveUnitBattery(beta=DEFAULT_B1_BETA),
        "threshold": ThresholdUnitBattery(tau0=optimal_threshold(1e-6)[0]),
    }
    assert list(shared) == list(policies)
    for name, policy in policies.items():
        alone = run_ensemble(SimConfig(policy, 1, 3000.0, seed=9), 4,
                             checkpoints=ts)
        for f in dataclasses.fields(EnsembleResult):
            assert np.array_equal(getattr(shared[name], f.name),
                                  getattr(alone, f.name)), (name, f.name)
    assert len(draws) == 16


@pytest.mark.parametrize("policy,cap", [
    (BestEffortUniform(0.7), None),
    (EnergyAwareAdaptive(1.0), 5),
    (AdaptiveUnitBattery(-0.2), 1),
    (ThresholdUnitBattery(0.901), 1),
])
def test_run_path_on_given_arrivals(policy, cap):
    cfg = SimConfig(policy, cap, 2500.0, seed=derive_seed(3, 2))
    drawn_here = run_path(cfg)
    given = run_path(cfg, arrivals=sample_path(cfg.seed, cfg.horizon,
                                               cfg.rate))
    assert given[0] == drawn_here[0]
    assert np.array_equal(given[1].epochs, drawn_here[1].epochs)


def test_ensemble_mean_respects_lower_bound():
    # One-sided statistical guard at eps = 0.01, T = 1e5, for every family.
    configs = [
        SimConfig(BestEffortUniform(1.0), None, 100_000.0, seed=21),
        SimConfig(EnergyAwareAdaptive(1.0), 50, 100_000.0, seed=22),
        SimConfig(ThresholdUnitBattery(0.901), 1, 100_000.0, seed=23),
    ]
    for cfg in configs:
        result = run_ensemble(cfg, 10)
        assert result.mean_avg_aoi >= 0.5 - 0.01


# The two simulated objectives, with brackets that take a search at
# tol=0.01 through 13 evaluations on 5 paths of T=500.
SEARCHES = [
    pytest.param(unit_uniform_period_objective, (0.3, 1.2), id="period"),
    pytest.param(unit_beta_objective, (-0.5, 0.5), id="beta"),
]
SEARCH_PATHS, SEARCH_HORIZON, SEARCH_SEED = 5, 500.0, 11


def _search(objective, bracket):
    """optimize_scalar on the objective, counting its calls; a search that
    ends at a bracket end warns, and that is not what is tested here."""
    calls = []

    def counted(x):
        calls.append(x)
        return objective(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        opt = optimize_scalar(counted, bracket, tol=0.01)
    return opt, len(calls)


@pytest.mark.parametrize("make,bracket", SEARCHES)
def test_search_is_bit_identical_with_and_without_drawn_paths(
        monkeypatch, make, bracket):
    # The kept paths change no bit of a search: a cap of 0 keeps none,
    # and a fresh objective at every evaluation draws every path anew.
    def search():
        opt, _ = _search(make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED),
                         bracket)
        return opt
    kept = search()
    monkeypatch.setattr(runner, "_DRAWN_BYTES", 0)
    none_kept = search()
    monkeypatch.undo()
    fresh, _ = _search(
        lambda x: make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED)(x), bracket)
    for other in (none_kept, fresh):
        assert (np.array([other.arg, other.value]).tobytes()
                == np.array([kept.arg, kept.value]).tobytes())
        assert other.flat == kept.flat
        assert (np.array(other.evaluations).tobytes()
                == np.array(kept.evaluations).tobytes())
    assert len(kept.evaluations) > 10


@pytest.mark.parametrize("make,bracket", SEARCHES)
@pytest.mark.parametrize("kept", [0, 2, SEARCH_PATHS])
def test_search_draws_kept_paths_once(monkeypatch, make, bracket, kept):
    # With room for the first `kept` paths, a search draws them once and
    # the others at every evaluation; the cap counts the bytes that each
    # kept path pins, and these paths share one chunk, so each is kept as
    # a copy of its own arrivals.
    assert runner.chunk_rows(SEARCH_HORIZON) > SEARCH_PATHS
    paths = [sample_path(derive_seed(SEARCH_SEED, i), SEARCH_HORIZON)
             for i in range(SEARCH_PATHS)]
    monkeypatch.setattr(runner, "_DRAWN_BYTES",
                        sum(path.nbytes for path in paths[:kept]))
    draws = _count_draws(monkeypatch)
    _, evaluations = _search(make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED),
                             bracket)
    assert evaluations > 10
    assert len(draws) == kept + (SEARCH_PATHS - kept) * evaluations
    assert draws[:SEARCH_PATHS] == [
        (derive_seed(SEARCH_SEED, i), SEARCH_HORIZON, 1.0)
        for i in range(SEARCH_PATHS)]


def test_objectives_on_one_stream_share_their_paths(monkeypatch):
    # The period and the beta objective on one (seed, horizon) keep one
    # store while either lives: each path is drawn once for both
    # searches, which find what each finds alone, bit for bit; the store
    # dies with the last of them.
    def alone(make, bracket):
        opt, _ = _search(make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED),
                         bracket)
        return opt
    want = [alone(*search.values) for search in SEARCHES]
    draws = _count_draws(monkeypatch)
    objectives = [make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED)
                  for make, _ in (search.values for search in SEARCHES)]
    store = weakref.ref(runner._store(SEARCH_SEED, SEARCH_HORIZON))
    got = [_search(objective, search.values[1])[0]
           for objective, search in zip(objectives, SEARCHES)]
    assert draws == [(derive_seed(SEARCH_SEED, i), SEARCH_HORIZON, 1.0)
                     for i in range(SEARCH_PATHS)]
    for g, w in zip(got, want):
        assert (np.array([g.arg, g.value]).tobytes()
                == np.array([w.arg, w.value]).tobytes())
        assert g.flat == w.flat
        assert (np.array(g.evaluations).tobytes()
                == np.array(w.evaluations).tobytes())
    assert len(store()) == SEARCH_PATHS
    # Another stream has a store of its own.
    assert runner._store(SEARCH_SEED + 1, SEARCH_HORIZON) is not store()
    assert runner._store(SEARCH_SEED, 2 * SEARCH_HORIZON) is not store()
    del objectives[0]
    assert store() is not None
    del objectives[0]
    assert store() is None


@pytest.mark.parametrize("make,bracket", SEARCHES)
def test_drawn_paths_are_unchanged_by_a_search(make, bracket):
    # The kernels only read the kept arrivals: after a whole search they
    # hold the bytes a fresh draw gives, each in a buffer of its own.
    objective = make(SEARCH_HORIZON, SEARCH_PATHS, SEARCH_SEED)
    _search(objective, bracket)
    drawn = runner._store(SEARCH_SEED, SEARCH_HORIZON)
    assert len(drawn) == SEARCH_PATHS
    for i, arrivals in enumerate(drawn):
        fresh = sample_path(derive_seed(SEARCH_SEED, i), SEARCH_HORIZON)
        assert arrivals.tobytes() == fresh.tobytes()
        assert arrivals.base is None and arrivals.nbytes == fresh.nbytes


@pytest.mark.parametrize("make,arg", [(unit_uniform_period_objective, 0.5),
                                      (unit_beta_objective, -0.1)])
@pytest.mark.parametrize("horizon,n_paths,message", [
    (math.nan, 3, "horizon"),
    (0.0, 3, "horizon"),
    (2e7, 3, "horizon"),
    (500.0, 0, "n_paths"),
])
def test_bad_search_config_draws_nothing(monkeypatch, make, arg, horizon,
                                         n_paths, message):
    draws = _count_draws(monkeypatch)
    objective = make(horizon, n_paths, 1)
    for _ in range(2):  # a first failure keeps nothing for the next call
        with pytest.raises(ConfigError, match=message):
            objective(arg)
    assert draws == []


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_bad_rate_draws_nothing(monkeypatch, rate):
    draws, drawn = _count_draws(monkeypatch), []
    cfg = SimConfig(BestEffortUniform(0.5), 1, 500.0, seed=1, rate=rate)
    with pytest.raises(ConfigError, match="rate"):
        run_ensemble(cfg, 3, drawn=drawn)
    assert draws == [] and drawn == []


def test_drawn_tuple_is_used_and_kept_as_it_is(monkeypatch):
    # A tuple hands the first paths over and keeps no path drawn after
    # them; the ensemble is the one that draws every path itself.
    cfg = SimConfig(BestEffortUniform(1.0), None, 500.0, seed=6)
    alone = run_ensemble(cfg, 4, checkpoints=[100.0, 500.0])
    draws = _count_draws(monkeypatch)
    drawn = (sample_path(derive_seed(6, 0), 500.0),)
    draws.clear()
    given = run_ensemble(cfg, 4, checkpoints=[100.0, 500.0], drawn=drawn)
    assert [d[0] for d in draws] == [derive_seed(6, i) for i in (1, 2, 3)]
    assert len(drawn) == 1
    for f in dataclasses.fields(EnsembleResult):
        assert np.array_equal(getattr(given, f.name), getattr(alone, f.name))


def test_simulate_update_log_draws_path_zero_once(monkeypatch, tmp_path):
    # One path with its update log is one draw; the series it writes is
    # the one written without the log.
    args = ["simulate", "--policy", "greedy", "--battery", "1",
            "--horizon", "1000", "--paths", "1", "--seed", "3"]
    assert cli.main([*args, "--out", str(tmp_path / "plain.csv")]) == 0
    draws = _count_draws(monkeypatch)
    assert cli.main([*args, "--out", str(tmp_path / "r.csv"), "--update-log",
                     str(tmp_path / "log.csv")]) == 0
    assert len(draws) == 1
    assert ((tmp_path / "r.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())
    assert (tmp_path / "log.csv").read_text().startswith(
        "index,epoch,delay,gamma\n")


@pytest.mark.parametrize("paths", [1, 7])
def test_figure2_draws_each_path_once(monkeypatch, tmp_path, paths):
    # fig2's one-path and full ensembles share path 0's draw, and write
    # what two ensembles that draw their own paths write.
    draws = _count_draws(monkeypatch)
    assert cli.main(["reproduce", "--figure", "2", "--out", str(tmp_path),
                     "--paths", str(paths), "--horizon", "300",
                     "--seed", "5"]) == 0
    assert len(draws) == paths
    monkeypatch.undo()
    cfg = SimConfig(BestEffortUniform(1.0), None, 300.0, seed=5)
    ts = cli._fig_checkpoints(300.0)
    for name, n in [("fig2_single_path.csv", 1), ("fig2_ensemble.csv", paths)]:
        cli._write_series(str(tmp_path / "expected.csv"),
                          run_ensemble(cfg, n, checkpoints=ts))
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / "expected.csv").read_bytes()), name


BACKENDS = ["c", "python"] if simkernel.BACKEND == "c" else ["python"]


def _plain_results(configs, n_paths, checkpoints, collect_idle_runs):
    """_run_policies' results from plain run_path(cfg, arrivals) calls,
    with each series row from aoi_metrics.running_averages, reduced by the
    same records."""
    ts = np.ascontiguousarray(checkpoints, dtype=np.float64)
    order = np.argsort(ts, kind="stable").astype(np.int64)
    records = [runner._Records(cfg, n_paths, ts, order,
                               cfg.policy.period if collect_idle_runs
                               else None) for cfg in configs]
    base = configs[0]
    for i in range(n_paths):
        arrivals = sample_path(derive_seed(base.seed, i), base.horizon,
                               base.rate)
        for cfg, rec in zip(configs, records):
            summary, log = run_path(cfg, arrivals)
            if rec.series is not None:
                rec.series[i] = running_averages(log, ts)
            rec.add(i, summary, log)
    return [rec.result() for rec in records]


def _result_bytes(result):
    """Every field of an EnsembleResult, arrays as bytes."""
    return [(f.name, value.tobytes() if isinstance(value, np.ndarray)
             else repr(value))
            for f in dataclasses.fields(result)
            for value in [getattr(result, f.name)]]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("configs,checkpoints,idle", [
    ([SimConfig(BestEffortUniform(1.0), None, 500.0, 8)],
     np.linspace(12.5, 500.0, 39), False),
    ([SimConfig(BestEffortUniform(DEFAULT_B1_UNIFORM_PERIOD), 1, 800.0, 3),
      SimConfig(AdaptiveUnitBattery(DEFAULT_B1_BETA), 1, 800.0, 3),
      SimConfig(ThresholdUnitBattery(0.901), 1, 800.0, 3),
      SimConfig(EnergyAwareAdaptive(1.0), 30, 800.0, 3)],
     [800.0, 3.5, 400.0, 3.5], False),
    ([SimConfig(EnergyAwareAdaptive(k), cap, 600.0, 4)
      for k in (1.0, 2.0) for cap in (30, 60)], (), False),
    ([SimConfig(BestEffortUniform(p), None, 700.0, 5) for p in (0.7, 1.3)],
     [700.0, 1.0], True),
], ids=["one", "shared-paths", "no-checkpoints", "idle-runs"])
def test_prepared_plans_give_the_plain_calls_result(backend, monkeypatch,
                                                    configs, checkpoints,
                                                    idle):
    # Each configuration's plan, resolved once, gives the ensemble that
    # plain run_path calls give, byte for byte, on every backend.
    monkeypatch.setattr(simkernel, "BACKEND", backend)
    plans = []
    monkeypatch.setattr(runner, "_Plan",
                        lambda *args: plans.append(1) or simkernel._Plan(*args))
    got = runner._run_policies(configs, 5, checkpoints, idle)
    assert len(plans) == len(configs)
    want = _plain_results(configs, 5, checkpoints, idle)
    assert [_result_bytes(r) for r in got] == [_result_bytes(r) for r in want]


@pytest.mark.parametrize("backend", BACKENDS)
def test_returned_logs_are_not_overwritten(backend, monkeypatch):
    # Each call fills a fresh epoch buffer: a log run_path returned keeps
    # its epochs through later calls, with or without a plan.
    monkeypatch.setattr(simkernel, "BACKEND", backend)
    cfg = SimConfig(BestEffortUniform(1.0), None, 300.0, 6)
    ts = np.array([300.0, 10.0])
    plan = simkernel._Plan(cfg.policy, None, 300.0, ts,
                           np.array([1, 0], np.int64), np.empty((4, 2)))
    paths = [sample_path(derive_seed(6, i), 300.0) for i in range(4)]
    logs = [run_path(cfg, paths[0])[1], run_path(cfg, paths[1], (plan, 1))[1]]
    kept = [log.epochs.tobytes() for log in logs]
    run_path(cfg, paths[2])
    run_path(cfg, paths[3], (plan, 3))
    run_path(cfg, paths[2], (plan, 2))
    assert [log.epochs.tobytes() for log in logs] == kept
    assert logs[0].epochs.tobytes() != logs[1].epochs.tobytes()
