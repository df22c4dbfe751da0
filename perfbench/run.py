#!/usr/bin/env python3
"""Benchmark of the aoisim command on four preset workloads.

    python3 perfbench/run.py --workload fig3-adaptive-sweep --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py              # all four workloads, one at a time
    python3 perfbench/run.py --quick      # all four, small sizes, one command

One workload runs per process. The process imports aoisim from src/ of
the checkout, measures set-up in fresh interpreters, then runs the
workload's command through aoisim.cli.main, each time on a new seed,
until --seconds have passed, checks the outputs, and prints every metric
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every command runs untraced and
then traced, and the metrics are the per-layer ones, with the overhead of
tracing. Results and spans go to perfbench/out/. See README.md.
"""

import os

# Single-threaded numeric libraries; must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
SEEDS_PER_RUN = 1_000_000


def _spec() -> dict:
    """Workloads, run length and metric units, as BENCHMARK.json fixes them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# Set-up as a user pays it: a cold import of aoisim.cli in a fresh
# interpreter plus a first tiny call of every kernel the workload uses.
# The benchmark's own modules load in between and are not timed.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import aoisim.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
t2 = time.perf_counter()
workloads.warm(workloads.WORKLOADS[sys.argv[3]])
print(repr(t1 - t0 + time.perf_counter() - t2))
"""


def _setup_sample(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _outputs(directory: Path) -> tuple[str, int]:
    """Digest and total size of every file the command wrote."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(path.name.encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def _environment() -> dict:
    import numpy
    from aoisim import simkernel

    jitted = hasattr(simkernel._uniform_path, "py_func")
    return {
        "backend": "numba" if jitted else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }


def _per_layer(traced: list, pairs: list) -> dict:
    """Per-command layer figures from the traced commands, given as
    (spans.Summary, counts, bytes written): times and counts are medians
    over commands, ratios come from the totals."""
    med = statistics.median

    def busy(name: str) -> float:
        return med(summary.total[name] for summary, _, _ in traced) / 1e9

    def own(name: str) -> float:
        return med(summary.own[name] for summary, _, _ in traced) / 1e9

    def count(key: str) -> int:
        return statistics.median_low(counts[key] for _, counts, _ in traced)

    def total(key: str) -> int:
        return sum(counts[key] for _, counts, _ in traced)

    def ns_per(name: str, key: str) -> float:
        ns = sum(summary.total[name] for summary, _, _ in traced)
        return ns / total(key) if total(key) else 0.0

    path_ms = [ns / 1e6 for summary, _, _ in traced for ns in summary.path_ns]
    p90 = (statistics.quantiles(path_ms, n=10)[8] if len(path_ms) > 1
           else path_ms[0])
    return {
        "arrivals.time_s": busy("arrivals.sample_path"),
        "arrivals.generated": count("generated"),
        "arrivals.ns_per_arrival": ns_per("arrivals.sample_path",
                                          "generated"),
        "simkernel.kernel_s": busy("simkernel.simulate_path"),
        "simkernel.epochs": count("epochs"),
        "simkernel.ns_per_epoch": ns_per("simkernel.simulate_path", "epochs"),
        "simkernel.updates": count("updates"),
        "simkernel.infeasible": count("infeasible"),
        "simkernel.wasted": count("wasted"),
        "simkernel.feasible_ratio": (total("updates") / total("epochs")
                                     if total("epochs") else 0.0),
        "simkernel.run_path_self_s": own("simkernel.run_path"),
        "simkernel.path_p50_ms": med(path_ms),
        "simkernel.path_p90_ms": p90,
        "aoi_metrics.reward_s": busy("aoi_metrics.accumulate_reward"),
        "runner.series_s": busy("runner.running_averages"),
        "runner.ensemble_self_s": own("runner.run_ensemble"),
        "runner.paths": count("paths"),
        "search.evaluations": count("evaluations"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": statistics.median_low(n for _, _, n in traced),
        "trace.overhead_pct": 100.0 * (med(b / a for a, b in pairs) - 1.0),
    }


def _command(cli, argv: list, tracer=None):
    """One aoisim command in-process: (exit status, wall seconds)."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - t0
    except (Exception, SystemExit) as exc:  # counted as a failed command
        return f"{type(exc).__name__}: {exc}", 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import aoisim.cli as cli
    import oracles
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = wl.quick if args.quick else wl.full
    seconds = args.seconds if args.seconds is not None else (
        0 if args.quick else _spec()["run_seconds"])
    setup = [_setup_sample(wl.name) for _ in range(SETUP_SAMPLES)]
    workloads.warm(wl)
    reference_run = oracles.load_reference(ROOT)
    env = _environment()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    # The optimizer warns whenever the bracket end wins, which is the
    # expected outcome of the B=1 period search.
    warnings.filterwarnings("ignore", message="no interior improvement")

    # Command j runs on base seed SEEDS_PER_RUN * seed + j, so a run's
    # median is taken over many inputs (the optimizer's work depends on
    # where the search wanders) and the same seed always gives the same
    # commands. With --trace 1 every command runs twice, untraced then
    # traced.
    tracer = spans.Tracer() if args.trace else None
    walls, rates, pairs, traced, trace_spans = [], [], [], [], []
    problems, samples = [], None
    attempted = failed = 0
    try:
        start = time.perf_counter()
        for j in itertools.count():
            if j and time.perf_counter() - start >= seconds:
                break
            seed = SEEDS_PER_RUN * args.seed + j
            argv = wl.argv(seed, work, size)
            for tr in (None, tracer) if tracer else (None,):
                code, wall = _command(cli, argv, tr)
                attempted += 1
                if code != 0:
                    failed += 1
                    print(f"{wl.name}: command failed: {code}",
                          file=sys.stderr)
                    break
                if tr is None:
                    walls.append(wall)
                    try:
                        problems += wl.check(seed, work, size, reference_run)
                        rates.append(wl.sim_time(size, work) / wall)
                        if samples is None:
                            samples = (seed, wl.samples(size, work))
                    except Exception as exc:  # malformed output is wrong
                        problems.append(f"check raised "
                                        f"{type(exc).__name__}: {exc}")
                    digest, nbytes = _outputs(work)
                else:
                    pairs.append((walls[-1], wall))
                    if _outputs(work)[0] != digest:
                        problems.append("tracing changed the outputs")
                    traced.append((spans.summarize(tracer.spans),
                                   tracer.counts, nbytes))
                    trace_spans.append(tracer.spans)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Reference replays are slow and allocate, so they come last.
        if samples is not None:
            for ens, indices in samples[1]:
                problems += workloads.replay(samples[0], ens, indices,
                                             reference_run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"{wl.name}: CHECK FAILED: {p}", file=sys.stderr)
    correct = bool(walls) and not problems
    if tracer is None and walls:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "sim_time_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    elif traced:
        metrics = _per_layer(traced, pairs)
        spans.write_csv(OUT / f"trace-{wl.name}-seed{args.seed}.csv",
                        trace_spans)
    else:
        metrics = {}
    units = {m["name"]: m["unit"]
             for m in _spec()["per_layer" if tracer else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(f"workload {wl.name} seed {args.seed}"
          f"{' quick' if args.quick else ''} trace {args.trace}: "
          f"{attempted} commands, {failed} failed")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("first command: aoisim " + " ".join(
        wl.argv(SEEDS_PER_RUN * args.seed, work, size)))
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    record = {"workload": wl.name, "seed": args.seed, "quick": args.quick,
              "size": size, "environment": env, "problems": problems,
              "walls": walls, "traced_pairs": pairs,
              "setup_samples": setup, **result}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    ok = True
    for name in (w["name"] for w in _spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
        ok = ok and result is not None and result["correct"] \
            and result["failed"] == 0
    print("all workloads correct" if ok
          else "SOME WORKLOAD FAILED OR IS WRONG")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="aoisim benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in _spec()["workloads"]],
                        help="run one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json; with --quick, one command)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, every check")
    args = parser.parse_args()
    if not (SRC / "aoisim" / "cli.py").is_file():
        print(f"error: no aoisim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
