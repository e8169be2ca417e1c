"""Benchmark of the powercycle pipeline, measured from outside the program.

    python3 perfbench/run.py --workload embed-accept --seed 0 --seconds 20 --trace 0

Runs one workload through the public harness (``harness.run_experiment``,
serial, one worker) on a seed list drawn from ``--seed``, checks every record,
and prints the end-to-end metrics (``--trace 0``) or, from a traced repeat of
the same trials, the per-layer metrics (``--trace 1``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from workloads import WORKLOADS, record_problems, verdict_ok

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
READY = "setup-ready"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_fraction": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed; the trial seeds derive from it")
    ap.add_argument("--seconds", type=float, required=True, help="run length; fixes the number of trials")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes and two trials, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args: argparse.Namespace):
    """Import the package from this checkout and validate the workload's
    config: the set-up a user pays before the first trial."""
    src = ROOT / "src"
    if not (src / "powercycle" / "__init__.py").is_file():
        sys.exit(f"error: no powercycle sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    from powercycle import harness

    if Path(harness.__file__).resolve().parent != src / "powercycle":
        sys.exit(f"error: imported powercycle from {harness.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    seeds = workload.trial_seeds(args.seed, args.seconds, args.toy)
    if args.trace:
        # The traced run repeats each trial, so it takes half the seed list.
        seeds = seeds[: (len(seeds) + 1) // 2]
    config = harness.ExperimentConfig(
        kind=workload.kind, params=workload.toy_params if args.toy else workload.params, seeds=seeds, workers=1
    )
    return harness, workload, config


def measure_setup(argv: list, speed: HostSpeed) -> list:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    once per repeat, with the host speed sampled around each."""
    times = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != READY:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append(elapsed)
        speed.sample()
    return times


def blas_threads() -> str:
    """OpenBLAS thread count of the loaded numpy, or 'unknown'."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its config
        blas = {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "workload_seed": seed,
    }


def timed_run(harness, config) -> tuple:
    """Wall time of one run_experiment call, persisting to a scratch dir
    inside the checkout."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        start = time.perf_counter()
        summary = harness.run_experiment(config, out_dir=out_dir)
        wall = time.perf_counter() - start
    return summary.records, wall


def calibrated_run(harness, config, speed: HostSpeed) -> tuple:
    """timed_run with the host speed sampled before the first trial and
    after each one. The wall time excludes the sampling."""
    speed.sample()
    original = harness._run_trial
    sampling = 0.0

    def run_then_sample(task):
        nonlocal sampling
        record = original(task)
        sampling += speed.sample()
        return record

    harness._run_trial = run_then_sample
    try:
        records, wall = timed_run(harness, config)
    finally:
        harness._run_trial = original
    return records, wall - sampling


def tail(values: list) -> tuple:
    """(value, label) of the highest percentile with at least ten trials
    beyond it; the maximum when there are too few trials for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"p100 (n={n}: fewer than 11 trials, so no percentile has ten beyond it)"
    return ordered[n - 11], f"p{100 * (n - 10) // n} (n={n}, ten trials beyond it)"


def cycle_problems(graph, cycle, eps: float) -> list:
    """Independent check of an embedded power cycle: distinct vertices, every
    pair at cyclic distance at most k adjacent, and at least (1-eps)N long."""
    import numpy as np

    verts = np.asarray(cycle.vertices, dtype=np.int64)
    problems = []
    if len(np.unique(verts)) != len(verts):
        problems.append("cycle repeats a vertex")
    if len(verts) < cycle.k + 2:
        problems.append(f"cycle of {len(verts)} vertices is too short to be a cycle")
    for off in range(1, cycle.k + 1):
        if len(verts) and not graph.adj[verts, np.roll(verts, -off)].all():
            problems.append(f"a pair at cyclic distance {off} is not an edge")
    if len(verts) < (1 - eps) * graph.n:
        problems.append(f"cycle on {len(verts)} of {graph.n} vertices misses (1-eps)N")
    return problems


def check_records(workload, config, records: list, problems: dict) -> None:
    for rec in records:
        for problem in record_problems(workload.kind, config.params, rec):
            problems.setdefault(rec["seed"], []).append(problem)


def stage_tally(records: list) -> dict:
    tally = Counter()
    for rec in records:
        measured = rec["measured"]
        tally["error" if "error" in measured else measured.get("stage", "ok" if rec["ok"] else "refused")] += 1
    return dict(sorted(tally.items()))


def records_sha256(harness, records: list) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(harness.TrialRecord.from_dict(rec).measured_bytes())
        digest.update(b"\n")
    return digest.hexdigest()


def report(line: str) -> None:
    print(line, flush=True)


def run_untraced(harness, workload, config, argv: list) -> tuple:
    setup_speed, trial_speed = HostSpeed(), HostSpeed()
    setup_raw = measure_setup(argv, setup_speed)
    records, wall_raw = calibrated_run(harness, config, trial_speed)
    problems: dict = {}
    check_records(workload, config, records, problems)
    trial_raw = [rec["elapsed"] for rec in records]
    trial_times = trial_speed.corrected(trial_raw)
    setup_times = setup_speed.corrected(setup_raw)
    # Persistence and bookkeeping between trials get the run's factor.
    wall = sum(trial_times) + (wall_raw - sum(trial_raw)) * trial_speed.run_factor()
    ok = sum(verdict_ok(workload.expect, config.params, rec) for rec in records)
    n = len(records)
    report(
        f"host speed: reference kernel {REFERENCE_KERNEL_S / trial_speed.run_factor():.4f} s "
        f"(median, trials) against {REFERENCE_KERNEL_S} s on the reference host"
    )
    metrics = {
        "setup_s": (
            statistics.median(setup_times),
            f"median of {len(setup_raw)} set-ups, host-corrected; raw {statistics.median(setup_raw)!r} s",
        ),
        "wall_s": (
            wall,
            f"one run_experiment call over {n} trials, persistence included, host-corrected; raw {wall_raw!r} s",
        ),
        "trial_s_p50": (
            statistics.median(trial_times),
            f"median, n={n}, host-corrected; raw {statistics.median(trial_raw)!r} s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "this process"),
        "verdict_ok_fraction": (ok / n, f"{ok}/{n} trials reached the expected verdict ({workload.expect})"),
    }
    for name, (value, note) in metrics.items():
        report(f"metric {name} = {value!r} {END_TO_END_UNITS[name]}  [{note}]")
    # A run has too few trials for a percentile with ten beyond it, and the
    # maximum of a few trials swings with the host, so the tail is printed
    # but not bounded.
    tail_value, tail_label = tail(trial_times)
    report(f"metric trial_s_tail = {tail_value!r} s  [{tail_label}; printed only]")
    return records, problems, {name: value for name, (value, _) in metrics.items()}


def run_traced(args, harness, workload, config) -> tuple:
    """Run the trials untraced, then again traced, and check that both give
    the same records."""
    from tracing import PER_LAYER, Tracer

    # The first trial in a process pays one-off costs that would otherwise
    # fall on the untraced pass alone. Its record is replayed at the end.
    warm_config = harness.ExperimentConfig(
        kind=config.kind, params=config.params, seeds=config.seeds[:1], workers=1
    )
    stored = timed_run(harness, warm_config)[0][0]
    records, wall = timed_run(harness, config)
    problems: dict = {}
    check_records(workload, config, records, problems)

    tracer = Tracer()
    with tracer.installed():
        traced, traced_wall = timed_run(harness, config)
    check_records(workload, config, traced, problems)
    for rec, again in zip(records, traced):
        if harness.TrialRecord.from_dict(rec).measured_bytes() != harness.TrialRecord.from_dict(again).measured_bytes():
            problems.setdefault(rec["seed"], []).append("traced record differs from the untraced one")
    for seed, graph, cycle, eps in tracer.cycles:
        for problem in cycle_problems(graph, cycle, eps):
            problems.setdefault(seed, []).append(f"embedded cycle: {problem}")
    tracer.cycles.clear()
    match, _ = harness.replay(warm_config, stored)
    if not match:
        problems.setdefault(stored["seed"], []).append("replay is not bit-exact")
    report(f"replay of seed {stored['seed']}: {'bit-exact' if match else 'MISMATCH'}")
    report(f"traced EmbedFailure stages: {json.dumps(dict(sorted(tracer.embed_failures.items())))}")

    per_trial = tracer.per_trial()
    n = len(per_trial)
    persist_s, persist_bytes = tracer.persist_totals()
    metrics = {name: statistics.fmean(row[name] for row in per_trial.values()) for name in PER_LAYER}
    metrics["harness.persist.s"] = persist_s / n
    metrics["harness.persist.bytes"] = persist_bytes / n
    metrics["tracing.wall_s"] = traced_wall
    metrics["tracing.untraced_wall_s"] = wall
    for name in PER_LAYER:
        basis = "whole run" if name.startswith("tracing.") else f"mean per trial, n={n}"
        report(f"layer {name} = {metrics[name]!r} {PER_LAYER[name]}  [{basis}]")
    report(f"tracing overhead: {traced_wall - wall:+.3f} s on {wall:.3f} s untraced")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path, {"workload": workload.name, "seed": args.seed, "trials": config.seeds})
    report(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return records, problems, metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    harness, workload, config = setup(args)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    report(f"workload {workload.name}: {workload.why}")
    report(f"closed loop, one client, {len(config.seeds)} trials, trace={args.trace}, trial seeds {config.seeds}")
    report(f"provenance {json.dumps(provenance(args.seed), sort_keys=True)}")
    if args.trace:
        records, problems, values = run_traced(args, harness, workload, config)
        from tracing import PER_LAYER as units
    else:
        records, problems, values = run_untraced(harness, workload, config, argv)
        units = END_TO_END_UNITS

    n = len(records)
    failed = len(problems)
    report(f"error_fraction = {failed / n!r}  [{failed}/{n} trials crashed or failed a check]")
    for seed, found in sorted(problems.items()):
        report(f"check failed, trial seed {seed}: {'; '.join(found)}")
    report(f"stage tally: {json.dumps(stage_tally(records))}")
    report(f"records_sha256 {records_sha256(harness, records)}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
