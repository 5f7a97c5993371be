"""nclp benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cw_norm --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ./src of the
checkout the script lives in.  BLAS is pinned to one thread before numpy is
imported.  Every time is reported at the reference speed of yardstick.py:
scaled by a calibration kernel timed next to it, so that a host that slows
down for a while does not move the figures.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the same metrics with units, the
environment, and where the full result was written.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 2          # extra set-ups in child processes before and again after
                          # the timed loop, for the setup_s median
MIN_PASSES = 2            # each task's latency is the median of at least 2 runs
SELF_TIME_NAMES = {"cli.parse": "cli.parse_s", "cli.report": "cli.report_s"}
DIGITS_CAP = 12           # machine reports carry 12 significant digits
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cw_norm", "classify", "cli_batch")

# latency is the wall time; scale turns it into seconds at the reference
# speed (yardstick.py), 1.0 where no calibration ran
Record = namedtuple("Record", "key label group latency verdict scale")


def pin_blas():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Put ./src first on the path and check that nclp really comes from there."""
    if not (SRC / "nclp" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no nclp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nclp
    if Path(nclp.__file__).resolve().parent != (SRC / "nclp").resolve():
        raise SystemExit(f"benchmark error: nclp imported from {nclp.__file__}")


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------


class Setup:
    """A workload with its generated tasks, warmed up, and the yardstick."""

    def __init__(self, workload, seed, tiny=False):
        import workloads
        import yardstick
        self.yardstick = yardstick.Yardstick()
        self.workdir = OUT / f"work-{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.wl = workloads.make(workload, str(self.workdir))
        self.tasks = self.wl.build(seed, tiny=tiny)
        warm = run_pass(self.wl, self.tasks[:1])[0]  # loads code paths and numpy's lazy parts
        if not warm.verdict.ok:
            print(f"warm-up task failed: {warm.verdict.reason}", file=sys.stderr)

    def close(self):
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


def run_pass(wl, tasks, tracer=None, mutate=None, yardstick=None):
    """Run tasks back to back; return one Record per task.

    A task that raises, or whose check raises, is a failed task.  `mutate`
    (used by the self-tests) may corrupt an output before it is checked.
    With a yardstick, the calibration kernel runs before every task and
    after the last, outside the tasks' times, and each record carries the
    scale to the reference speed.
    """
    import workloads
    rows, cal = [], []
    for task in tasks:
        if yardstick is not None:
            cal.append(yardstick.sample())
        if tracer is not None:
            tracer.begin_task(task.key)
        start = time.perf_counter()
        try:
            out, error = wl.run(task), None
        except Exception as exc:  # noqa: BLE001 - the task boundary records any failure
            out, error = None, exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_task()
        if error is None:
            try:
                if mutate is not None:
                    out = mutate(task, out)
                verdict = wl.check(task, out)
            except Exception as exc:  # noqa: BLE001
                verdict = workloads.Verdict(False, None, f"check raised {exc!r}")
        else:
            verdict = workloads.Verdict(False, None, f"task raised {error!r}")
        rows.append((task, latency, verdict))
    if yardstick is None:
        scales = [1.0] * len(rows)
    else:
        import yardstick as ys
        cal.append(yardstick.sample())
        scales = ys.local_scales(cal)
    return [Record(task.key, task.label, task.group, latency, verdict, scale)
            for (task, latency, verdict), scale in zip(rows, scales)]


def timed_loop(setup, seconds):
    """Whole passes, at least MIN_PASSES, until the task time at the
    reference speed reaches `seconds`.  Counting reference seconds, not
    wall seconds, makes the number of passes the same on a slow host."""
    records, passes = [], 0
    start = time.perf_counter()
    while True:
        records += run_pass(setup.wl, setup.tasks, yardstick=setup.yardstick)
        passes += 1
        if passes >= MIN_PASSES and sum(r.latency * r.scale for r in records) >= seconds:
            return records, passes, time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, samples): the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def digits(rel_err):
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))


def task_latencies(records, scaled=True):
    """Each task's latency: the median of its runs in the passes, each run
    at the reference speed (yardstick.py), or as wall time if not `scaled`."""
    by_task = {}
    for r in records:
        by_task.setdefault(r.key, []).append(r.latency * r.scale if scaled else r.latency)
    return {key: statistics.median(v) for key, v in by_task.items()}


def throughput(records, scaled=True):
    """Tasks per second of task time, each task at its latency."""
    lat = task_latencies(records, scaled)
    return len(lat) / sum(lat.values())


def end_to_end(records, setup_samples):
    """End-to-end metrics of the untraced loop.

    The latency metrics take one sample per task, the median of its runs
    at the reference speed (see task_latencies), so they see the same tasks
    however many passes fitted into the run.  ref_digits_mean is the mean
    over every checked run; the mean of each task group is reported beside
    it.
    """
    lat = list(task_latencies(records).values())
    errs = [r.verdict.rel_err for r in records if r.verdict.rel_err is not None]
    failed = sum(not r.verdict.ok for r in records)
    by_label, by_task, digits_by_group = {}, {}, {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.latency * r.scale)
        by_task.setdefault(r.key, []).append([r.latency, r.scale])
        if r.verdict.rel_err is not None:
            digits_by_group.setdefault(r.group, []).append(digits(r.verdict.rel_err))
    group_digits = {k: statistics.fmean(v) for k, v in digits_by_group.items()}
    tail_value, tail_pct, n = tail(lat)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (throughput(records), "1/s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail_value, "s"),
        "pass_frac": (1.0 - failed / len(records), "fraction"),
        "ref_digits_mean": (statistics.fmean(digits(e) for e in errs) if errs else DIGITS_CAP,
                            "digits"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    detail = {
        "by_label": {k: {"runs": len(v), "p50_s": statistics.median(v), "total_s": sum(v)}
                     for k, v in by_label.items()},
        "task_runs_wall_s_and_scale": by_task,
        "wall_tasks_per_s": throughput(records, scaled=False),
        "wall_task_p50_s": statistics.median(task_latencies(records, scaled=False).values()),
        "host_slowdown": statistics.median(1.0 / r.scale for r in records),
        "ref_digits_by_group": group_digits,
        "fail_frac": failed / len(records),
        "rel_err_max": max(errs) if errs else None,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "setup_samples_s": setup_samples,
    }
    return metrics, detail


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_metrics(tracer, traced, untraced, layer_map, workload):
    """Per-layer metrics of the traced pass, named as in BENCHMARK.json.

    Self times are at the reference speed: each span is scaled like the
    run of its task.  The cli subcommand medians and the untraced side of
    trace.overhead_frac come from the untraced loop.  Returns (metrics,
    zero predictions of the layer map that broke).
    """
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    names = list(units)
    values = dict.fromkeys(names, 0.0)
    for name, count in tracer.counters.items():
        if name in values:
            values[name] = float(count)
    scale = {r.key: r.scale for r in traced}
    for name, seconds in tracer.self_times(scale).items():
        key = SELF_TIME_NAMES.get(name, name + ".self_s")
        if key in values:
            values[key] = seconds
    if workload == "cli_batch":
        label = {r.key: r.label for r in untraced}
        by_sub = {}
        for key, latency in task_latencies(untraced).items():
            by_sub.setdefault(label[key], []).append(latency)
        for sub, lats in by_sub.items():
            values[f"cli.{sub}.p50_s"] = statistics.median(lats)
    # one traced pass against the untraced pass of median task time, so that
    # both sides are single runs of each task
    per_pass = len(traced)
    pass_times = [sum(r.latency * r.scale for r in untraced[i:i + per_pass])
                  for i in range(0, len(untraced), per_pass)]
    traced_time = sum(r.latency * r.scale for r in traced)
    values["trace.overhead_frac"] = 1.0 - statistics.median(pass_times) / traced_time
    values = {k: values[k] for k in names}
    broken = [k for k in layer_map["zero_predictions"].get(workload, []) if values[k] != 0]
    return {k: (v, units[k]) for k, v in values.items()}, broken


def traced_pass(setup, untraced, workload):
    """One more pass with the layer trace on.

    Returns (tracer, traced records, per-layer metrics, problems): a problem
    is a zero prediction of the layer map that broke, or a traced layer
    none of whose callables could be found.
    """
    import tracing
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(setup.wl, setup.tasks, tracer=tracer, yardstick=setup.yardstick)
    finally:
        tracer.uninstall()
    report, broken = layer_metrics(tracer, traced, untraced, layer_map, workload)
    problems = [f"layer map: {name} predicted 0 on {workload}" for name in broken]
    problems += [f"trace: no callable of {name} found" for name in tracer.broken_groups()]
    return tracer, traced, report, problems


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinning variable."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(workload, seed, load_before):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def setup_probe_times(workload, seed):
    """Time SETUP_PROBES fresh set-ups, each in its own interpreter and
    at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    pin_blas()
    load_before = os.getloadavg()[0]
    import_library()
    setup = Setup(args.workload, args.seed)
    # at the reference speed, scaled by kernel runs just after the set-up
    setup_own = (time.perf_counter() - t_start) * setup.yardstick.scale()
    try:
        if args.setup_probe:
            print(repr(setup_own))
            return 0
        setup_samples = [setup_own] + setup_probe_times(args.workload, args.seed)
        records, passes, elapsed = timed_loop(setup, args.seconds)
        setup_samples += setup_probe_times(args.workload, args.seed)
        metrics, detail = end_to_end(records, setup_samples)
        detail.update(passes=passes, loop_s=elapsed, tasks_per_pass=len(setup.tasks))
        all_records = list(records)
        problems = []
        if args.trace:
            tracer, traced, report, problems = traced_pass(setup, records, args.workload)
            all_records += traced
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            detail["trace_problems"] = problems
            detail["trace_unbound"] = tracer.unbound
        else:
            report = metrics
        failed = sum(not r.verdict.ok for r in all_records)
        env = environment(args.workload, args.seed, load_before)
    finally:
        setup.close()

    for r in all_records:
        if not r.verdict.ok:
            print(f"FAILED {r.label}: {r.verdict.reason}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    for target in detail.get("trace_unbound", []):
        print(f"trace: {target} not found, not traced", file=sys.stderr)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'fail_frac':34s} {detail['fail_frac']:.6g} fraction")
    worst = "basis_gap_max" if args.workload == "classify" else "rel_shortfall_max"
    print(f"{worst:34s} {detail['rel_err_max']!r}")
    for group, value in sorted(detail["ref_digits_by_group"].items(), key=lambda kv: kv[1]):
        print(f"{'ref_digits_mean of ' + group:34s} {value:.6g} digits")
    print(f"task_tail_s is p{detail['tail_percentile']:.1f} of {detail['tail_samples']} tasks "
          f"(each the median of its runs in {detail['passes']} passes, {detail['loop_s']:.1f} s)")
    print(f"host ran {detail['host_slowdown']:.3f}x the reference time; as wall time, "
          f"tasks_per_s {detail['wall_tasks_per_s']:.6g} 1/s, "
          f"task_p50_s {detail['wall_task_p50_s']:.6g} s")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"env": env, "detail": detail, **result}, indent=2),
                           encoding="utf-8")
    print(f"result written to {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
