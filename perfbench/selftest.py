"""Self-tests for the benchmark, at a tiny size (about half a minute in all).

    python3 perfbench/selftest.py

Checks that every workload runs and reports every named metric with its
unit, that three corrupted answers (an estimate times 1.01, a flipped
verdict, one changed report byte) each drive fail_frac above 0, that two
runs with the same seed give identical rel_shortfall_max and fail_frac, and
that the metrics printed are those BENCHMARK.json names.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import sys

import run

SEED = 7


def tiny_run(workload, passes=1, mutate=None, trace=False):
    """(end-to-end metrics, detail, layer metrics or None) for a tiny run."""
    setup = run.Setup(workload, SEED, tiny=True)
    try:
        records = []
        for k in range(passes):
            records += run.run_pass(setup.wl, setup.tasks,
                                    mutate=(lambda t, o, k=k: mutate(k, t, o)) if mutate else None)
        metrics, detail = run.end_to_end(records, [0.0])
        layers = None
        if trace:
            _, _, layers, problems = run.traced_pass(setup, records, workload)
            detail["trace_problems"] = problems
        return metrics, detail, layers
    finally:
        setup.close()


def main():
    run.pin_blas()
    run.import_library()
    import workloads

    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    bench = run.benchmark_spec()
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]

    for workload in run.WORKLOADS:
        metrics, detail, layers = tiny_run(workload, trace=True)
        for name, (value, unit) in {**metrics, **layers}.items():
            print(f"  {workload:10s} {name:34s} {value:.6g} {unit}")
        expect(list(metrics) == e2e_names, f"{workload}: prints every end-to-end metric")
        expect(list(layers) == layer_names, f"{workload}: prints every per-layer metric")
        expect(detail["fail_frac"] == 0, f"{workload}: fail_frac is 0 on clean answers")
        expect(not detail["trace_problems"], f"{workload}: every layer traced, layer-map zeros hold")

    corruptions = [
        ("cw_norm", 1, lambda wl: lambda k, t, o: wl.corrupt_estimate(o) if t.key == 0 else o,
         "estimate multiplied by 1.01"),
        ("classify", 1, lambda wl: lambda k, t, o: wl.flip_verdict(o) if t.key == 0 else o,
         "flipped verdict"),
        ("cli_batch", 2, lambda wl: lambda k, t, o: wl.corrupt_byte(o) if (k, t.key) == (1, 1) else o,
         "one changed report byte"),
    ]
    for workload, passes, make_mutate, what in corruptions:
        wl = workloads.make(workload, ".")
        _, detail, _ = tiny_run(workload, passes=passes, mutate=make_mutate(wl))
        expect(detail["fail_frac"] > 0, f"{workload}: {what} gives fail_frac > 0")

    for workload in ("cw_norm", "cli_batch"):
        first = tiny_run(workload)[1]
        second = tiny_run(workload)[1]
        same = (first["rel_err_max"], first["fail_frac"]) == (second["rel_err_max"], second["fail_frac"])
        expect(same, f"{workload}: same seed, same rel_shortfall_max and fail_frac")

    import tracing
    tracing.SPANS["selftest.missing"] = [("nclp.matcore", "no_such_function")]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        broken = tracer.broken_groups()
    finally:
        tracer.uninstall()
        del tracing.SPANS["selftest.missing"]
    expect(broken == ["selftest.missing"] and tracer.unbound == ["nclp.matcore.no_such_function"],
           "trace: a layer whose callables are gone is reported, not read as 0")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
