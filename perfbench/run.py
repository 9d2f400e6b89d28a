"""The Snorlax benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {cold,replay,fleet} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from
``src/``, so there is nothing to build.  The seed picks the order in
which each pass sends its requests (see ``workloads.py``); set-up runs
several times and the median is ``setup_s``; one untimed request
warms the process up; then whole passes of requests run in a closed
loop from one client thread until ``--seconds`` have passed (and at
least ``MIN_PASSES`` passes ran).  Every
reply is checked against the bug's ground truth, and every repeated
("warm") reply against the first one.  A wrong, raising, rejected or
timed-out request counts as failed and makes the command exit 1.

Every time the benchmark reports is scaled to one host speed, the one
at which a fixed pure-Python reference loop takes
``workloads.REFERENCE_LOOP_S``:
each request (and each set-up) is bracketed by timings of that loop and
its wall and CPU times are multiplied by the reference time over their
mean.  On a shared host whose speed swings by 2x within seconds this is
what makes two runs of the same code agree; the times as the clock read
them are printed too, above the result line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones, which wrap every layer's public
functions (see ``layers.py``), and prints the per-layer metrics, each
layer's share of request time, the tracing overhead, and writes the
spans and counts to ``.bench_out/``.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# every run sends at least this many passes, however slow the machine
MIN_PASSES = 4
# the tail is the highest of these percentiles with >= 10 samples beyond
# it in a run of MIN_PASSES passes; fixing it per workload keeps it from
# jumping between bugs as the number of passes varies from run to run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_program() -> None:
    """Put the checkout's ``src/`` on the import path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(min_samples: int) -> float:
    """The highest percentile with at least ten of ``min_samples``
    samples beyond it."""
    for q in TAIL_PERCENTILES:
        if min_samples * (1 - q / 100) >= 10:
            return q
    return 50.0


def timings(latency, warm, cpu, setup, tail_q, warm_q) -> dict[str, float]:
    """The end-to-end time metrics of one run's request and set-up times."""
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_tail_ms": 1e3 * percentile(latency, tail_q),
        # one closed-loop client: primary requests per second of their time
        "throughput_per_s": len(latency) / sum(latency),
        "cpu_ms_per_request": 1e3 * sum(cpu) / len(cpu),
        "warm_p50_ms": 1e3 * statistics.median(warm),
        "warm_tail_ms": 1e3 * percentile(warm, warm_q),
    }


def end_to_end(workload, rec, setup) -> dict[str, float]:
    from workloads import REFERENCE_LOOP_S

    per_pass = len(workload.cases)
    tail_q = tail_percentile(MIN_PASSES * per_pass)
    # the first warm request per bug may only fill caches (untimed)
    warm_q = tail_percentile((MIN_PASSES * workload.warm_repeats - 1) * per_pass)
    metrics = timings(rec.latency, rec.warm, rec.cpu, [c.scaled for c in setup],
                      tail_q, warm_q)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["sim_trace_overhead_pct"] = workload.trace_overhead_pct()
    print(f"latency tail is p{tail_q:g} of {len(rec.latency)} requests; "
          f"warm tail is p{warm_q:g} of {len(rec.warm)} warm requests")
    loops = rec.host_loops + [t for clock in setup for t in clock.host_loops]
    print(f"reference loop: median {1e6 * statistics.median(loops):.1f} us over "
          f"{len(loops)} timings (min {1e6 * min(loops):.1f}, max {1e6 * max(loops):.1f}); "
          f"times are scaled to {1e6 * REFERENCE_LOOP_S:g} us")
    raw = timings(rec.raw["latency"], rec.raw["warm"], rec.raw["cpu"],
                  [c.raw for c in setup], tail_q, warm_q)
    print("unscaled: " + ", ".join(f"{name} {value:.4f}" for name, value in raw.items()))
    return metrics


def per_layer(workload, rec, untraced, tracer) -> dict[str, float]:
    from layers import SHARE_LAYERS, WARM_SHARE_LAYERS, layer_metrics

    metrics = layer_metrics(tracer, workload.search_runs)
    base = statistics.median(untraced.latency)
    traced = statistics.median(rec.latency)
    metrics["trace.overhead_pct"] = 100.0 * (traced - base) / base
    print(f"tracing overhead: traced {1e3 * traced:.1f} ms - untraced {1e3 * base:.1f} ms "
          f"= {1e3 * (traced - base):+.1f} ms per request (medians of "
          f"{len(rec.latency)} and {len(untraced.latency)} requests in alternating passes)")
    for kind, layers in (("latency", SHARE_LAYERS), ("warm", WARM_SHARE_LAYERS)):
        shares, wall = tracer.layer_seconds(kind)
        print(f"wall time of traced {kind} requests by layer, {1e3 * wall:.0f} ms in all:")
        for layer in (*layers, "request"):
            seconds = shares.get(layer, 0.0)
            print(f"  {layer:10s} {1e3 * seconds:10.1f} ms  {100 * seconds / wall:6.1f}%")
    stem = f"{workload.name}-{workload.seed}"
    tracer.write(OUT / f"spans-{stem}.jsonl", OUT / f"counts-{stem}.json")
    print(f"spans and counts written to {OUT.relative_to(ROOT)}/")
    return metrics


def measure(args, spec: dict, tmpdir: Path) -> int:
    from layers import LayerTracer
    from workloads import WORKLOADS, Recorder, SetupClock

    workload = WORKLOADS[args.workload](args.seed, tmpdir)
    setup = []
    for _ in range(workload.setup_repeats):
        setup.append(SetupClock())
        workload.setup(setup[-1])
    workload.warmup()
    # set-up's objects (the modules, the inputs the load generator keeps)
    # live for the whole run: keep them out of the cyclic collector, or
    # each full collection's pass over them lands on whichever request
    # crosses the allocation threshold and makes per-bug latency bimodal
    gc.collect()
    gc.freeze()

    rec = Recorder()
    untraced = tracer = None
    started = perf_counter()
    passes = 0
    if args.trace:
        # untraced and traced passes alternate, as many of each, so the
        # tracing overhead is not the host's change of speed
        untraced = Recorder()
        tracer = LayerTracer()
        rec.tracer = tracer
        while passes < MIN_PASSES or perf_counter() - started < args.seconds:
            workload.run_pass(untraced)
            tracer.install()
            try:
                workload.run_pass(rec)
            finally:
                tracer.uninstall()
            tracer.run_shadows()
            passes += 2
    else:
        while passes < MIN_PASSES or perf_counter() - started < args.seconds:
            workload.run_pass(rec)
            passes += 1
    wall = perf_counter() - started

    for recorder in (rec, untraced):
        for message in recorder.errors if recorder is not None else ():
            print(f"perfbench: FAILED {message}", file=sys.stderr)
    attempted = rec.attempted + (untraced.attempted if untraced else 0)
    failed = rec.failed + (untraced.failed if untraced else 0)
    correct = failed == 0 and bool(rec.latency) and bool(rec.warm)
    print(f"workload {args.workload}, seed {args.seed}: {len(rec.latency)} requests "
          f"and {len(rec.warm)} warm requests in {wall:.1f} s; set-up "
          f"{', '.join(f'{c.raw:.2f}' for c in setup)} s")
    print(f"error_rate {failed / attempted if attempted else 1.0:g} "
          f"({failed} of {attempted} attempted)")

    metrics: dict[str, float] = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if correct:
        if args.trace:
            metrics = per_layer(workload, rec, untraced, tracer)
        else:
            metrics = end_to_end(workload, rec, setup)
    result = {}
    for entry in wanted if correct else ():
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:32s} {value:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold", "replay", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its fleet server and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, spec, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
