"""Self-test of the benchmark's layer-to-end-to-end mapping.

Slows one layer's public function, ``repro.pt.decoder.decode_thread_trace``,
by a fixed busy-wait per call (from this file; the program is
untouched) and checks that the benchmark sees the change where
``baseline.json`` says it should:

* ``replay``: ``pt.decode_s`` grows by at least half the injected delay,
  and ``latency_p50_ms`` grows by more than its bound;
* ``fleet``: ``warm_p50_ms`` gets no worse than its bound allows,
  because warm reports are store reads and decode nothing.

    python3 perfbench/selftest.py

Each configuration runs ``run.py`` in its own process, ``PAIRS`` times,
alternating which side runs first; the checks compare medians, because
a shared host can change speed by a third between runs.  Exits 0 when
every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SEED = 1
SECONDS = 8
DELAY_MS = 2.0  # added to every decode_thread_trace call
PAIRS = 3


def delay_decode(delay_s: float) -> None:
    import repro.pt.decoder as decoder

    original = decoder.decode_thread_trace

    def delayed(*args, **kwargs):
        # busy-wait: a sleep's wake-up on a busy host overshoots by milliseconds
        deadline = perf_counter() + delay_s
        while perf_counter() < deadline:
            pass
        return original(*args, **kwargs)

    decoder.decode_thread_trace = delayed


def child(delay_ms: float, run_args: list[str]) -> int:
    """Run the benchmark in this process with decoding slowed down."""
    import run

    run.load_program()
    delay_decode(delay_ms / 1e3)
    return run.main(run_args)


def bench(workload: str, trace: int, delay_ms: float) -> dict:
    command = [
        sys.executable, str(HERE / "selftest.py"), "--child", str(delay_ms), "--",
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"selftest: benchmark failed: {' '.join(command[2:])}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=float, help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args()
    if args.child is not None:
        return child(args.child, [a for a in rest if a != "--"])

    bounds = {
        e["name"]: e["bound"]
        for e in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    configs = (("replay", 0), ("replay traced", 1), ("fleet", 0))
    samples = {0.0: [], DELAY_MS: []}
    for pair in range(PAIRS):
        delays = (0.0, DELAY_MS) if pair % 2 == 0 else (DELAY_MS, 0.0)
        for delay in delays:
            samples[delay].append({
                label: bench(label.split()[0], trace, delay)
                for label, trace in configs
            })
    runs = {
        delay: {
            label: {
                name: statistics.median(run[label][name] for run in found)
                for name in found[0][label]
            }
            for label, _ in configs
        }
        for delay, found in samples.items()
    }
    base, slow = runs[0.0], runs[DELAY_MS]
    injected = DELAY_MS / 1e3 * base["replay traced"]["pt.decode_calls"]
    checks = [
        (
            "replay pt.decode_s grows by >= half the injected delay",
            slow["replay traced"]["pt.decode_s"] - base["replay traced"]["pt.decode_s"]
            >= injected / 2,
            f"{base['replay traced']['pt.decode_s']:.4f} -> "
            f"{slow['replay traced']['pt.decode_s']:.4f} s/req "
            f"(injected {injected:.4f})",
        ),
        (
            "replay latency_p50_ms grows by more than its bound",
            slow["replay"]["latency_p50_ms"]
            > base["replay"]["latency_p50_ms"] * (1 + bounds["latency_p50_ms"]),
            f"{base['replay']['latency_p50_ms']:.1f} -> "
            f"{slow['replay']['latency_p50_ms']:.1f} ms",
        ),
        (
            "fleet warm_p50_ms gets no worse than its bound",
            slow["fleet"]["warm_p50_ms"]
            <= base["fleet"]["warm_p50_ms"] * (1 + bounds["warm_p50_ms"]),
            f"{base['fleet']['warm_p50_ms']:.3f} -> "
            f"{slow['fleet']['warm_p50_ms']:.3f} ms",
        ),
    ]
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
