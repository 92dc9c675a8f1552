"""pdfisp benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload recon-austria2 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Workloads: recon-austria2, forward-austria5,
study-noise (see README.md). Every timed call runs in a fresh process
(worker.py), so every call pays what a user's first call pays and no cache
carries over from one call to the next. Processes are started one after
another until the timed calls add up to --seconds and the workload's
minimum number of calls is reached. Set-up time is timed from process start
until the worker has imported pdfisp and built its inputs; processes that
only set up are added until there are SETUP_SAMPLES samples. Every metric is
the median over the processes. With --trace 1 the workers record spans
around the package's layers, the per-layer metrics are reported instead,
and the spans (name, start, end, parent) of every process are written to
perfbench/out/spans-<workload>-seed<seed>.json when the run ends.

Exits non-zero without a result when the checkout holds no pdfisp sources
or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {"setup_s": "s", "call_s": "s", "rel_error": "1", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _run_worker(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return seconds from start to READY and the rest of its stdout.

    The worker is killed if it is still running at `deadline`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return t_ready, rest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="16x16 grid, 8 antennas, m_f 3 (harness self-test only)")
    args = ap.parse_args()
    if not (HERE.parent / "src" / "pdfisp" / "__init__.py").is_file():
        print(f"no pdfisp sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2

    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace)]
    base += ["--tiny"] if args.tiny else []
    deadline = time.perf_counter() + DEADLINE_S
    setup_times, workers, timed = [], [], 0.0
    while len(workers) < WORKLOADS[args.workload].min_calls or timed < args.seconds:
        t_ready, rest = _run_worker(base + ["--mode", "run"], deadline)
        setup_times.append(t_ready)
        workers.append(json.loads(rest.strip().splitlines()[-1]))
        timed += workers[-1]["call_s"]
    while not args.trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(_run_worker(base + ["--mode", "setup"], deadline)[0])

    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([w.pop("spans") for w in workers]))
        print(f"spans of {len(workers)} processes written to {spans}", file=sys.stderr)
    done = [w for w in workers if "metrics" in w]
    if not done:
        raise RuntimeError("every timed call raised")
    fingerprints = {w["fingerprint"] for w in done}
    if len(fingerprints) > 1:
        print(f"outputs differ between processes: {len(fingerprints)} distinct",
              file=sys.stderr)
    metrics = {name: statistics.median(w["metrics"][name] for w in done)
               for name in done[0]["metrics"]}
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": all(w["correct"] for w in done) and len(fingerprints) == 1,
        "attempted": sum(w["ops"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(workers)} timed processes, {len(setup_times)} set-up samples, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
