"""One timed call of one workload in a fresh process: set-up, the call, the checks.

Started by run.py. It prints READY on stdout once set-up is done; with
--mode setup it exits there (run.py times process start to READY). With
--mode run it makes the workload's timed call, checks the output and
prints one JSON line with the outcome (and, traced, the spans). Anything
else goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    proto, sys.stdout = sys.stdout, sys.stderr

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.mode}-", dir=OUT))
    try:
        return run(args, proto, scratch)
    finally:
        shutil.rmtree(scratch)


def run(args, proto, scratch: Path) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.tiny, scratch)
    import pdfisp
    if Path(pdfisp.__file__).resolve().parent != SRC / "pdfisp":
        print(f"pdfisp imported from {pdfisp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("READY", file=proto, flush=True)
    if args.mode == "setup":
        return 0

    from tracing import Tracer, layer_metrics
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        output = tracer.wrap("bench.call", workload.call)() if tracer else workload.call()
    except Exception:
        traceback.print_exc()
        output = None
    call_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    result = {"ops": workload.ops_per_call, "failed": workload.ops_per_call, "call_s": call_s}
    if output is not None:
        outcome = workload.outcome(output)
        correct = True
        for c in outcome.checks:
            required = c.any_size or not args.tiny
            correct = correct and (c.ok or not required)
            status = "ok" if c.ok else ("FAIL" if required else "not required at this size")
            print(f"check {c.name}: {c.value:.6g} (limit {c.limit:.6g}) {status}",
                  file=sys.stderr)
        result.update(
            failed=outcome.failed_ops,
            correct=correct,
            fingerprint=outcome.fingerprint,
            metrics=(layer_metrics(tracer.spans) if tracer else
                     {"call_s": call_s, "rel_error": outcome.rel_error,
                      "peak_rss_mb": peak_rss_mb}))
    if tracer:
        result["spans"] = [asdict(s) for s in tracer.spans]
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
