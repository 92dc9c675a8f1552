"""Self-test of the benchmark harness on a tiny config (16x16 grid, 8 antennas, m_f 3).

    python3 perfbench/selftest.py

From the root of a checkout. It runs every workload through run.py,
untraced and traced, and checks the result line against BENCHMARK.json and
the layers each workload should reach. It feeds each check that holds on
any grid a corrupted output and expects that check to fail. It runs run.py
from a directory that holds only BENCHMARK.json and the benchmark, where it
must exit non-zero without a result. About half a minute on 2 cores. The
quality checks (rel_error bounds, 3 components, the 1% disk) are figures
of the default 64x64 config; on the tiny grid they are computed but not
required.
"""
from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import PATCHES, Tracer  # noqa: E402

FORWARD_LAYERS = {"forward.gd_applications", "forward.apply_gd_ms", "forward.solve_s",
                  "forward.solves"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert list(result) == ["correct", "attempted", "failed", "metrics"], result
            assert result["correct"] is True and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[group]}, units
            values = {name: m["value"] for name, m in result["metrics"].items()}
            assert all(math.isfinite(v) for v in values.values()), values
            if trace == 0:
                zero = set()
            elif workload == "recon-austria2":
                zero = FORWARD_LAYERS
            elif workload == "forward-austria5":
                zero = {m["name"] for m in spec[group]} - FORWARD_LAYERS - {
                    "forward.build_greens_s", "forward.incident_fields_s", "bench.traced_call_s"}
            else:
                zero = set()
            assert {n for n, v in values.items() if v == 0} == zero, (workload, values)
            print(f"ok  {workload} --trace {trace}: {len(values)} metrics")


def failing(outcome) -> list[str]:
    return [c.name for c in outcome.checks if c.any_size and not c.ok]


def expect_failure(outcome, fragment: str) -> None:
    names = failing(outcome)
    assert any(fragment in n for n in names), (fragment, names)
    print(f"ok  corrupted output fails '{fragment}'")


def test_checks_catch_corruption(scratch: Path) -> None:
    recon = workloads.ReconAustria2()
    recon.setup(3, True, scratch)
    first, second = recon.call(), recon.call()
    assert not failing(recon.outcome(first))
    assert recon.outcome(first).fingerprint == recon.outcome(second).fingerprint
    moved = copy.deepcopy(second)
    moved.chi_cco.values[0, 0] += 1e-12
    assert recon.outcome(moved).fingerprint != recon.outcome(first).fingerprint
    print("ok  a changed chi_cco changes the fingerprint run.py compares")
    rising = copy.deepcopy(second)
    rising.trace.reverse()
    expect_failure(recon.outcome(rising), "last loss / first loss")

    fwd = workloads.ForwardAustria5()
    fwd.setup(3, True, scratch)
    sim, e_tot = fwd.call()
    assert not failing(fwd.outcome((sim, e_tot)))
    d = sim.data.matrix.copy()
    d[0, 1] *= 1.001
    skewed = dataclasses.replace(sim, data=dataclasses.replace(sim.data, matrix=d))
    expect_failure(fwd.outcome((skewed, e_tot)), "reciprocity")
    off = dataclasses.replace(e_tot, views=e_tot.views * (1.0 + 1e-6))
    expect_failure(fwd.outcome((sim, off)), "state residual")

    study = workloads.StudyNoise()
    study.setup(3, True, scratch)
    rows, maps, out_dir = study.call()
    assert not failing(study.outcome((rows, maps, out_dir)))
    misreported = copy.deepcopy(rows)
    misreported[1]["rel_error"] += 1e-9
    expect_failure(study.outcome((misreported, maps, out_dir)), "|rel_error - reported|")
    errored = copy.deepcopy(rows)
    errored[2]["error"] = "RuntimeError: injected"
    outcome = study.outcome((errored, maps, out_dir))
    assert outcome.failed_ops == 1
    expect_failure(outcome, "maps captured")


def test_tracer_restores_package() -> None:
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in PATCHES]
    ops = importlib.import_module("pdfisp.spectral").SpectralOperators
    build = ops.__dict__["build"]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert [getattr(importlib.import_module(m), a) for m, a, _ in PATCHES] == originals
    assert ops.__dict__["build"] is build
    print("ok  tracer uninstall restores every patched name")


def test_fails_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("recon-austria2", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        test_result_lines(spec)
        test_checks_catch_corruption(scratch)
        test_tracer_restores_package()
        test_fails_without_sources(scratch)
    finally:
        shutil.rmtree(scratch)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
