"""Command-line entry point.

Subcommands: simulate, reconstruct, study, fresnel, render, rerun.
Exit codes: 0 success, 1 usage error, 2 runtime error. Every dataset,
reconstruction, and study run writes a manifest.json recording argv, seed,
library versions, and sha256 hashes of inputs and outputs; `rerun` replays
a manifest into a scratch directory and verifies the hashes match. render
is a pure single-file transform and writes no manifest.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .config import (SCALAR_FIELDS, ImagingConfig, config_from_dict, config_hash, config_to_dict,
                     load_config, save_config, write_json)
from .forward import simulate
from .fresnel import (FresnelError, fresnel_config, load_fresnel, to_hz,
                      write_synthetic_foamdiel)
from .reconstruct import ReconstructionResult, count_components, reconstruct
from .scenes import resolve_scene
from .studies import load_study_spec, run_study


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------------
# Shared option plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="imaging config JSON")
    p.add_argument("--seed", type=int, help="override config rng_seed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config field (repeatable)")


def _overrides(args) -> dict:
    """The --set and --seed values, parsed as JSON where they parse (else strings)."""
    out = {}
    for entry in args.set:
        key, sep, raw = entry.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {entry!r}")
        if key not in SCALAR_FIELDS:
            raise UsageError(f"--set: unknown config field {key!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    if args.seed is not None:
        out["rng_seed"] = args.seed
    return out


def _build_config(args) -> ImagingConfig:
    cfg = load_config(args.config) if args.config else ImagingConfig()
    return config_from_dict({**config_to_dict(cfg), **_overrides(args)})


def _finish(out_dir: Path, command: str, argv, seed, inputs, outputs, t0) -> None:
    fileio.write_manifest(out_dir / "manifest.json", command, argv, seed,
                          inputs, outputs, time.perf_counter() - t0)


def _result_files(out: Path, config: ImagingConfig, result: ReconstructionResult,
                  vmin: float, vmax: float | None) -> list[Path]:
    """Write the standard reconstruction artifacts; return their paths."""
    paths = fileio.workspace_paths(out)
    save_config(out / "config.json", config)
    fileio.save_grid(paths["chi"], result.chi_cco, config_hash=config_hash(config))
    eps = result.eps_r.real
    if vmax is None:
        vmax = float(max(1.5, eps.max()))
    fileio.render_pgm(eps, vmin, vmax, paths["eps_pgm"])
    fileio.write_trace(paths["trace"], result.trace, result.grad_norms, result.update_norms,
                       result.clamped_counts, result.degenerate_counts)
    metrics = {
        "final_loss": {"state": result.final_loss.state, "data": result.final_loss.data,
                       "bound": result.final_loss.bound, "tv": result.final_loss.tv,
                       "bridge": result.final_loss.bridge, "total": result.final_loss.total},
        "rel_error": result.rel_error,
        "peak_eps": float(eps.max()),
        "min_eps": float(eps.min()),
        "components_above_1p5": count_components(eps, 1.5),
    }
    write_json(paths["metrics"], metrics)
    return [out / "config.json", paths["chi"], paths["eps_pgm"], paths["trace"],
            paths["metrics"]]


# ----------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    scene = resolve_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.rng_seed)
    sim = simulate(cfg, scene, snr_db=args.snr, rng=rng)
    save_config(out / "config.json", cfg)
    fileio.save_dataset(out / "data.emsca", sim.data, meta={"scene": args.scene})
    fileio.save_grid(out / "chi_true.grid", sim.chi_true, config_hash=config_hash(cfg))
    outputs = [out / "config.json", out / "data.emsca", out / "chi_true.grid"]
    inputs = [args.config] if args.config else []
    _finish(out, "simulate", argv, cfg.rng_seed, inputs, outputs, t0)
    return 0


def _cmd_reconstruct(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _build_config(args)
    data, _meta = fileio.load_dataset(args.data)
    truth = fileio.load_grid(args.truth) if args.truth else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = reconstruct(cfg, data, chi_true=truth)
    outputs = _result_files(out, cfg, result, args.vmin, args.vmax)
    inputs = [p for p in (args.config, args.data, args.truth) if p]
    _finish(out, "reconstruct", argv, cfg.rng_seed, inputs, outputs, t0)
    return 0


def _cmd_study(args, argv) -> int:
    t0 = time.perf_counter()
    spec = load_study_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_study(spec, out_dir=out)
    outputs = sorted(p for p in out.glob("*.csv"))
    _finish(out, "study", argv, spec.seed, [args.spec], outputs, t0)
    return 0


def _cmd_fresnel(args, argv) -> int:
    t0 = time.perf_counter()
    if args.write_synthetic:
        write_synthetic_foamdiel(args.write_synthetic, frequency=to_hz(args.freq),
                                 seed=args.seed if args.seed is not None else 7)
        if not args.file:
            return 0
    if not args.file:
        raise UsageError("fresnel: --file is required unless only --write-synthetic is used")
    dataset = load_fresnel(args.file, args.freq)
    over = _overrides(args)
    if args.cells:
        over.update(m1=args.cells, m2=args.cells)
    cfg = fresnel_config(dataset, **over)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = reconstruct(cfg, dataset.scattered(), array=dataset.array())
    outputs = _result_files(out, cfg, result, args.vmin, args.vmax)
    _finish(out, "fresnel", argv, cfg.rng_seed, [args.file], outputs, t0)
    return 0


def _cmd_render(args, argv) -> int:
    grid = fileio.load_grid(args.grid)
    values = grid.values.real + (1.0 if args.quantity == "eps" else 0.0)
    fileio.render_pgm(values, args.vmin, args.vmax, args.out)
    return 0


def _cmd_rerun(args, argv) -> int:
    manifest = fileio.load_manifest(args.manifest)
    orig_argv = list(manifest["argv"])
    out_dir = Path(args.out) if args.out else Path(args.manifest).parent / "rerun"
    replayed = _redirect_out(orig_argv, str(out_dir))
    code = main(replayed)
    if code != 0:
        print(f"rerun: replay exited with {code}", file=sys.stderr)
        return 2
    ok = True
    for path, want in manifest["outputs"].items():
        new_path = out_dir / Path(path).name
        got = fileio.sha256_file(new_path) if new_path.exists() else "<missing>"
        status = "ok" if got == want else "DIFFERS"
        ok &= got == want
        print(f"{status:8s} {new_path}")
    return 0 if ok else 2


def _redirect_out(argv: list[str], new_out: str) -> list[str]:
    argv = list(argv)
    for i, a in enumerate(argv):
        if a == "--out" and i + 1 < len(argv):
            argv[i + 1] = new_out
            return argv
        if a.startswith("--out="):
            argv[i] = f"--out={new_out}"
            return argv
    return argv + ["--out", new_out]


# ----------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="pdf-isp",
                     description="Physics-driven spectral inverse-scattering toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="solve a forward problem, save the dataset")
    _add_common(p)
    p.add_argument("--scene", required=True,
                   help="scene JSON path or preset 'name:eps[:scale]'")
    p.add_argument("--snr", type=float, default=float("inf"),
                   help="additive noise level in dB (default: noise free)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a dataset into a permittivity map")
    _add_common(p)
    p.add_argument("--data", required=True, help=".emsca dataset")
    p.add_argument("--truth", help="optional ground-truth .grid for error metrics")
    p.add_argument("--vmin", type=float, default=1.0)
    p.add_argument("--vmax", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("study", help="run a scripted study from a spec JSON")
    p.add_argument("--spec", required=True, help="study spec JSON")
    p.add_argument("--seed", type=int, help="override the study seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("fresnel", help="invert an experimental ASCII dataset")
    p.add_argument("--file", help="measurement file (.exp)")
    p.add_argument("--freq", type=float, default=5.0,
                   help="frequency to invert, Hz (values < 1e3 mean GHz); the 5 GHz "
                        "default balances resolution against contrast recovery")
    p.add_argument("--cells", type=int, help="inversion grid cells per side")
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--vmin", type=float, default=1.0)
    p.add_argument("--vmax", type=float, default=None)
    p.add_argument("--write-synthetic", metavar="PATH",
                   help="first write a synthetic bench-style file to PATH")
    p.add_argument("--out", default="fresnel_out")
    p.set_defaults(func=_cmd_fresnel)

    p = sub.add_parser("render", help="render a .grid file to 8-bit PGM")
    p.add_argument("--grid", required=True)
    p.add_argument("--quantity", choices=("eps", "chi"), default="eps")
    p.add_argument("--vmin", type=float, default=1.0)
    p.add_argument("--vmax", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("rerun", help="replay a manifest and verify output hashes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="directory for the replayed outputs")
    p.set_defaults(func=_cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:      # --help lands here with code 0
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FresnelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
