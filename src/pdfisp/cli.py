"""Command-line entry point.

Subcommands: simulate, reconstruct, study, fresnel, render, rerun.
Exit codes: 0 success, 1 usage error, 2 runtime error. simulate, reconstruct,
study and fresnel write their files into --out and return them (a
reconstruction's are read from its result; metrics.json is `result_metrics`);
`main` then writes the one manifest.json, recording argv, seed, library
versions, wall time and sha256 hashes of the inputs (a scene file included)
and of exactly those files. `rerun` checks the input hashes, replays into a
scratch directory and checks the output hashes; render writes no manifest.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import fileio
from .config import (SCALAR_FIELDS, ImagingConfig, config_from_dict, config_hash, config_to_dict,
                     load_config, save_config, write_json)
from .forward import simulate
from .fresnel import (FresnelError, fresnel_reconstruct, load_fresnel, to_hz,
                      write_synthetic_foamdiel)
from .reconstruct import ReconstructionResult, reconstruct, result_metrics
from .scenes import resolve_scene
from .studies import load_study_spec, run_study, study_csvs


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
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config field (repeatable)")


def _overrides(args) -> dict:
    """The --set values, parsed as JSON where they parse (else strings)."""
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
    return out


def _build_config(args) -> ImagingConfig:
    cfg = load_config(args.config) if args.config else ImagingConfig()
    return config_from_dict({**config_to_dict(cfg), **_overrides(args)})


def _write(args, files: dict) -> list[Path]:
    """Make the --out directory, call writer(out / name) for each entry; the paths."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    return [out / name for name in files]


def _result_files(result: ReconstructionResult) -> dict:
    """Writers of the artifacts of a reconstruction, read from its result, by
    file name; metrics.json is `result_metrics`, and eps_r.pgm spans 1 to
    max(1.5, peak eps), which `render` gives any other range."""
    config, eps = result.config, result.eps_r.real
    metrics = result_metrics(result)
    return {
        "config.json": lambda p: save_config(p, config),
        "chi.grid": lambda p: fileio.save_grid(p, result.chi_cco,
                                               config_hash=config_hash(config)),
        "eps_r.pgm": lambda p: fileio.render_pgm(eps, 1.0, max(1.5, metrics["peak_eps"]), p),
        "trace.csv": lambda p: fileio.write_trace(p, result.trace),
        "metrics.json": lambda p: write_json(p, metrics),
    }


# ----------------------------------------------------------------------
# Subcommands: a recorded run returns (seed, inputs, outputs, solver), the rest an exit code


def _cmd_simulate(args):
    cfg = _build_config(args)
    scene = resolve_scene(args.scene)
    sim = simulate(cfg, scene, snr_db=args.snr)
    outputs = _write(args, {
        "config.json": lambda p: save_config(p, cfg),
        "data.emsca": lambda p: fileio.save_dataset(p, sim.data, meta={"scene": args.scene}),
        "chi_true.grid": lambda p: fileio.save_grid(p, sim.chi_true,
                                                    config_hash=config_hash(cfg)),
    })
    inputs = [p for p in (args.config, args.scene) if p and Path(p).is_file()]
    solver = {"path": sim.solver_path, "steps": sim.solver_steps,
              "max_residual": float(sim.solver_residuals.max()),
              "residuals": sim.solver_residuals.tolist()}
    return cfg.rng_seed, inputs, outputs, solver


def _cmd_reconstruct(args):
    cfg = _build_config(args)
    data, _meta = fileio.load_dataset(args.data)
    truth = fileio.load_grid(args.truth) if args.truth else None
    result = reconstruct(cfg, data, chi_true=truth)
    inputs = [p for p in (args.config, args.data, args.truth) if p]
    return cfg.rng_seed, inputs, _write(args, _result_files(result)), None


def _cmd_study(args):
    spec = load_study_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_study(spec, out_dir=out)
    return spec.seed, [args.spec], study_csvs(spec.kind, out), None


def _cmd_fresnel(args):
    if args.write_synthetic:
        write_synthetic_foamdiel(args.write_synthetic, frequency=to_hz(args.freq))
        if not args.file:
            return 0
    if not args.file:
        raise UsageError("fresnel: --file is required unless only --write-synthetic is used")
    result = fresnel_reconstruct(load_fresnel(args.file, args.freq), **_overrides(args))
    return result.config.rng_seed, [args.file], _write(args, _result_files(result)), None


def _cmd_render(args) -> int:
    grid = fileio.load_grid(args.grid)
    fileio.render_pgm(grid.values.real + 1.0, args.vmin, args.vmax, args.out)
    return 0


def _cmd_rerun(args) -> int:
    manifest = fileio.load_manifest(args.manifest)
    changed = [path for path, want in manifest["inputs"].items()
               if not Path(path).is_file() or fileio.sha256_file(path) != want]
    if changed:
        print("\n".join(f"CHANGED  {path}" for path in changed))
        return 2
    out_dir = Path(args.out) if args.out else Path(args.manifest).parent / "rerun"
    replayed = _redirect_out(manifest["argv"], str(out_dir))
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
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--write-synthetic", metavar="PATH",
                   help="first write a synthetic bench-style file to PATH")
    p.add_argument("--out", default="fresnel_out")
    p.set_defaults(func=_cmd_fresnel)

    p = sub.add_parser("render", help="render eps_r = 1 + chi of a .grid file to 8-bit PGM")
    p.add_argument("--grid", required=True)
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
        t0 = time.perf_counter()
        record = args.func(args)
        if not isinstance(record, tuple):
            return record
        seed, inputs, outputs, solver = record
        fileio.write_manifest(Path(args.out) / "manifest.json", args.command, argv, seed,
                              inputs, outputs, time.perf_counter() - t0, solver=solver)
        return 0
    except SystemExit as exc:      # --help lands here with code 0
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FloatingPointError, FresnelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
