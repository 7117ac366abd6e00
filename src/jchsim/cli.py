"""Command-line surface.

Subcommands::

    jchsim run --config scenario.ini --out results/
    jchsim run --preset fig2 --out results/
    jchsim critical --config sweep.ini --out results/
    jchsim validate --suite mapping

``run`` executes either a scenario config file or a named preset (presets
bundle one or more scenarios, or a criticality sweep for ``fig4``).
``critical`` runs a sweep config.  ``validate`` runs one of the on-demand
check suites and exits non-zero on failure.  ``--seed`` and ``--traj``
override a scenario's master seed and trajectory count; where nothing runs
trajectories (a sweep, the ``mapping`` and ``analytic`` suites) they are an
error.  Every command runs in one process; its only parallelism is BLAS
threads (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .checks import SUITE_NAMES, run_suite
from .config import (CriticalitySweepConfig, apply_overrides, load_scenario_config,
                     load_sweep_config)
from .critical import gamma_c_curve
from .errors import ConfigError, JchsimError
from .presets import PRESET_NAMES, load_preset
from .runner import run_scenario, write_criticality_outputs

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jchsim",
        description="Dissipative cavity-array simulator: trajectory ensembles, "
                    "entanglement-peak classification, critical-damping sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or a named preset")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="scenario config file (INI or JSON)")
    src.add_argument("--preset", choices=PRESET_NAMES,
                     help="named preset bundle")
    run_p.add_argument("--out", required=True, help="output directory")
    _add_overrides(run_p)

    crit_p = sub.add_parser("critical",
                            help="run a critical-damping sweep config")
    crit_p.add_argument("--config", required=True,
                        help="sweep config file (INI or JSON)")
    crit_p.add_argument("--out", required=True, help="output directory")

    val_p = sub.add_parser("validate", help="run an on-demand check suite")
    val_p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    val_p.add_argument("--json", action="store_true",
                       help="print the machine-readable report as JSON")
    _add_overrides(val_p)
    return parser


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--traj", type=int, default=None,
                        help="override the trajectory count")


def _reject_overrides(args, target: str) -> None:
    """Fail naming each of --traj/--seed given: ``target`` runs no trajectories."""
    given = [f for f, v in (("--traj", args.traj), ("--seed", args.seed)) if v is not None]
    if given:
        raise ConfigError([f"{flag}: {target} runs no trajectories" for flag in given])


def _run_sweep(config, out_dir) -> None:
    result = gamma_c_curve(config)
    paths = write_criticality_outputs(result, out_dir)
    slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
    print(f"sweep '{config.output_name}': slope through origin = {slope}")
    for est in result.estimates:
        gc = "not bracketed" if est.gamma_c is None else repr(est.gamma_c)
        flags = f" [{';'.join(est.flags)}]" if est.flags else ""
        print(f"  hop {est.hop!r}: gamma_c = {gc}{flags}")
    for key in ("rows", "estimates", "sidecar"):
        print(f"wrote {paths[key]}")


def _configs(args) -> tuple:
    """The configs a ``run`` or ``critical`` command names, overrides applied."""
    if args.command == "critical":
        return (load_sweep_config(args.config),)
    overrides = {"n_traj": args.traj, "master_seed": args.seed}
    if args.config is not None:
        return (apply_overrides(load_scenario_config(args.config), **overrides),)
    bundle = load_preset(args.preset)
    if bundle.sweep is not None:
        _reject_overrides(args, f"the {bundle.name} sweep")
    return bundle.with_overrides(**overrides).scenarios or (bundle.sweep,)


def _cmd_run(args) -> int:
    for config in _configs(args):
        if isinstance(config, CriticalitySweepConfig):
            _run_sweep(config, args.out)
            continue
        result = run_scenario(config, args.out)
        print(f"scenario '{config.output_name}': {config.n_traj} trajectories, "
              f"{config.grid.n_samples} samples")
        print(f"wrote {result.table_path}")
        print(f"wrote {result.sidecar_path}")
    return 0


def _cmd_validate(args) -> int:
    if args.suite != "oracle":
        _reject_overrides(args, f"suite {args.suite!r}")
    report = run_suite(args.suite, n_traj=args.traj, master_seed=args.seed)
    if args.json:
        print(json.dumps(report.to_mapping(), sort_keys=True, indent=2))
    else:
        print("\n".join(report.summary_lines()))
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except JchsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
