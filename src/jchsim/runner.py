"""Scenario execution and file emission (CSV tables + JSON sidecars).

``run_scenario`` turns a :class:`~jchsim.config.ScenarioConfig` into a
trajectory ensemble, assembles the output table (time, ensemble means with
standard errors, optionally the averaged-state negativity and the jump-free
conditional columns), and writes it next to a JSON sidecar echoing every
consumed parameter together with a content hash of the configuration.
Reruns of the same configuration produce byte-identical files.

CSV conventions: RFC-4180 (CRLF line ends, header row, '.' decimal); float
cells use ``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import (
    CriticalitySweepConfig,
    ScenarioConfig,
    config_content_hash,
)
from .critical import CriticalityResult
from .dynamics import BACKEND, EnsembleResult, mcwf_ensemble, no_jump_branch
from .model import build_reduced_model, prepare_product_polariton_state
from .observables import block_negativity
# traced names of perfbench's pair_trapping; no run path calls them
from .observables import negativity, reduced_bipartition  # noqa: F401

__all__ = ["ScenarioRunResult", "run_scenario", "write_criticality_outputs"]


@dataclass(frozen=True)
class ScenarioRunResult:
    """In-memory table plus the paths written (if an output dir was given)."""

    config: ScenarioConfig
    ensemble: EnsembleResult
    column_names: tuple
    columns: dict
    table_path: Optional[Path]
    sidecar_path: Optional[Path]


def _cell(value):
    """A table cell as JSON holds it: null, str, bool, int or float."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, (str, int)):
        return value
    return float(value)


def _text(value) -> str:
    """Exact round-trip CSV text for a table cell."""
    value = _cell(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _output_paths(out_dir, name: str, fmt: str, tables: tuple) -> tuple:
    """``<name><table>.<fmt>`` per table, and the sidecar path.

    The sidecar is ``<name>.json``, or ``<name>.meta.json`` when the tables
    are JSON, so that a table named ``<name>.json`` keeps its name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = out_dir / (f"{name}.meta.json" if fmt == "json" else f"{name}.json")
    return [out_dir / f"{name}{table}.{fmt}" for table in tables], sidecar


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8", newline="\n")


def _write_table(path: Path, names, columns: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(path, {"columns": list(names),
                           "data": {name: [_cell(v) for v in columns[name]]
                                    for name in names}})
        return
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)          # RFC-4180: CRLF line terminator
        writer.writerow(names)
        n = len(columns[names[0]])
        for i in range(n):
            writer.writerow([_text(columns[name][i]) for name in names])


def run_scenario(config: ScenarioConfig,
                 out_dir: Optional[str | Path] = None) -> ScenarioRunResult:
    """Run one configured ensemble scenario; optionally write its files.

    Returns the in-memory result either way.  With ``out_dir`` set, writes
    ``<name>.csv`` (or ``.json``) and the ``<name>.json``/``<name>.meta.json``
    sidecar into the directory (created if missing).

    The ``negativity`` column is N(ρ̄), the negativity of the
    trajectory-averaged state across ``bipartition_cut``, taken by
    ``block_negativity`` on ρ̄'s reduced-basis stack: its size is bounded
    by that stack, not by the product space.  Sampling noise in ρ̄ biases
    it upward by O(1/√n_traj): on ``fig2`` it reads +0.023 above the exact
    value on a 0.049 peak at 400 trajectories, and +0.009 at 1 600.  For two sites the
    master-equation oracle (``lindblad_evolve``, as the ``fig4`` sweep
    uses) gives the exact trace.
    """
    params = config.model
    model = build_reduced_model(params, max_exc=config.max_excitation)
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(config.initial, params))
    ops = {spec.name: spec.operator(params, model.space)
           for spec in config.observables}

    ensemble = mcwf_ensemble(
        model.h, model.collapse, psi0, config.grid,
        n_traj=config.n_traj, master_seed=config.master_seed,
        observables=ops, keep_rho=config.compute_negativity)

    names: list = ["t"]
    columns: dict = {"t": config.grid.times}
    for spec in config.observables:
        names += [spec.name, f"{spec.name}_stderr"]
        columns[spec.name] = ensemble.mean_observables[spec.name]
        columns[f"{spec.name}_stderr"] = ensemble.stderr[spec.name]
    if config.compute_negativity:
        names.append("negativity")
        columns["negativity"] = block_negativity(
            ensemble.rho_avg, model.space, config.bipartition_cut)
    if config.include_conditional:
        branch = no_jump_branch(model.h, model.collapse, psi0, config.grid,
                                observables=ops)
        names.append("survival")
        columns["survival"] = branch.survival
        for spec in config.observables:
            cond_name = f"{spec.name}_cond"
            names.append(cond_name)
            columns[cond_name] = branch.observables[spec.name]

    table_path = sidecar_path = None
    if out_dir is not None:
        (table_path,), sidecar_path = _output_paths(
            out_dir, config.output_name, config.output_format, ("",))
        _write_table(table_path, names, columns, config.output_format)
        _write_json(sidecar_path, {
            "kind": "scenario",
            "config": config.to_mapping(),
            "content_hash": config_content_hash(config),
            "package_version": __version__,
            "backend": BACKEND,
            "columns": list(names),
            "projector_symmetrize": {spec.name: spec.symmetrize
                                     for spec in config.observables},
            "table_file": table_path.name,
        })
    return ScenarioRunResult(config=config, ensemble=ensemble,
                             column_names=tuple(names), columns=columns,
                             table_path=table_path, sidecar_path=sidecar_path)


def _fmt_flags(flags) -> str:
    return ";".join(flags)


def _fmt_seq(values) -> str:
    return ";".join(repr(float(v)) for v in values)


def write_criticality_outputs(result: CriticalityResult,
                              out_dir: str | Path) -> dict:
    """Emit the sweep as two tables plus a sidecar; returns the paths.

    ``<name>_rows`` holds one line per (hop, gamma) grid point in
    deterministic (hop, gamma) order; ``<name>_estimates`` one line per hop
    value; ``<name>.json`` echoes the configuration, the fitted slope and
    the content hash.
    """
    config: CriticalitySweepConfig = result.config

    row_names = ("hop", "gamma", "gamma_ratio", "classification", "n_peaks",
                 "peak_times", "peak_heights", "global_max", "boundary_peak",
                 "beat_filtered", "max_pinned", "t_half_pinned")
    row_cols: dict = {name: [] for name in row_names}
    for row in result.rows():
        rep = row.report
        row_cols["hop"].append(row.hop)
        row_cols["gamma"].append(row.gamma)
        row_cols["gamma_ratio"].append(row.gamma_ratio)
        row_cols["classification"].append(str(rep.classification))
        row_cols["n_peaks"].append(len(rep.peak_times))
        row_cols["peak_times"].append(_fmt_seq(rep.peak_times))
        row_cols["peak_heights"].append(_fmt_seq(rep.peak_heights))
        row_cols["global_max"].append(rep.global_max)
        row_cols["boundary_peak"].append(rep.boundary_peak)
        row_cols["beat_filtered"].append(rep.beat_filtered)
        row_cols["max_pinned"].append(row.max_pinned)
        row_cols["t_half_pinned"].append(row.t_half_pinned)

    est_names = ("hop", "gamma_c", "gamma_c_ratio", "gamma_c_secondary",
                 "method", "flags")
    est_cols: dict = {name: [] for name in est_names}
    for est in result.estimates:
        est_cols["hop"].append(est.hop)
        est_cols["gamma_c"].append(est.gamma_c)
        est_cols["gamma_c_ratio"].append(est.ratio)
        est_cols["gamma_c_secondary"].append(est.gamma_c_secondary)
        est_cols["method"].append(est.method)
        est_cols["flags"].append(_fmt_flags(est.flags))

    (rows_path, est_path), sidecar_path = _output_paths(
        out_dir, config.output_name, config.output_format, ("_rows", "_estimates"))
    _write_table(rows_path, row_names, row_cols, config.output_format)
    _write_table(est_path, est_names, est_cols, config.output_format)
    _write_json(sidecar_path, {
        "kind": "criticality",
        "config": config.to_mapping(),
        "content_hash": config_content_hash(config),
        "package_version": __version__,
        "backend": BACKEND,
        "slope": result.slope,
        "row_file": rows_path.name,
        "estimate_file": est_path.name,
        "n_points": sum(len(est.rows) for est in result.estimates),
    })
    return {"rows": rows_path, "estimates": est_path, "sidecar": sidecar_path}
