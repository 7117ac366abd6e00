"""Scenario execution and file emission (CSV tables + JSON sidecars).

``run_scenario`` turns a :class:`~jchsim.config.ScenarioConfig` into a
trajectory ensemble, assembles the output table (time, ensemble means with
standard errors, optionally the averaged-state negativity and the jump-free
conditional columns), and writes it next to a JSON sidecar echoing every
consumed parameter together with a content hash of the configuration and
the ensemble's jump diagnostics.  Reruns of the same configuration produce
byte-identical files.

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
from .dynamics import BACKEND, EnsembleResult, mcwf_ensemble
# traced name of perfbench's ensemble workloads; no run path calls it
from .dynamics import no_jump_branch  # noqa: F401
from .model import build_reduced_model
from .observables import block_negativity
# traced names of perfbench's pair_trapping; no run path calls them
from .observables import negativity, reduced_bipartition  # noqa: F401

__all__ = ["ScenarioRunResult", "run_scenario", "write_criticality_outputs"]


@dataclass(frozen=True)
class ScenarioRunResult:
    """In-memory table plus the paths written (if an output dir was given).

    ``columns`` maps each column's name to its cells, in table order.
    """

    config: ScenarioConfig
    ensemble: EnsembleResult
    columns: dict
    table_path: Optional[Path]
    sidecar_path: Optional[Path]

    @property
    def column_names(self) -> tuple:
        return tuple(self.columns)


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


def _column_text(cells) -> list:
    """``_text`` of each cell; a float64 array's cells are Python floats
    after ``tolist``, whose ``repr`` is the text ``_text`` gives them."""
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        return list(map(repr, cells.tolist()))
    return [_text(value) for value in cells]


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


_CHUNK_ROWS = 64       # rows formatted at once: a chunk's text, not the table's, is live


def _write_table(path: Path, columns: dict, fmt: str) -> None:
    """Write ``columns``, name -> cells, as a table whose columns keep the mapping's order.

    A CSV table is formatted a chunk of rows at a time, column by column,
    and has as many rows as its shortest column.
    """
    if fmt == "json":
        _write_json(path, {"columns": list(columns),
                           "data": {name: [_cell(v) for v in cells]
                                    for name, cells in columns.items()}})
        return
    n_rows = min(map(len, columns.values()), default=0)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)          # RFC-4180: CRLF line terminator
        writer.writerow(columns)
        for first in range(0, n_rows, _CHUNK_ROWS):
            writer.writerows(zip(*(_column_text(cells[first:first + _CHUNK_ROWS])
                                   for cells in columns.values())))


def run_scenario(config: ScenarioConfig,
                 out_dir: Optional[str | Path] = None) -> ScenarioRunResult:
    """Run one configured ensemble scenario; optionally write its files.

    Returns the in-memory result either way.  With ``out_dir`` set, writes
    ``<name>.csv`` (or ``.json``) and the ``<name>.json``/``<name>.meta.json``
    sidecar into the directory (created if missing).  Besides the
    configuration, the sidecar records the ensemble's jump diagnostics as
    plain ints: the total jumps of each collapse channel, and the min, lower
    median and max of the sample at which each trajectory enters an
    absorbing block (``n_samples`` for one that never does) with the count
    of those that never do.

    The ensemble builds the block propagators and the projectors' block
    restrictions once; the conditional columns come from its ``jump_free_branch``.

    The ``negativity`` column is N(ρ̄), the negativity of the
    trajectory-averaged state across ``bipartition_cut``, taken by
    ``block_negativity`` straight from ρ̄'s block entries: its size is
    bounded by those entries, not by the product space.  Its error is
    mostly sampling noise on a small upward bias.  On ``fig2`` at 400
    trajectories, over 20 seeds: in the 28-sample peak window the mean
    signed error is +0.0028 ± 0.0008, and the peak reads +0.0072 ± 0.0015
    above the exact 0.0493; the worst deviation of a seed ranges from
    0.006 to 0.023.  Over eight seeds, the window's rms error is 0.0084,
    0.0055 and 0.0030 at 100, 400 and 1 600 trajectories.  For two sites the master-equation
    oracle (``lindblad_evolve``, as the ``fig4`` sweep uses) gives the
    exact trace.
    """
    params = config.model
    model = build_reduced_model(params, max_exc=config.max_excitation)
    psi0 = model.space.product_state(config.initial)
    ops = {spec.name: spec.operator(params, model.space)
           for spec in config.observables}

    ensemble = mcwf_ensemble(
        model.h, model.collapse, psi0, config.grid,
        n_traj=config.n_traj, master_seed=config.master_seed,
        observables=ops, keep_rho=config.compute_negativity)

    columns: dict = {"t": config.grid.times}
    for spec in config.observables:
        columns[spec.name] = ensemble.mean_observables[spec.name]
        columns[f"{spec.name}_stderr"] = ensemble.stderr[spec.name]
    if config.compute_negativity:
        columns["negativity"] = block_negativity(
            ensemble.rho_blocks, model.space, config.bipartition_cut)
    if config.include_conditional:
        branch = ensemble.jump_free_branch()
        columns["survival"] = branch.survival
        for spec in config.observables:
            columns[f"{spec.name}_cond"] = branch.observables[spec.name]

    table_path = sidecar_path = None
    if out_dir is not None:
        (table_path,), sidecar_path = _output_paths(
            out_dir, config.output_name, config.output_format, ("",))
        _write_table(table_path, columns, config.output_format)
        _write_json(sidecar_path, {
            "kind": "scenario",
            "config": config.to_mapping(),
            "content_hash": config_content_hash(config),
            "package_version": __version__,
            "backend": BACKEND,
            "columns": list(columns),
            "jumps_per_channel": ensemble.jumps_per_channel.sum(axis=0).tolist(),
            "absorbing_entry": _absorbing_summary(ensemble.absorbing_entry,
                                                  config.grid.n_samples),
            "projector_symmetrize": {spec.name: spec.symmetrize
                                     for spec in config.observables},
            "table_file": table_path.name,
        })
    return ScenarioRunResult(config=config, ensemble=ensemble, columns=columns,
                             table_path=table_path, sidecar_path=sidecar_path)


def _absorbing_summary(entry: np.ndarray, n_samples: int) -> dict:
    """Min, lower median and max of the absorbing-entry sample, and how many never enter."""
    return {"min": int(entry.min()),
            "median_lower": int(np.quantile(entry, 0.5, method="lower")),
            "max": int(entry.max()),
            "never": int(np.count_nonzero(entry == n_samples))}


def _fmt_seq(values) -> str:
    return ";".join(repr(float(v)) for v in values)


# the sweep tables in column order: name -> the cell of one grid point or one hop
_ROW_COLUMNS = {
    "hop": lambda row: row.hop,
    "gamma": lambda row: row.gamma,
    "gamma_ratio": lambda row: row.gamma_ratio,
    "classification": lambda row: str(row.report.classification),
    "n_peaks": lambda row: len(row.report.peak_times),
    "peak_times": lambda row: _fmt_seq(row.report.peak_times),
    "peak_heights": lambda row: _fmt_seq(row.report.peak_heights),
    "global_max": lambda row: row.report.global_max,
    "boundary_peak": lambda row: row.report.boundary_peak,
    "beat_filtered": lambda row: row.report.beat_filtered,
    "max_pinned": lambda row: row.max_pinned,
    "t_half_pinned": lambda row: row.t_half_pinned,
}
_ESTIMATE_COLUMNS = {
    "hop": lambda est: est.hop,
    "gamma_c": lambda est: est.gamma_c,
    "gamma_c_ratio": lambda est: est.ratio,
    "flags": lambda est: ";".join(est.flags),
}


def write_criticality_outputs(result: CriticalityResult,
                              out_dir: str | Path) -> dict:
    """Emit the sweep as two tables plus a sidecar; returns the paths.

    ``<name>_rows`` holds one line per (hop, gamma) grid point in
    deterministic (hop, gamma) order; ``<name>_estimates`` one line per hop
    value; ``<name>.json`` echoes the configuration, the fitted slope and
    the content hash.
    """
    config: CriticalitySweepConfig = result.config
    (rows_path, est_path), sidecar_path = _output_paths(
        out_dir, config.output_name, config.output_format, ("_rows", "_estimates"))
    for path, cells, records in ((rows_path, _ROW_COLUMNS, list(result.rows())),
                                 (est_path, _ESTIMATE_COLUMNS, result.estimates)):
        _write_table(path, {name: [cell(record) for record in records]
                            for name, cell in cells.items()}, config.output_format)
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
