"""Critical-damping estimation on a (hop, damping) grid.

For each grid point the two-site scenario starting from both excitations in
one cavity is evolved, the inter-site negativity trace is classified into
no/single/multi-peak structure, and per hop value the critical damping is
the single-peak entry whose peak is tallest (with the smallest single-peak
damping reported as a secondary estimator).  A straight line through the
origin fitted to (hop, gamma_c) summarizes the sweep.

Every point is classified from its exact master-equation trace, so a sweep
draws no random numbers and has no trajectory count or seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import CriticalitySweepConfig
from .dynamics import lindblad_evolve
from .errors import ConfigError
from .model import build_reduced_model, prepare_product_polariton_state
from .observables import (
    ProjectorSpec,
    blockade_beat_period,
    block_negativity,
    classify_series,
    negativity_series,  # noqa: F401 - a traced name of perfbench's gamma_c_sweep
    PeakReport,
)

__all__ = [
    "CriticalityRow", "CriticalityEstimate", "CriticalityResult",
    "classify_point", "estimate_critical_gamma", "gamma_c_curve",
]

PRIMARY_METHOD = "max-peak-height"

_INITIAL_LABELS = ("2-", "G")
_PINNED = ProjectorSpec(preset="P11")


@dataclass(frozen=True)
class CriticalityRow:
    """One (hop, gamma) grid point: peak report plus transition metrics."""

    hop: float
    gamma: float
    gamma_ratio: float
    report: PeakReport
    max_pinned: float
    t_half_pinned: Optional[float]

    @property
    def classification(self) -> str:
        return str(self.report.classification)

    @property
    def peak_height(self) -> float:
        heights = self.report.peak_heights
        return float(max(heights)) if len(heights) else float(self.report.global_max)


@dataclass(frozen=True)
class CriticalityEstimate:
    """Per-hop critical damping with method tag and caveat flags."""

    hop: float
    gamma_c: Optional[float]
    gamma_c_secondary: Optional[float]
    method: str
    flags: tuple
    rows: tuple

    @property
    def ratio(self) -> Optional[float]:
        return None if self.gamma_c is None else self.gamma_c / self.hop


@dataclass(frozen=True)
class CriticalityResult:
    """Full sweep: per-hop estimates and the through-origin slope."""

    config: CriticalitySweepConfig
    estimates: tuple
    slope: Optional[float]

    def rows(self):
        for est in self.estimates:
            for row in est.rows:
                yield row


def classify_point(config: CriticalitySweepConfig, hop: float, gamma: float) -> CriticalityRow:
    """Evolve one grid point's master equation and classify its negativity.

    The negativity is ``block_negativity`` of the ``lindblad_evolve`` stack
    across the two sites, read off the 13-dim reduced states.  The
    transition metrics (pinned-state population maximum and half-rise time)
    come from the same density-matrix trace as the classification.
    """
    params = config.model_for(hop, gamma)
    model = build_reduced_model(params, max_exc=2)
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(_INITIAL_LABELS, params))
    grid = config.grid_for(params)
    pinned_op = _PINNED.operator(params, model.space)

    rhos = lindblad_evolve(model.h, model.collapse, np.outer(psi0, psi0.conj()), grid)
    pinned = np.einsum("nij,ji->n", rhos, pinned_op).real

    neg = block_negativity(rhos, model.space, cut=1)
    report = classify_series(
        neg, grid.times,
        prominence_threshold=config.prominence_threshold,
        t_min=config.t_min,
        beat_period=blockade_beat_period(params))

    max_pinned = float(pinned.max()) if pinned.size else 0.0
    t_half = None
    if max_pinned > 0.0:
        above = np.nonzero(pinned >= 0.5 * max_pinned)[0]
        if above.size:
            t_half = float(grid.times[above[0]])
    return CriticalityRow(hop=float(hop), gamma=float(gamma),
                          gamma_ratio=float(gamma / hop), report=report,
                          max_pinned=max_pinned, t_half_pinned=t_half)


def _grid_flags(config: CriticalitySweepConfig) -> list:
    flags = []
    if len(config.gamma_ratios) == 1:
        flags.append("single_point")
    if config.gamma_ratios[0] > 0.3 or config.gamma_ratios[-1] < 3.0:
        flags.append("narrow_grid")
    return flags


def estimate_critical_gamma(config: CriticalitySweepConfig, hop: float,
                            rows: tuple) -> CriticalityEstimate:
    """Estimate gamma_c at one hop value from its rows on the damping grid.

    Primary estimator: among single-peak entries, the damping whose peak is
    tallest.  Secondary: the smallest single-peak damping.  Caveats are
    reported as flags rather than repaired: ``not_bracketed`` when the grid
    never shows the structure needed to pin the transition from both sides,
    ``non_monotonic`` when single-peak entries reappear below multi-peak
    ones, ``single_point``/``narrow_grid`` for degenerate grids.
    """
    flags = _grid_flags(config)

    kinds = [row.report.classification.kind for row in rows]
    singles = [row for row in rows if row.report.classification.is_single]
    multis = [row for row in rows if row.report.classification.is_multi]
    if any(kind == "NoPeak" for kind in kinds):
        flags.append("no_peak_rows")

    # re-entrant structure: a multi-peak entry above some single-peak entry
    first_single = next((i for i, k in enumerate(kinds) if k == "SinglePeak"), None)
    if first_single is not None and "MultiPeak" in kinds[first_single:]:
        flags.append("non_monotonic")

    if not singles:
        flags.append("not_bracketed")
        return CriticalityEstimate(hop=float(hop), gamma_c=None,
                                   gamma_c_secondary=None, method=PRIMARY_METHOD,
                                   flags=tuple(flags), rows=tuple(rows))
    if not multis:
        # transition below the bottom of the grid
        flags.append("not_bracketed")

    tallest = max(singles, key=lambda row: row.peak_height)
    smallest = min(singles, key=lambda row: row.gamma)
    return CriticalityEstimate(hop=float(hop), gamma_c=tallest.gamma,
                               gamma_c_secondary=smallest.gamma,
                               method=PRIMARY_METHOD, flags=tuple(flags),
                               rows=tuple(rows))


def gamma_c_curve(config: CriticalitySweepConfig) -> CriticalityResult:
    """Estimate gamma_c for every hop value and fit a line through the origin.

    The points run one after another: hop by hop, and each hop's damping
    values in increasing order; any parallelism is BLAS threads in a point.
    """
    if len(config.j_values) < 3:
        raise ConfigError([
            f"sweep.j_values: need at least 3 hop values for a slope fit, "
            f"got {len(config.j_values)}"])

    estimates = []
    for hop in config.j_values:
        rows = tuple(classify_point(config, hop, ratio * hop)
                     for ratio in config.gamma_ratios)
        estimates.append(estimate_critical_gamma(config, hop, rows))

    fitted = [(est.hop, est.gamma_c) for est in estimates
              if est.gamma_c is not None]
    slope = None
    if len(fitted) >= 2:
        js = np.array([j for j, _ in fitted])
        gs = np.array([gc for _, gc in fitted])
        slope = float(np.dot(js, gs) / np.dot(js, js))
    return CriticalityResult(config=config, estimates=tuple(estimates),
                             slope=slope)
