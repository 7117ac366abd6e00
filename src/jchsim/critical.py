"""Critical-damping estimation on a (hop, damping) grid.

For each grid point the two-site scenario starting from both excitations in
one cavity is evolved, the inter-site negativity trace is classified into
no/single/multi-peak structure, and per hop value the critical damping is
the paper's: the smallest damping on the grid whose negativity shows a
single peak.  A straight line through the origin fitted to (hop, gamma_c)
summarizes the sweep.

Every point is classified from its exact master-equation trace, so a sweep
draws no random numbers and has no trajectory count or seed.

The points differ only in J and γ.  A sweep builds once what they share:
the basis, H at J = 0, the hop terms at unit J, the loss operators at unit
γ, ψ0 and ρ0, the pinned-state projector, the grid and the beat period.
Each point forms H = H0 + J·K and L = √γ·A and runs its own master
equation; ``build_reduced_model`` gives every element of H and L a single
term, so these are bit for bit the operators a build at (J, γ) gives.
Nothing is kept past the call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import CriticalitySweepConfig
from .dynamics import lindblad_evolve
from .linalg import check_budget
from .model import build_reduced_model, damped_sites, dense_bytes, model_bytes
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

_INITIAL_LABELS = ("2-", "G")
_PINNED = ProjectorSpec(preset="P11")


@dataclass(frozen=True)
class CriticalityRow:
    """One (hop, gamma) grid point: peak report plus transition metrics."""

    hop: float
    gamma: float
    report: PeakReport
    max_pinned: float
    t_half_pinned: Optional[float]

    @property
    def gamma_ratio(self) -> float:
        return self.gamma / self.hop


@dataclass(frozen=True)
class CriticalityEstimate:
    """Per-hop critical damping (the smallest single-peak damping) and caveat
    flags."""

    hop: float
    gamma_c: Optional[float]
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
    """Evolve one grid point's master equation and classify its negativity:
    a sweep of the one point."""
    return next(_classify_points(config, [(hop, gamma)]))


def _classify_points(config: CriticalitySweepConfig,
                     points: Iterable[tuple]) -> Iterator[CriticalityRow]:
    """Each ``(hop, gamma)`` of ``points``, evolved and classified in turn.

    H0 and the loss operators A are the model at J = 0 and unit γ, and the
    hop terms K are the model at J = 1 less H0.  The negativity is
    ``block_negativity`` of the ``lindblad_evolve`` stack across the two
    sites, read off the 13-dim reduced states.  The transition metrics
    (pinned-state population maximum and half-rise time) come from the
    same density-matrix trace as the classification.
    """
    base = build_reduced_model(config.model_for(0.0, 1.0), max_exc=2)
    space, params = base.space, base.space.params
    check_budget(dense_bytes(space.dim), f"the hop terms on {space.dim} states")
    hop_terms = build_reduced_model(config.model_for(1.0, 1.0), max_exc=2).h - base.h
    psi0 = space.product_state(_INITIAL_LABELS)
    rho0 = np.outer(psi0, psi0.conj())
    pinned_op = _PINNED.operator(params, space)
    grid = config.grid_for(params)
    beat_period = blockade_beat_period(params)

    for hop, gamma in points:
        point = config.model_for(hop, gamma)
        damped = damped_sites(point)
        check_budget(model_bytes(point, 2),
                     f"H and {len(damped)} loss operators on {space.dim} states")
        h = base.h + point.hop[0] * hop_terms
        collapse = [math.sqrt(point.gamma[j]) * base.collapse[j] for j in damped]
        rhos = lindblad_evolve(h, collapse, rho0, grid)
        pinned = np.einsum("nij,ji->n", rhos, pinned_op).real

        neg = block_negativity(rhos, space, cut=1)
        report = classify_series(
            neg, grid.times,
            prominence_threshold=config.prominence_threshold,
            t_min=config.t_min,
            beat_period=beat_period)

        max_pinned = float(pinned.max()) if pinned.size else 0.0
        t_half = None
        if max_pinned > 0.0:
            above = np.nonzero(pinned >= 0.5 * max_pinned)[0]
            if above.size:
                t_half = float(grid.times[above[0]])
        yield CriticalityRow(hop=float(hop), gamma=float(gamma), report=report,
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

    gamma_c is the paper's critical damping on the grid: the smallest
    damping whose negativity shows a single peak (the rows run in increasing
    damping).  Caveats are reported as flags rather than repaired:
    ``not_bracketed`` when the grid never shows the structure needed to pin
    the transition from both sides, ``non_monotonic`` when multi-peak entries
    reappear above a single-peak one, ``no_peak_rows`` when some entry has no
    peak, ``single_point``/``narrow_grid`` for degenerate grids.
    """
    flags = _grid_flags(config)

    kinds = [row.report.classification.kind for row in rows]
    if "NoPeak" in kinds:
        flags.append("no_peak_rows")

    # re-entrant structure: a multi-peak entry above some single-peak entry
    first_single = next((i for i, k in enumerate(kinds) if k == "SinglePeak"), None)
    if first_single is not None and "MultiPeak" in kinds[first_single:]:
        flags.append("non_monotonic")
    # no single-peak entry, or none multi-peak: the transition lies off the grid
    if first_single is None or "MultiPeak" not in kinds:
        flags.append("not_bracketed")

    gamma_c = None if first_single is None else rows[first_single].gamma
    return CriticalityEstimate(hop=float(hop), gamma_c=gamma_c, flags=tuple(flags),
                               rows=tuple(rows))


def gamma_c_curve(config: CriticalitySweepConfig) -> CriticalityResult:
    """Estimate gamma_c for every hop value and fit a line through the origin.

    The points run one after another: hop by hop, and each hop's damping
    values in increasing order; any parallelism is BLAS threads in a point.
    The basis, H at J = 0, the hop terms, the loss operators at unit γ, ψ0,
    the pinned-state projector, the grid and the beat period are built once
    for the whole sweep, and each point scales J and γ in.
    """
    rows = _classify_points(config, ((hop, ratio * hop) for hop in config.j_values
                                     for ratio in config.gamma_ratios))
    estimates = [estimate_critical_gamma(
                     config, hop, tuple(itertools.islice(rows, len(config.gamma_ratios))))
                 for hop in config.j_values]

    fitted = [(est.hop, est.gamma_c) for est in estimates
              if est.gamma_c is not None]
    slope = None
    if len(fitted) >= 2:
        js = np.array([j for j, _ in fitted])
        gs = np.array([gc for _, gc in fitted])
        slope = float(np.dot(js, gs) / np.dot(js, js))
    return CriticalityResult(config=config, estimates=tuple(estimates),
                             slope=slope)
