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
Each point forms H = H0 + J·K and L = √γ·A; ``build_reduced_model`` gives
every element of H and L a single term, so these are bit for bit the
operators a build at (J, γ) gives.  The points then run in stacks of a
few: one ``lindblad_evolve`` call evolves a stack's master equations,
reading their blocks, the rungs of the excitation ladder, and ρ's layout
once and taking their generators, Taylor steps and strides together (it
counts four real generators a point), and one ``block_negativity`` call
takes all of the stack's samples, its blocks read off the basis: the
partial transpose's excitation-imbalance classes.  Every point has the
same blocks, so each row is bit for bit what a stack of one gives.
Nothing is kept past the stack but the gathers that build the
generators, which the next stack, on the same blocks, reads again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import CriticalitySweepConfig
from . import linalg
from .dynamics import lindblad_bytes, lindblad_evolve
from .linalg import check_budget
from .model import build_reduced_model, damped_sites, dense_bytes, model_bytes, sector_dims
from .observables import (
    ProjectorSpec,
    blockade_beat_period,
    block_negativity,
    classify_series,
    negativity_series,  # noqa: F401 - a traced name of perfbench's gamma_c_sweep
    PeakReport,
    transpose_block_bound,
    transpose_bytes,
)

__all__ = [
    "CriticalityRow", "CriticalityEstimate", "CriticalityResult",
    "classify_point", "estimate_critical_gamma", "gamma_c_curve",
]

_INITIAL_LABELS = ("2-", "G")
_PINNED = ProjectorSpec(preset="P11")
# the points one master-equation call takes at most; see ``_stack_size``
_STACK = 4


@dataclass(frozen=True)
class CriticalityRow:
    """One (hop, gamma) grid point: peak report plus the pinned-state
    population maximum."""

    hop: float
    gamma: float
    report: PeakReport
    max_pinned: float

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


def _stack_bytes(params, n_points: int, n_samples: int) -> int:
    """Bytes a stack of ``n_points`` points of the model ``params`` holds:
    their H and loss operators, their master equation (``lindblad_bytes``)
    and the partial transpose's largest block over all of their samples.
    For one point these are the terms the load pass counts for it."""
    sectors = sector_dims(2, params.n_max)
    block = transpose_block_bound(2, params.n_max, 1)
    return (n_points * model_bytes(params, params.n_max)
            + lindblad_bytes(n_samples, sum(sectors), sectors, n_points)
            + transpose_bytes(n_points * n_samples, block))


def _stack_size(params, n_samples: int) -> int:
    """Points in one stack: ``_STACK``, or fewer where a stack's count would
    pass ``MEMORY_CAP``, and at least one, whose count the sweep's load pass
    took.  The master equation of a stack of P points counts 4P real
    generators, as its Taylor step and stride take the whole stack at once.
    A stack of ``_STACK`` = 4 points takes most of the gain over lone
    points on the ``fig4`` sweep; larger stacks gain little more and raise
    the peak memory."""
    return max((p for p in range(2, _STACK + 1)
                if _stack_bytes(params, p, n_samples) <= linalg.MEMORY_CAP), default=1)


def _classify_points(config: CriticalitySweepConfig,
                     points: Iterable[tuple]) -> Iterator[CriticalityRow]:
    """Each ``(hop, gamma)`` of ``points``, evolved and classified in turn.

    H0 and the loss operators A are the model at J = 0 and unit γ, and the
    hop terms K are the model at J = 1 less H0.  The points go in stacks of
    ``_stack_size``, and each stack makes one ``lindblad_evolve`` call on
    its stacked H and loss operators.  The negativity is one
    ``block_negativity`` call on the stack's samples across the two sites,
    read off the 13-dim reduced states and split back per point.  Each
    point's pinned-state population maximum comes from the same
    density-matrix trace as its classification.  Every point damps both
    sites (γ > 0), so a stack's loss operators are one per site.
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
    size = _stack_size(config.model_for(1.0, 1.0), grid.n_samples)

    points = iter(points)
    for stack in iter(lambda: list(itertools.islice(points, size)), []):
        models = [config.model_for(hop, gamma) for hop, gamma in stack]
        damped = damped_sites(models[0])
        check_budget(len(stack) * model_bytes(models[0], 2),
                     f"{len(stack)} points' H and {len(damped)} loss operators "
                     f"on {space.dim} states")
        h = np.stack([base.h + point.hop[0] * hop_terms for point in models])
        collapse = [np.stack([math.sqrt(point.gamma[j]) * base.collapse[j] for point in models])
                    for j in damped]
        rhos = lindblad_evolve(h, collapse, rho0, grid)
        negativity = block_negativity(rhos.reshape(-1, space.dim, space.dim), space, cut=1)
        for (hop, gamma), rho, series in zip(stack, rhos, negativity.reshape(len(stack), -1)):
            pinned = np.einsum("nij,ji->n", rho, pinned_op).real
            report = classify_series(
                series, grid.times,
                prominence_threshold=config.prominence_threshold,
                t_min=config.t_min,
                beat_period=beat_period)
            yield CriticalityRow(hop=float(hop), gamma=float(gamma), report=report,
                                 max_pinned=float(pinned.max()))


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

    The points run in order, hop by hop, and each hop's damping values in
    increasing order, a few at a time in stacks; any parallelism is BLAS
    threads in a stack.  The basis, H at J = 0, the hop terms, the loss
    operators at unit γ, ψ0, the pinned-state projector, the grid and the
    beat period are built once for the whole sweep; each point scales J and
    γ in, and each stack of points makes one ``lindblad_evolve`` call and
    one ``block_negativity`` call (``_classify_points``).
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
