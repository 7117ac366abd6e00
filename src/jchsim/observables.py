"""Projectors, inter-site entanglement negativity, and the peak classifier.

``block_negativity`` is the negativity every run path takes: it reads the
partial transpose of each reduced-basis state straight off the state's
entries and diagonalizes it block by block, never forming the site_dim^N
product space.  A state that commutes with the total excitation has a
partial transpose that is block-diagonal in the excitation imbalance across
the cut (fig4's 13-dim states: blocks of 9, 6, 6, 2 and 2 in the 36-dim
space).  ``negativity``/``negativity_series`` keep the dense product-space
form as the independent oracle.

The classifier operationalizes "how many peaks does the negativity trace
have": the two-excitation blockade superimposes a fast coherent beat
(period 2π over the anharmonic mismatch) on every trace, so the series
is first averaged with a two-tap filter whose taps sit half a beat
apart — an exact zero of the beat frequency — then an initial burn-in
window is discarded and strict local maxima are kept if their
topographic prominence exceeds a fraction of the global maximum.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SizeError
from .linalg import TensorDims, as_complex_matrix, partial_transpose
from .model import (ModelParams, PolaritonLabel, ReducedSpace, polariton_energy,
                    prepare_product_polariton_state)

__all__ = [
    "DEFAULT_PROMINENCE_THRESHOLD", "DEFAULT_BURN_IN", "PROJECTOR_PRESETS",
    "ProjectorSpec", "PeakClassification", "PeakReport",
    "block_negativity", "negativity", "negativity_series",
    "reduced_bipartition", "blockade_beat_period", "recommended_spacing",
    "find_peaks", "classify_series",
]

DEFAULT_PROMINENCE_THRESHOLD = 0.05
DEFAULT_BURN_IN = 1.0
_BEAT_TAP_TOLERANCE = 0.15     # relative mistuning allowed for the filter taps

PROJECTOR_PRESETS = {
    "P20": ("2-", "G"),
    "P02": ("G", "2-"),
    "P11": ("1-", "1-"),
    "P300": ("3-", "G", "G"),
    "P111": ("1-", "1-", "1-"),
    "P4000": ("4-", "G", "G", "G"),
    "P1111": ("1-", "1-", "1-", "1-"),
}


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorSpec:
    """Projector onto a product of single-site dressed states.

    Specify either ``labels`` (one per site, e.g. ("2-", "G")) or a named
    ``preset``.  With ``symmetrize`` the projector sums over all distinct
    site permutations of the labels (e.g. P20 + P02).
    """

    labels: Optional[tuple] = None
    preset: Optional[str] = None
    symmetrize: bool = False

    def __post_init__(self):
        problems = []
        if (self.labels is None) == (self.preset is None):
            problems.append("projector: give exactly one of labels/preset")
        if self.preset is not None and self.preset not in PROJECTOR_PRESETS:
            problems.append(f"projector: unknown preset {self.preset!r}; "
                            f"known: {sorted(PROJECTOR_PRESETS)}")
        if self.labels is not None:
            try:
                parsed = tuple(str(PolaritonLabel.parse(str(l))) for l in self.labels)
                object.__setattr__(self, "labels", parsed)
            except Exception as exc:  # noqa: BLE001 - collect as config problem
                problems.append(f"projector: bad label list {self.labels!r} ({exc})")
        if problems:
            raise ConfigError(problems)

    @property
    def resolved_labels(self) -> tuple:
        return self.labels if self.labels is not None else PROJECTOR_PRESETS[self.preset]

    @property
    def name(self) -> str:
        if self.preset is not None:
            base = self.preset
        else:
            base = "P(" + ",".join(self.resolved_labels) + ")"
        return base + ("+perm" if self.symmetrize else "")

    def operator(self, params: ModelParams, space: ReducedSpace) -> np.ndarray:
        """Build the projector matrix on the reduced space ``space``."""
        labels = self.resolved_labels
        if len(labels) != params.n_sites:
            raise SizeError(f"projector {self.name}: {len(labels)} labels "
                            f"for {params.n_sites} sites")
        orderings = (sorted(set(itertools.permutations(labels)))
                     if self.symmetrize else [tuple(labels)])
        proj = np.zeros((space.dim, space.dim), dtype=np.complex128)
        for ordering in orderings:
            vec = space.reduce_vector(prepare_product_polariton_state(ordering, params))
            proj += np.outer(vec, vec.conj())
        return proj


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------

def negativity(rho, dims) -> float:
    """Sum of |negative eigenvalues| of the partial transpose (Bell pair: 0.5)."""
    return float(negativity_series(as_complex_matrix(rho)[None], dims)[0])


def negativity_series(rho_stack: np.ndarray, dims) -> np.ndarray:
    """negativity() of each matrix in an ``(n, d, d)`` stack, in one batch.

    One partial transpose of the stack and one ``eigvalsh`` call.  Each row
    of eigenvalues is ascending, so its negative ones are a prefix; rows
    with the same prefix length are summed together, which adds each row in
    the order a sum of that prefix alone would.
    """
    stack = np.asarray(rho_stack)
    td = TensorDims.coerce(dims)
    if len(td) != 2:
        raise SizeError(f"negativity needs exactly 2 tensor factors, got {len(td)}")
    if stack.ndim != 3 or stack.shape[1] != td.total:
        raise SizeError(f"dims {td} do not match a stack of shape {stack.shape}")
    eigs = np.linalg.eigvalsh(partial_transpose(stack, td, which=1))
    counts = (eigs < 0.0).sum(axis=1)
    out = np.empty(len(eigs))
    for m in set(counts.tolist()):
        rows = counts == m
        out[rows] = -eigs[rows, :m].sum(axis=1)
    return out + 0.0   # +0.0 normalizes -0.0


def _components(n_nodes: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected component of each node under the links (i, j).

    Each node is labelled by the smallest node of its component: every node
    takes the smallest label among the nodes it is linked to, until no label
    changes.
    """
    labels = np.arange(n_nodes)
    while True:
        low = np.minimum(labels[i], labels[j])
        new = labels.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def block_negativity(rho_stack: np.ndarray, space: ReducedSpace, cut: int) -> np.ndarray:
    """Negativity across ``cut`` of each state in an ``(n, dim, dim)`` reduced-basis stack.

    The same value as ``negativity_series`` of the embedded stack with the
    sites regrouped at ``cut``, without the product space.  Each basis
    state's product index splits into (left, right) at the cut, and the
    partial transpose on the right sends entry (i, j) to row (left_i,
    right_j) and column (left_j, right_i).  Its blocks are the connected
    components of those (row, column) links over the union of the stack's
    nonzero entries, so the split is exact for any state.  Each block gets
    one ``eigvalsh`` of its ``(n, k, k)`` stack; the blocks' negative
    eigenvalues are added in the order of their smallest product index.
    """
    stack = np.asarray(rho_stack)
    n_sites = space.params.n_sites
    if not 1 <= cut < n_sites:
        raise SizeError(f"cut must satisfy 1 <= cut < {n_sites}, got {cut}")
    if stack.ndim != 3 or stack.shape[1:] != (space.dim, space.dim):
        raise SizeError(f"expected a stack of {space.dim}-dim matrices, got shape {stack.shape}")
    right_dim = space.params.site_dim ** (n_sites - cut)
    left, right = np.divmod(space.full_indices, right_dim)
    i, j = np.nonzero((stack != 0).any(axis=0))
    # product indices of the transposed entries, numbered compactly
    nodes, pos = np.unique(np.concatenate([left[i] * right_dim + right[j],
                                           left[j] * right_dim + right[i]]),
                           return_inverse=True)
    row, col = pos[:len(i)], pos[len(i):]
    blocks, owner = np.unique(_components(len(nodes), row, col), return_inverse=True)
    local = np.empty(len(nodes), dtype=np.intp)
    out = np.zeros(len(stack))
    for b in range(len(blocks)):
        members = owner == b
        local[members] = np.arange(np.count_nonzero(members))
        links = members[row]
        block = np.zeros((len(stack),) + (np.count_nonzero(members),) * 2,
                         dtype=np.complex128)
        block[:, local[row[links]], local[col[links]]] = stack[:, i[links], j[links]]
        out -= np.minimum(np.linalg.eigvalsh(block), 0.0).sum(axis=1)
    return out + 0.0   # +0.0 normalizes -0.0


def reduced_bipartition(rho, site_dims: Sequence[int], cut: int):
    """Regroup an N-site state into a left|right bipartition at ``cut``.

    Pure index bookkeeping — the matrix is unchanged; only the factor
    dimensions are regrouped to (prod(dims[:cut]), prod(dims[cut:])).
    """
    site_dims = [int(d) for d in site_dims]
    if not 1 <= cut < len(site_dims):
        raise SizeError(f"cut must satisfy 1 <= cut < {len(site_dims)}, got {cut}")
    rho = as_complex_matrix(rho)
    left = math.prod(site_dims[:cut])
    right = math.prod(site_dims[cut:])
    if left * right != rho.shape[0]:
        raise SizeError(f"site dims {site_dims} do not match rho dimension {rho.shape[0]}")
    return rho, TensorDims((left, right))


# ---------------------------------------------------------------------------
# beat period helpers
# ---------------------------------------------------------------------------

def blockade_beat_period(params: ModelParams) -> Optional[float]:
    """Period of the two-excitation anharmonic beat, from the dressed energies.

    Returns None when the model cannot host two excitations on a site or
    the mismatch vanishes.
    """
    if params.n_max < 2:
        return None
    e2 = polariton_energy(PolaritonLabel.minus(2), params)
    e1 = polariton_energy(PolaritonLabel.minus(1), params)
    e0 = polariton_energy(PolaritonLabel.ground(), params)
    mismatch = abs(e2 + e0 - 2.0 * e1)
    if mismatch < 1e-12:
        return None
    return 2.0 * math.pi / mismatch


def recommended_spacing(params: ModelParams, dt: float = 0.005) -> float:
    """Sample spacing for classification runs: quarter beat, on the dt lattice."""
    if not dt > 0:
        raise ConfigError([f"dt: must be positive, got {dt}"])
    if math.isinf(dt):
        raise ConfigError([f"dt: must be finite, got {dt}"])
    period = blockade_beat_period(params)
    if period is None:
        return 500 * dt
    return max(1, round(period / 4.0 / dt)) * dt


# ---------------------------------------------------------------------------
# peak detection and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakClassification:
    kind: str      # "NoPeak" | "SinglePeak" | "MultiPeak"
    count: int

    def __str__(self) -> str:
        return f"MultiPeak({self.count})" if self.kind == "MultiPeak" else self.kind

    @property
    def is_single(self) -> bool:
        return self.kind == "SinglePeak"

    @property
    def is_multi(self) -> bool:
        return self.kind == "MultiPeak"


def _classify_count(count: int) -> PeakClassification:
    if count == 0:
        return PeakClassification("NoPeak", 0)
    if count == 1:
        return PeakClassification("SinglePeak", 1)
    return PeakClassification("MultiPeak", count)


@dataclass(frozen=True)
class PeakReport:
    """Qualifying peaks of a series and the classification they imply."""

    peak_times: np.ndarray
    peak_heights: np.ndarray
    classification: PeakClassification
    global_max: float
    prominence_threshold: float
    prominences: np.ndarray = None
    boundary_peak: bool = False     # single peak sat at the first retained sample
    beat_filtered: bool = False
    t_min: float = 0.0


def find_peaks(series, times,
               prominence_threshold: float = DEFAULT_PROMINENCE_THRESHOLD) -> PeakReport:
    """Strict local maxima whose prominence exceeds threshold · global max.

    Prominence is the topographic definition (height above the higher of
    the two flanking minima); endpoints are never peaks.  An all-zero
    series classifies as NoPeak.
    """
    y = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if y.ndim != 1 or y.shape != t.shape:
        raise SizeError(f"series/time shapes differ: {y.shape} vs {t.shape}")
    if y.size and y.min() < -1e-12:
        raise ConfigError([f"series: must be non-negative, min = {y.min()!r}"])
    global_max = float(y.max()) if y.size else 0.0
    if global_max <= 0.0:
        return PeakReport(peak_times=np.empty(0), peak_heights=np.empty(0),
                          classification=_classify_count(0), global_max=global_max,
                          prominence_threshold=prominence_threshold,
                          prominences=np.empty(0))
    from scipy import signal  # imported here: it costs more than the rest of jchsim to load
    idx, props = signal.find_peaks(y, prominence=prominence_threshold * global_max)
    return PeakReport(peak_times=t[idx], peak_heights=y[idx],
                      classification=_classify_count(len(idx)), global_max=global_max,
                      prominence_threshold=prominence_threshold,
                      prominences=props["prominences"])


def _beat_notch(y: np.ndarray, t: np.ndarray, beat_period: float):
    """Two-tap average with taps half a beat apart (exact beat cancellation)."""
    if y.size < 3:
        return y, t, False
    spacing = float(np.median(np.diff(t)))
    if spacing <= 0:
        return y, t, False
    half = beat_period / 2.0
    k = max(1, round(half / spacing))
    if k >= y.size or abs(k * spacing - half) > _BEAT_TAP_TOLERANCE * half:
        return y, t, False
    return 0.5 * (y[:-k] + y[k:]), t[:-k] + 0.5 * k * spacing, True


def classify_series(series, times, *,
                    prominence_threshold: float = DEFAULT_PROMINENCE_THRESHOLD,
                    t_min: float = DEFAULT_BURN_IN,
                    beat_period: Optional[float] = None) -> PeakReport:
    """Burn-in + beat filter + find_peaks, with an overdamped-peak fallback.

    When damping is strong enough that the single maximum sits inside the
    burn-in window, the retained series decreases monotonically from its
    first sample; that case is reported as SinglePeak with
    ``boundary_peak=True`` rather than NoPeak.
    """
    y = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    filtered = False
    if beat_period is not None and beat_period > 0:
        y, t, filtered = _beat_notch(y, t, beat_period)
    keep = t >= t_min - 1e-12
    y, t = y[keep], t[keep]
    report = find_peaks(y, t, prominence_threshold)
    if (report.classification.kind == "NoPeak" and y.size
            and report.global_max > 0 and int(np.argmax(y)) == 0):
        report = replace(report,
                         peak_times=t[:1].copy(), peak_heights=y[:1].copy(),
                         classification=_classify_count(1),
                         prominences=np.array([report.global_max]),
                         boundary_peak=True)
    return replace(report, beat_filtered=filtered, t_min=t_min)

