"""Projectors, inter-site entanglement negativity, and the peak classifier.

``block_negativity`` is the negativity every run path takes: it reads the
partial transpose of each reduced-basis state straight off the state's
entries and diagonalizes it block by block, never forming the site_dim^N
product space.  A state that commutes with the total excitation has a
partial transpose that is block-diagonal in the excitation imbalance q
across the cut, the left sites' excitations less the right sites'
(Cornfeld, Goldstein & Sela, PRA 98, 032302 (2018)), so the blocks are read
off the basis: fig4's 13-dim states have blocks of 9, 6, 6, 2 and 2 in the
36-dim space.  A state that links two excitation sectors is refused.
``negativity``/``negativity_series`` keep the dense product-space form as
the reference that tests compare against; no run path calls them.

``checked_cut`` is the one cut rule; ``transpose_bytes`` counts the bytes
that the guard of the partial transpose's largest block checks.

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
from .dynamics import DEFAULT_DT
from .linalg import (BlockDensity, as_complex_matrix, check_budget, partial_transpose,
                     real, whole)
from .model import (ModelParams, PolaritonLabel, ReducedSpace, checked_labels,
                    dense_bytes, polariton_energy, sector_dims)

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
        checked_labels(labels, params, space.max_exc, field=f"projector {self.name}")
        orderings = (sorted(set(itertools.permutations(labels)))
                     if self.symmetrize else [tuple(labels)])
        check_budget(dense_bytes(space.dim), f"projector {self.name} on {space.dim} states")
        proj = np.zeros((space.dim, space.dim), dtype=np.complex128)
        for ordering in orderings:
            vec = space.product_state(ordering)
            proj += np.outer(vec, vec.conj())
        return proj


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------

def checked_cut(cut, n_sites: int, field: str = "cut") -> int:
    """``cut`` as an int if it splits ``n_sites`` sites in two, 1 <= cut <
    ``n_sites``; else ``SizeError`` naming ``field``."""
    if whole(cut, 1, field, SizeError) >= n_sites:
        raise SizeError(f"{field}: need an integer with 1 <= cut < {n_sites}, got {cut!r}")
    return int(cut)


def transpose_bytes(n_samples: int, block: int) -> int:
    """Bytes ``block_negativity`` holds for the partial transpose's largest
    block, of ``block`` states: its ``(n_samples, block, block)`` stack, the
    entries gathered into it, and its eigenvalues."""
    return n_samples * (2 * block * block + block) * 16


def transpose_block_bound(n_sites: int, max_exc: int, cut: int) -> int:
    """The states of the partial transpose's largest block across ``cut``,
    for a state on the basis with at most ``max_exc`` excitations that
    keeps the total excitation, as ρ̄ does.

    The transpose sends each entry to a row and a column whose left
    excitations less their right ones are one number q, and
    ``block_negativity`` takes each q as one block: at most Σ_a L_a·R_(a−q)
    states, with L and R the sector sizes of the sites left and right of
    the cut, and exactly that many for a state with every entry of its
    sectors nonzero.
    """
    left, right = sector_dims(cut, max_exc), sector_dims(n_sites - cut, max_exc)
    return max(sum(left[a] * right[a - q]
                   for a in range(max(q, 0), min(len(left), len(right) + q)))
               for q in range(-max_exc, max_exc + 1))


def negativity(rho, dims) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the right
    factor of ``dims = (left, right)`` (Bell pair: 0.5)."""
    return float(negativity_series(as_complex_matrix(rho)[None], dims)[0])


def negativity_series(rho_stack: np.ndarray, dims) -> np.ndarray:
    """negativity() of each matrix in an ``(n, d, d)`` stack, in one batch.

    One partial transpose of the stack and one ``eigvalsh`` call.  Each row
    of eigenvalues is ascending, so its negative ones are a prefix; rows
    with the same prefix length are summed together, which adds each row in
    the order a sum of that prefix alone would.
    """
    stack = np.asarray(rho_stack)
    if stack.ndim != 3:
        raise SizeError(f"expected an (n, d, d) stack, got shape {stack.shape}")
    eigs = np.linalg.eigvalsh(partial_transpose(stack, dims, which=1))
    counts = (eigs < 0.0).sum(axis=1)
    out = np.empty(len(eigs))
    for m in set(counts.tolist()):
        rows = counts == m
        out[rows] = -eigs[rows, :m].sum(axis=1)
    return out + 0.0   # +0.0 normalizes -0.0


def _block_density(rho, space: ReducedSpace) -> BlockDensity:
    """``rho`` if it is a ``BlockDensity``; an ``(n, dim, dim)`` stack as one
    entry per matrix element."""
    if isinstance(rho, BlockDensity):
        return rho
    stack = np.asarray(rho)
    if stack.ndim != 3 or stack.shape[1:] != (space.dim, space.dim):
        raise SizeError(f"expected a stack of {space.dim}-dim matrices, got shape {stack.shape}")
    return BlockDensity(stack.reshape(len(stack), space.dim ** 2),
                        *np.divmod(np.arange(space.dim ** 2), space.dim))


def block_negativity(rho, space: ReducedSpace, cut: int) -> np.ndarray:
    """Negativity across ``cut`` of each state of a reduced-basis stack.

    ``rho`` is a ``BlockDensity``, such as the ensemble's ρ̄, or an ``(n,
    dim, dim)`` stack, which is read as one entry per matrix element.
    The same value as ``negativity_series`` of the embedded stack with the
    sites regrouped at ``cut``, without the product space.  Each basis
    state's product index splits into (left, right) at the cut, and the
    partial transpose on the right sends entry (i, j) to row (left_i,
    right_j) and column (left_j, right_i).  The state must keep the total
    excitation: an entry nonzero at some sample whose row and column lie
    in different sectors is a ``ConfigError`` naming ``rho``.  Then the row
    and the column have one excitation imbalance q, left_i's excitations
    less right_j's, and the blocks are the q-classes of the rows and
    columns of the entries nonzero at some sample.  Each block gets one
    ``eigvalsh`` of its ``(n, k, k)`` stack, its states in ascending
    product index; the blocks' negative eigenvalues are added in the order
    of their smallest product index.
    """
    cut = checked_cut(cut, space.params.n_sites)
    rho = _block_density(rho, space)
    # an entry that is zero at every sample links nothing
    kept = np.flatnonzero((rho.entries != 0).any(axis=0))
    i, j = rho.rows[kept], rho.cols[kept]
    mixed = np.flatnonzero(space.n_tot[i] != space.n_tot[j])
    if mixed.size:
        a, b = i[mixed[0]], j[mixed[0]]
        raise ConfigError([f"rho: entry ({a}, {b}) links excitation sectors {space.n_tot[a]} "
                           f"and {space.n_tot[b]}; the negativity needs a state that keeps "
                           f"the total excitation"])
    right_dim = space.params.site_dim ** (space.params.n_sites - cut)
    left, right = np.divmod(space.full_indices, right_dim)
    left_exc = space.states[:, :cut].sum(axis=(1, 2))
    right_exc = space.states[:, cut:].sum(axis=(1, 2))
    # product indices of the transposed entries' rows and columns, numbered compactly
    nodes, pos = np.unique(np.concatenate([left[i] * right_dim + right[j],
                                           left[j] * right_dim + right[i]]),
                           return_inverse=True)
    row, col = pos[:len(kept)], pos[len(kept):]
    q = np.empty(len(nodes), dtype=np.intp)
    q[row] = q[col] = left_exc[i] - right_exc[j]
    # each node's block: its q-class, numbered in the order of the class's smallest node
    _, first, cls = np.unique(q, return_index=True, return_inverse=True)
    block = np.argsort(np.argsort(first))[cls]
    sizes = np.bincount(block)
    local = np.empty(len(nodes), dtype=np.intp)
    local[np.argsort(block, kind="stable")] = (np.arange(len(nodes))
                                               - np.repeat(np.cumsum(sizes) - sizes, sizes))
    # the entries grouped by block, each at its row and column in the block
    order = np.argsort(block[row], kind="stable")
    bounds = np.cumsum(np.r_[0, np.bincount(block[row], minlength=len(sizes))]).tolist()
    entries, row, col = kept[order], local[row[order]], local[col[order]]

    n = len(rho.entries)
    largest = int(sizes.max(initial=0))
    check_budget(transpose_bytes(n, largest),
                 f"the partial transpose's largest block, {largest} states over {n} samples,")
    out = np.zeros(n)
    for k, lo, hi in zip(sizes.tolist(), bounds, bounds[1:]):
        stack = np.zeros((n, k, k), dtype=np.complex128)
        stack[:, row[lo:hi], col[lo:hi]] = rho.entries[:, entries[lo:hi]]
        out -= np.minimum(np.linalg.eigvalsh(stack), 0.0).sum(axis=1)
    return out + 0.0   # +0.0 normalizes -0.0


def reduced_bipartition(rho, site_dims: Sequence[int], cut: int):
    """Regroup an N-site state into a left|right bipartition at ``cut``.

    Pure index bookkeeping — the matrix is unchanged; only the factor
    dimensions are regrouped to the pair (prod(dims[:cut]), prod(dims[cut:])).
    """
    dims = [whole(d, 1, "site_dims", SizeError) for d in site_dims]
    cut = checked_cut(cut, len(dims))
    rho = as_complex_matrix(rho)
    left = math.prod(dims[:cut])
    right = math.prod(dims[cut:])
    if left * right != rho.shape[0]:
        raise SizeError(f"site dims {dims} do not match rho dimension {rho.shape[0]}")
    return rho, (left, right)


# ---------------------------------------------------------------------------
# beat period helpers
# ---------------------------------------------------------------------------

def blockade_beat_period(params: ModelParams) -> Optional[float]:
    """Period of the two-excitation anharmonic beat, from site 0's dressed energies.

    Site 0's coupling ``g[0]`` sets it, also when the sites' couplings differ.
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


def recommended_spacing(params: ModelParams, dt: float = DEFAULT_DT) -> float:
    """Sample spacing for classification runs: quarter beat, on the dt lattice."""
    real(dt, "dt", above=0.0)
    period = blockade_beat_period(params)
    if period is None:
        return 500 * dt
    return max(1, round(period / 4.0 / dt)) * dt


# ---------------------------------------------------------------------------
# peak detection and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakClassification:
    """The classifier's verdict on a count of qualifying peaks."""

    count: int

    @property
    def kind(self) -> str:
        """One of NoPeak, SinglePeak and MultiPeak."""
        if self.count == 0:
            return "NoPeak"
        return "SinglePeak" if self.count == 1 else "MultiPeak"

    def __str__(self) -> str:
        return f"MultiPeak({self.count})" if self.kind == "MultiPeak" else self.kind


@dataclass(frozen=True)
class PeakReport:
    """Qualifying peaks of a series; ``classification`` is read off their count."""

    peak_times: np.ndarray
    peak_heights: np.ndarray
    global_max: float
    prominences: np.ndarray = None
    boundary_peak: bool = False     # single peak sat at the first retained sample
    beat_filtered: bool = False

    @property
    def classification(self) -> PeakClassification:
        return PeakClassification(len(self.peak_times))


def find_peaks(series, times,
               prominence_threshold: float = DEFAULT_PROMINENCE_THRESHOLD) -> PeakReport:
    """Strict local maxima whose prominence is at least threshold · global max.

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
                          global_max=global_max, prominences=np.empty(0))
    idx, prominences = _maxima_and_prominences(y)
    keep = prominences >= prominence_threshold * global_max
    idx = idx[keep]
    return PeakReport(peak_times=t[idx], peak_heights=y[idx], global_max=global_max,
                      prominences=prominences[keep])


def _maxima_and_prominences(y: np.ndarray) -> tuple:
    """Strict local maxima of ``y`` and their topographic prominences.

    A plateau higher than both neighbours is one maximum, at its middle
    sample rounded down; a plateau touching either end is none.  A
    maximum's prominence is its height above the higher of the two lowest
    samples reached on each side before a higher sample or the edge.  These
    are the peaks and prominences of ``scipy.signal.find_peaks``.
    """
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])   # runs of equal samples
    ends = np.r_[starts[1:], y.size] - 1
    level = y[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    idx = (starts[top] + ends[top]) // 2
    prominences = np.empty(idx.size)
    for n, i in enumerate(idx):
        higher = np.flatnonzero(y > y[i])
        cut = np.searchsorted(higher, i)
        lo = higher[cut - 1] + 1 if cut else 0
        hi = higher[cut] if cut < higher.size else y.size
        prominences[n] = y[i] - max(y[lo:i + 1].min(), y[i:hi].min())
    return idx, prominences


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
    ``boundary_peak=True`` rather than NoPeak.  ``beat_period`` is None
    (no filter) or a positive finite number.
    """
    y = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    filtered = False
    if beat_period is not None:
        y, t, filtered = _beat_notch(y, t, real(beat_period, "beat_period", above=0.0))
    keep = t >= t_min - 1e-12
    y, t = y[keep], t[keep]
    report = find_peaks(y, t, prominence_threshold)
    if (report.classification.kind == "NoPeak" and y.size
            and report.global_max > 0 and int(np.argmax(y)) == 0):
        report = replace(report,
                         peak_times=t[:1].copy(), peak_heights=y[:1].copy(),
                         prominences=np.array([report.global_max]),
                         boundary_peak=True)
    return replace(report, beat_filtered=filtered)

