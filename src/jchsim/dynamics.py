"""Time evolution: one pure-state stride loop and a density-matrix oracle.

The closed system, the jump-free branch and each quantum trajectory between
its jumps all evolve under H − (i/2)ΣL†L, in ``_propagate``.

That loop runs on blocks of the basis, read once from the nonzero patterns
of H, the collapse operators and ψ0: the finest partition in which ψ0 lies
in one block, H and every L†L couple states of one block only, and each L
maps a whole block into a single block.  A trajectory therefore occupies
exactly one block at every instant, and its strides, jumps and reductions
run on that block alone; no full-size propagator is formed.  On the presets
the blocks are the excitation sectors (H keeps the total excitation, each
photon loss lowers it by one); a model without such structure is one
block.  A block on which every L vanishes, such as the vacuum, is
absorbing: nothing leaves it, so once the state enters one the per-sample
jump test stops and the remaining samples are filled at once with powers
of the block's stride propagator.

The blocks, their propagators and the observables restricted to them
depend only on H, the collapse operators, ψ0, the grid and the observables,
so they are built once per ensemble: ``mcwf_ensemble`` keeps them in its
result, and ``EnsembleResult.jump_free_branch`` runs the conditional branch
on them.  Each observable is reduced on its support in a block, the states
where its restriction has a nonzero row or column: on n4's 192-state top
block, P4000 and P1111 need 2 and 16 of them.

A trajectory advances a whole sample interval at a time while its squared
norm stays above the waiting-time threshold.  An interval that crosses it
is redone in one dyadic descent over the powers 2^p of the dt step, which
finds the last step still above the threshold.  The crossing inside the
next step is bisected on that step's squared norm, a real polynomial of
degree 8 in the time into the step whose coefficients come from the Gram
matrix of ψ, Gψ, …, G⁴ψ; no state vector is formed while bisecting.

The density-matrix oracle ``lindblad_evolve`` uses the same partition, with
ρ0's support in one block.  ρ then stays block-diagonal, so only the
entries (i, j) inside one block are propagated: a superoperator of
(Σ_b k_b²)² entries for blocks of k_b states, not d⁴.  On the two-site
presets (blocks of 1, 4 and 8 states) that is 81² instead of 169².

All integrators share one numerical scheme: the classical fixed-step
4th-order Runge-Kutta update, which for these linear time-invariant
generators is exactly multiplication by the degree-4 Taylor polynomial
R(dt·A) = Σ_{k≤4} (dt·A)^k / k!.  R is computed once per run and applied
per step; whole sample intervals use matrix powers of R, so the scheme,
its order, and its roundoff behaviour are identical everywhere.

Pure-state propagators are built from H − c·I with c = tr(H)/dim.  The
shift is a global phase on pure states (populations, norms, jump
statistics and entanglement are unchanged; returned state phases differ
by e^{−ict}); it halves the spectral radius seen by the fixed-step scheme.
It cancels identically in the density-matrix commutator, so the oracle
uses H itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegratorError, SizeError
from .linalg import as_complex_matrix, check_budget, min_labels, require_hermitian

__all__ = [
    "BACKEND", "DEFAULT_DT", "DEFAULT_MAX_DT",
    "TimeGrid", "TrajectoryResult", "EnsembleResult", "ConditionalBranch",
    "mcwf_trajectory", "mcwf_ensemble", "no_jump_branch",
    "lindblad_evolve",
]

BACKEND = "numpy"              # the trajectory kernel, echoed in sidecars
DEFAULT_DT = 0.005
DEFAULT_MAX_DT = 0.01
_BISECT_TOL = 1e-10
_UNIT_NORM_ATOL = 1e-8
_NORM_UNDERFLOW = 1e-28
_RESCALE_FLOOR = 1e-150        # jump-free squared norm below which the state is rescaled


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def _bound_problems(t_start: float, t_end: float) -> list:
    """A problem for each grid bound that is not a finite number, and for a
    span that does not run forward."""
    problems = [f"{name}: must be finite, got {value}"
                for name, value in (("t_start", t_start), ("t_end", t_end))
                if not math.isfinite(value)]
    if not t_end > t_start:
        problems.append(f"t_end: must exceed t_start, got {t_end} <= {t_start}")
    return problems


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid with an integrator substep.

    ``n_samples`` points span [t_start, t_end] inclusive; the sample
    spacing must be an integer multiple of the integrator step ``dt``.
    """

    t_end: float
    n_samples: int
    dt: float = DEFAULT_DT
    t_start: float = 0.0

    def __post_init__(self):
        problems = _bound_problems(self.t_start, self.t_end)
        if int(self.n_samples) != self.n_samples or self.n_samples < 2:
            problems.append(f"n_samples: need an integer >= 2, got {self.n_samples}")
        if not self.dt > 0:
            problems.append(f"dt: must be positive, got {self.dt}")
        else:
            if self.dt > DEFAULT_MAX_DT:
                problems.append(f"dt: {self.dt} exceeds the stability cap {DEFAULT_MAX_DT}")
            span = self.t_end - self.t_start
            if 0 < span < math.inf and self.n_samples >= 2:
                ratio = self.spacing / self.dt
                if round(ratio) < 1:          # n_fine: at least one step per sample
                    problems.append(f"dt: {self.dt} exceeds the sample spacing {self.spacing}")
                elif abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
                    problems.append(
                        "spacing: sample spacing must be an integer multiple of dt "
                        f"(spacing/dt = {ratio!r})")
        if problems:
            raise ConfigError(problems)

    @classmethod
    def with_spacing(cls, t_end: float, spacing: float, dt: float = DEFAULT_DT,
                     t_start: float = 0.0) -> "TimeGrid":
        """Grid with the requested sample spacing snapped to the dt lattice.

        ``t_end`` is trimmed down to the last full sample interval.
        """
        problems = _bound_problems(t_start, t_end) + (
            [] if dt > 0 else [f"dt: must be positive, got {dt}"])
        if not 0 < spacing < math.inf:
            problems.append(f"spacing: must be positive and finite, got {spacing}")
        if problems:
            raise ConfigError(problems)
        n_fine = max(1, round(spacing / dt))
        snapped = n_fine * dt
        n_samples = int(math.floor((t_end - t_start) / snapped + 1e-9)) + 1
        if n_samples < 2:
            raise ConfigError([f"spacing: {spacing} does not fit inside ({t_start}, {t_end})"])
        return cls(t_end=t_start + (n_samples - 1) * snapped, n_samples=n_samples,
                   dt=dt, t_start=t_start)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def spacing(self) -> float:
        return self.span / (self.n_samples - 1)

    @property
    def n_fine(self) -> int:
        """Integrator steps per sample interval."""
        return round(self.spacing / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.spacing * np.arange(self.n_samples)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryResult:
    """One realization: unit-norm sampled states (lossless too) plus the jump record."""

    times: np.ndarray
    states: np.ndarray                    # (n_samples, dim), unit norm rows
    jumps: tuple                          # ((time, channel), ...) strictly increasing
    seed: object                          # int or tuple fed to the RNG stream


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-averaged observables with standard errors.

    It keeps the block propagators and observables the trajectories ran on,
    so that ``jump_free_branch`` runs the same model's conditional branch
    without building them again.
    """

    times: np.ndarray
    mean_observables: dict                # name -> (n_samples,) float array
    stderr: dict                          # same keys/shapes, >= 0
    n_traj: int
    rho_avg: Optional[np.ndarray]         # (n_samples, dim, dim) or None
    master_seed: int
    jumps_per_channel: np.ndarray         # (n_traj, n_channels) int: jumps of each trajectory
    absorbing_entry: np.ndarray           # (n_traj,) int: first sample in an absorbing block,
                                          # n_samples if never
    _machinery: _Machinery = field(repr=False, compare=False)

    def jump_free_branch(self) -> ConditionalBranch:
        """``no_jump_branch`` of the ensemble's inputs and observables, on its blocks."""
        return _jump_free_branch(self._machinery)


@dataclass(frozen=True)
class ConditionalBranch:
    """The deterministic jump-free branch of the unraveling.

    ``survival`` is the no-jump probability ‖ψ̃(t)‖²; ``states`` are the
    renormalized conditional states, finite also once the survival underflows
    to 0.0.  With no collapse operators, ``survival`` is the norm drift.  For
    an initial state in the top
    excitation sector (which decay never feeds), the conditional
    populations equal tr(Pρ)/tr(Π_sector ρ) of the full master equation.
    """

    times: np.ndarray
    states: np.ndarray
    survival: np.ndarray
    observables: dict


# ---------------------------------------------------------------------------
# propagator machinery
# ---------------------------------------------------------------------------

def _taylor4(m: np.ndarray) -> np.ndarray:
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return eye + m @ (eye + (m / 2.0) @ (eye + (m / 3.0) @ (eye + m / 4.0)))


def _block_labels(h: np.ndarray, ops: list, support: np.ndarray) -> np.ndarray:
    """Block of each basis state, labelled by the block's smallest state.

    The blocks are the finest partition in which the ``support`` states lie
    in one block, H and every L†L couple states of one block only, and each
    L maps a whole block into a single block.  Read off the nonzero
    patterns: each state takes the smallest label among the states it is
    linked to, until no label changes.
    """
    patterns = [np.nonzero(op) for op in ops]
    fixed = [np.nonzero(h), (support[:-1], support[1:])]
    for rows, cols in patterns:
        # states sent onto one row are coupled by L†L; rows come sorted
        same = rows[1:] == rows[:-1]
        fixed.append((cols[1:][same], cols[:-1][same]))
    labels = np.arange(h.shape[0])
    while True:
        links = list(fixed)
        for rows, cols in patterns:
            # the images of one block must share a block
            order = np.argsort(labels[cols], kind="stable")
            src = labels[cols][order]
            same = src[1:] == src[:-1]
            links.append((rows[order][1:][same], rows[order][:-1][same]))
        i, j = (np.concatenate(side) for side in zip(*links))
        new = min_labels(labels, i, j)
        if np.array_equal(new, labels):
            return labels
        labels = new


@dataclass(frozen=True)
class _Part:
    """One block of the partition: its states, generator and jump maps."""

    index: np.ndarray        # the block's basis states, ascending
    gen: np.ndarray          # no-jump generator -i(H - cI) - (1/2) Σ L†L on the block
    targets: tuple           # per channel: the block L maps this one into
    jumps: tuple             # per channel: L from this block into its target


def _partition(h: np.ndarray, ops: list, support: np.ndarray,
               center: float) -> tuple:
    """The blocks of ``_block_labels`` with each block's generator and jump maps.

    Returns the block of each basis state and one ``_Part`` per block,
    ordered by the block's smallest state.
    """
    owner = np.unique(_block_labels(h, ops, support), return_inverse=True)[1]
    members = [np.flatnonzero(owner == b) for b in range(owner.max() + 1)]
    parts = []
    for b, idx in enumerate(members):
        gen = -1j * (h[np.ix_(idx, idx)] - center * np.eye(len(idx)))
        targets, jumps = [], []
        for op in ops:
            hit = np.flatnonzero(op[:, idx].any(axis=1))
            target = owner[hit[0]] if len(hit) else b
            jump = op[np.ix_(members[target], idx)]
            gen = gen - 0.5 * (jump.conj().T @ jump)
            targets.append(int(target))
            jumps.append(np.ascontiguousarray(jump))
        parts.append(_Part(index=idx, gen=np.ascontiguousarray(gen),
                           targets=tuple(targets), jumps=tuple(jumps)))
    return owner, parts


@dataclass(frozen=True)
class _Block(_Part):
    r_stride: np.ndarray     # propagator over one sample interval
    r_pows: np.ndarray       # (p_max, k, k): dt-step propagator to powers 2^p
    absorbing: bool          # every L vanishes on the block: nothing leaves it


@dataclass(frozen=True)
class _Machinery:
    blocks: tuple            # of _Block, ordered by their smallest state
    start: int               # the block that holds psi0
    psi0: np.ndarray         # psi0 on that block
    n_chan: int
    dim: int
    grid: TimeGrid           # the strides and powers are built for its dt and n_fine
    names: tuple             # of the observables
    block_obs: list          # ``_block_observables`` of the blocks


def _check_ops(collapse: Sequence[np.ndarray], d: int) -> list:
    ops = [as_complex_matrix(op) for op in collapse]
    for op in ops:
        if op.shape != (d, d):
            raise SizeError(f"collapse operator shape {op.shape} does not match dim {d}")
    return ops


def _build_machinery(h: np.ndarray, collapse: Sequence[np.ndarray],
                     psi0: np.ndarray, grid: TimeGrid,
                     observables: Optional[Mapping[str, np.ndarray]] = None) -> _Machinery:
    h = require_hermitian(as_complex_matrix(h))
    d = h.shape[0]
    ops = _check_ops(collapse, d)
    psi0 = _check_state(psi0, d)
    obs = _coerce_observables(observables, d)
    support = np.flatnonzero(psi0)
    owner, parts = _partition(h, ops, support, float(np.trace(h).real) / d)
    n_fine = grid.n_fine
    n_pow = n_fine.bit_length()
    # r_dt ** n_fine from the squarings, in matrix_power's order: the set bits of
    # n_fine, least significant first, except (r @ r) @ r for n_fine = 3
    bits = [p for p in range(n_pow) if n_fine >> p & 1]
    blocks = []
    for part in parts:
        k = len(part.index)
        r_pows = np.empty((n_pow, k, k), dtype=np.complex128)
        r_pows[0] = _taylor4(grid.dt * part.gen)
        for p in range(1, n_pow):
            r_pows[p] = r_pows[p - 1] @ r_pows[p - 1]
        r_stride = r_pows[1] @ r_pows[0] if n_fine == 3 else reduce(np.matmul, r_pows[bits])
        blocks.append(_Block(index=part.index, gen=part.gen,
                             r_stride=np.ascontiguousarray(r_stride), r_pows=r_pows,
                             targets=part.targets, jumps=part.jumps,
                             absorbing=not any(jump.any() for jump in part.jumps)))
    start = int(owner[support[0]])
    return _Machinery(blocks=tuple(blocks), start=start,
                      psi0=np.ascontiguousarray(psi0[blocks[start].index]),
                      n_chan=len(ops), dim=d, grid=grid, names=tuple(obs),
                      block_obs=_block_observables(blocks, obs))


def _check_state(psi0: np.ndarray, d: int) -> np.ndarray:
    psi0 = np.ascontiguousarray(np.asarray(psi0, dtype=np.complex128))
    if psi0.shape != (d,):
        raise SizeError(f"state shape {psi0.shape} does not match dim {d}")
    if abs(np.vdot(psi0, psi0).real - 1.0) > _UNIT_NORM_ATOL:
        raise ConfigError([f"psi0: must have unit norm, got ||psi0||^2 = "
                           f"{np.vdot(psi0, psi0).real!r}"])
    return psi0


# ---------------------------------------------------------------------------
# pure-state evolutions: jump-free branches and quantum trajectories
# ---------------------------------------------------------------------------

def _norm2(x: np.ndarray) -> float:
    return np.vdot(x, x).real


def _threshold(rng: np.random.Generator) -> float:
    """Next waiting-time threshold for the decaying squared norm."""
    r = rng.random()
    return r if r > 0.0 else 1e-300


def _taylor_flow(powers: list, tau: float) -> np.ndarray:
    """Degree-4 Taylor flow over ``tau`` from powers = [ψ, Gψ, G²ψ, G³ψ, G⁴ψ]."""
    psi, v1, v2, v3, v4 = powers
    return psi + tau * (v1 + (tau / 2.0) * (v2 + (tau / 3.0) * (v3 + (tau / 4.0) * v4)))


# the Gram entry <G^i ψ, G^j ψ> enters the coefficient of τ^(i+j) with weight 1/(i! j!)
_GRAM_DEGREE = np.add.outer(np.arange(5), np.arange(5)).ravel()
_INV_FACTORIAL = 1.0 / np.array([math.factorial(k) for k in range(5)])
_GRAM_WEIGHT = np.outer(_INV_FACTORIAL, _INV_FACTORIAL).ravel()


def _flow_norm2_poly(powers: list) -> list:
    """‖_taylor_flow(powers, τ)‖² as a real polynomial of degree 8 in τ.

    The coefficient of τ^n is Σ_{i+j=n} Re<G^iψ, G^jψ>/(i! j!), read off
    the 5×5 Gram matrix of the powers.  Returned highest degree first, the
    order ``_poly_value`` takes.
    """
    v = np.array(powers)
    gram = (v.conj() @ v.T).real.ravel()
    return np.bincount(_GRAM_DEGREE, weights=gram * _GRAM_WEIGHT).tolist()[::-1]


def _poly_value(coeffs: list, tau: float) -> float:
    """Horner's rule on coefficients given highest degree first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * tau + c
    return acc


def _jumps_in_step(mach: _Machinery, b: int, work: np.ndarray, r: float, t0: float,
                   dt: float, rng: np.random.Generator, jumps: list):
    """Apply every jump inside the elementary step that starts at ``t0``.

    The step is the degree-4 polynomial flow the fixed-step integrator
    applies.  Each threshold crossing is bisected on the flow's squared
    norm, a scalar polynomial of degree 8 in the time into the step, so the
    flow vector is formed only at the end of the step and at the jump.
    Returns the state at the end of the step, the pending threshold and the
    block the state then occupies.
    """
    t_in_step = 0.0
    while True:
        blk = mach.blocks[b]
        frac = dt - t_in_step
        powers = [work]
        for _ in range(4):
            powers.append(blk.gen @ powers[-1])
        end = _taylor_flow(powers, frac)
        if _norm2(end) > r:
            return end, r, b
        coeffs = _flow_norm2_poly(powers)
        lo, hi = 0.0, frac
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if _poly_value(coeffs, mid) > r:
                lo = mid
            else:
                hi = mid
        tau = 0.5 * (lo + hi)
        # channel c with probability ||L_c phi||^2 / sum_k ||L_k phi||^2
        phi = _taylor_flow(powers, tau)
        jumped = [jump @ phi for jump in blk.jumps]
        acc = np.cumsum([_norm2(v) for v in jumped])
        chan = min(int(np.searchsorted(acc, rng.random() * acc[-1], side="right")),
                   len(acc) - 1)
        work = jumped[chan] * (1.0 / math.sqrt(_norm2(jumped[chan])))
        b = blk.targets[chan]
        jumps.append((t0 + t_in_step + tau, chan))
        r = _threshold(rng)
        t_in_step += tau


def _resolve_stride(mach: _Machinery, b: int, work: np.ndarray, r: float, t0: float,
                    grid: TimeGrid, rng: np.random.Generator, jumps: list):
    """Redo the sample interval starting at ``t0`` in elementary steps.

    One dyadic descent finds the last step whose end stays above the
    threshold: the powers 2^p of the step are tried from the largest that
    fits the remainder down to 1, each from the state the passed trials
    reached.  The jump-free norm never increases, so a power once passed
    over need not be tried again.  The single step after the descent
    crosses; its jumps are resolved inside it, and a new descent starts.
    Returns the state at the end of the interval, the pending threshold and
    the block the state then occupies.
    """
    n_fine = grid.n_fine
    done = 0
    while done < n_fine:
        if _norm2(work) < _NORM_UNDERFLOW:
            raise IntegratorError(
                "state norm fell below 1e-14 before the jump threshold was reached")
        r_pows = mach.blocks[b].r_pows
        for p in range((n_fine - done).bit_length() - 1, -1, -1):
            if done + (1 << p) <= n_fine:
                trial = r_pows[p] @ work
                if _norm2(trial) > r:
                    work = trial
                    done += 1 << p
        if done < n_fine:
            work, r, b = _jumps_in_step(mach, b, work, r, t0 + done * grid.dt, grid.dt,
                                        rng, jumps)
            done += 1
    return work, r, b


def _stride_powers(r_stride: np.ndarray, psi: np.ndarray, m: int) -> np.ndarray:
    """Rows R⁰ψ, R¹ψ, …, R^(m-1)ψ, doubling the columns with each squaring of R."""
    cols = psi[:, None]
    power = r_stride
    while cols.shape[1] < m:
        cols = np.hstack([cols, power @ cols[:, :m - cols.shape[1]]])
        power = power @ power
    return cols.T


def _propagate(mach: _Machinery, seed=None):
    """Normalized sample rows by block, their squared norms before
    normalization, the jumps, and the first sample in an absorbing block.

    The rows come as runs ``(block, first sample, rows)``: consecutive samples
    in one block, each row the state on that block.  With a seed and a
    collapse channel this is a trajectory: uniforms are drawn one at a time
    from the seed's stream (the threshold, then per jump the channel and the
    next threshold), and the decaying norm carries the waiting time.
    Otherwise it never jumps, and the state is rescaled below
    ``_RESCALE_FLOOR`` with the factor carried in the norms, so rows stay
    finite.  Once the state is in an absorbing block (``n_samples`` if
    never), the remaining rows are the powers of that block's stride
    propagator, filled at once.
    """
    grid = mach.grid
    jumping = seed is not None and mach.n_chan > 0
    if jumping:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        r = _threshold(rng)
    n = grid.n_samples
    jumps: list = []
    runs: list = []
    norms = np.empty(n, dtype=np.float64)
    carried = 1.0
    b, work = mach.start, mach.psi0
    norm2 = _norm2(work)
    absorbed = n
    for s in range(n):
        if s:
            cand = mach.blocks[b].r_stride @ work
            norm2 = _norm2(cand)
            if not jumping or norm2 > r:
                work = cand
            else:
                # at least one jump inside this interval
                work, r, b = _resolve_stride(mach, b, work, r,
                                             grid.t_start + (s - 1) * grid.spacing,
                                             grid, rng, jumps)
                norm2 = _norm2(work)
        if not runs or runs[-1][0] != b:
            runs.append((b, s, np.empty((n - s, len(work)), dtype=np.complex128)))
        _, first, rows = runs[-1]
        if mach.blocks[b].absorbing:
            absorbed = s
            tail = _stride_powers(mach.blocks[b].r_stride, work, n - s)
            tail_norm2 = np.einsum("ni,ni->n", tail.conj(), tail).real
            if not tail_norm2.min() > _RESCALE_FLOOR:
                raise IntegratorError(
                    f"the norm of a state no channel acts on fell below {_RESCALE_FLOOR}; "
                    f"dt = {grid.dt} is too coarse for the spectrum of H")
            rows[s - first:] = tail * (1.0 / np.sqrt(tail_norm2))[:, None]
            norms[s:] = carried * tail_norm2
            break
        if not norm2 > 0.0:
            raise IntegratorError("the state's norm underflowed to 0 within one "
                                  "sample interval; use a smaller sample spacing")
        rows[s - first] = work * (1.0 / math.sqrt(norm2))
        norms[s] = carried * norm2
        if not jumping and norm2 < _RESCALE_FLOOR:
            carried *= norm2
            work = rows[s - first]
    ends = [first for _, first, _ in runs[1:]] + [n]
    runs = [(b, first, rows[:end - first]) for (b, first, rows), end in zip(runs, ends)]
    return runs, norms, jumps, absorbed


def _dense_rows(mach: _Machinery, runs: list, n: int) -> np.ndarray:
    """The runs' rows as ``(n, dim)`` states, zero outside each block."""
    out = np.zeros((n, mach.dim), dtype=np.complex128)
    for b, first, rows in runs:
        out[first:first + len(rows), mach.blocks[b].index] = rows
    return out


def mcwf_trajectory(h: np.ndarray, collapse: Sequence[np.ndarray],
                    psi0: np.ndarray, grid: TimeGrid, seed) -> TrajectoryResult:
    """One Monte-Carlo wave-function trajectory (waiting-time unraveling).

    Between jumps the state evolves under H − (i/2)ΣL†L with decaying
    norm; when the squared norm crosses a uniform threshold the jump time
    is bisected to 1e-10 on the step's norm polynomial (the squared norm
    of the degree-4 flow, of degree 8 in time), a channel j is selected
    with probability ‖L_jψ‖²/Σ_k‖L_kψ‖², and the state is projected and
    renormalized.
    Deterministic given (seed, grid, inputs).
    """
    mach = _build_machinery(h, collapse, psi0, grid)
    runs, _, jumps, _ = _propagate(mach, seed)
    return TrajectoryResult(times=grid.times,
                            states=_dense_rows(mach, runs, grid.n_samples),
                            jumps=tuple(jumps), seed=seed)


def _batched_expectation(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    """<psi|P|psi> for each row of ``states``."""
    return np.einsum("ni,ni->n", states.conj(), states @ op.T).real


def _coerce_observables(observables: Optional[Mapping[str, np.ndarray]],
                        dim: int) -> dict:
    """The named observables as complex ``(dim, dim)`` matrices."""
    out = {}
    for name, op in (observables or {}).items():
        op = as_complex_matrix(op)
        if op.shape != (dim, dim):
            raise SizeError(f"observable {name!r} shape {op.shape} does not match dim {dim}")
        out[str(name)] = op
    return out


def _block_observables(blocks: Sequence[_Part], obs: dict) -> list:
    """Each observable on each block's support: ``[block][observable]``.

    The support is the block's states where the observable's restriction has
    a nonzero row or column; each entry is ``(support, restriction to the
    support)``.
    """
    out = []
    for blk in blocks:
        entries = []
        for op in obs.values():
            sub = op[np.ix_(blk.index, blk.index)]
            support = np.flatnonzero(sub.any(axis=0) | sub.any(axis=1))
            entries.append((support, np.ascontiguousarray(sub[np.ix_(support, support)])))
        out.append(entries)
    return out


def _reduce(runs: list, block_obs: list, out: np.ndarray) -> np.ndarray:
    """``out[o, s]`` = <ψ_s|P_o|ψ_s>, each sample reduced on its block's
    columns in the observable's support (0.0 where that is empty)."""
    for b, first, rows in runs:
        for o, (support, op) in enumerate(block_obs[b]):
            if len(support):
                out[o, first:first + len(rows)] = _batched_expectation(rows[:, support], op)
            else:
                out[o, first:first + len(rows)] = 0.0
    return out


def _jump_free_branch(mach: _Machinery) -> ConditionalBranch:
    """The seedless run of ``_propagate`` on built blocks, reduced and embedded."""
    n = mach.grid.n_samples
    runs, survival, _, _ = _propagate(mach)
    values = _reduce(runs, mach.block_obs, np.empty((len(mach.names), n)))
    return ConditionalBranch(times=mach.grid.times, states=_dense_rows(mach, runs, n),
                             survival=survival, observables=dict(zip(mach.names, values)))


def no_jump_branch(h: np.ndarray, collapse: Sequence[np.ndarray], psi0: np.ndarray,
                   grid: TimeGrid,
                   observables: Optional[Mapping[str, np.ndarray]] = None,
                   ) -> ConditionalBranch:
    """Evolve the jump-free branch: decaying norm plus renormalized states.

    With ``collapse = ()`` this is the closed-system evolution.  A caller
    that has run ``mcwf_ensemble`` on the same inputs gets the same branch,
    without building the blocks again, from ``EnsembleResult.jump_free_branch``.
    """
    return _jump_free_branch(_build_machinery(h, collapse, psi0, grid, observables))


def mcwf_ensemble(h: np.ndarray, collapse: Sequence[np.ndarray], psi0: np.ndarray,
                  grid: TimeGrid, n_traj: int, master_seed: int,
                  observables=None, keep_rho: bool = False) -> EnsembleResult:
    """Average ``n_traj`` trajectories with per-index RNG streams.

    Trajectory j draws from SeedSequence((master_seed, j)), so it is the
    same trajectory ``mcwf_trajectory`` gives for seed (master_seed, j);
    reduction runs in index order, so repeated runs are byte-identical.
    With ``keep_rho``, the bytes of ρ̄'s per-block sums and of the dense stack
    embedded from them, alive at once, count against ``linalg.MEMORY_CAP``.
    """
    if n_traj < 1:
        raise ConfigError([f"n_traj: must be >= 1, got {n_traj}"])
    n = grid.n_samples
    mach = _build_machinery(h, collapse, psi0, grid, observables)
    d = mach.dim
    if keep_rho:
        check_budget(n * (sum(len(blk.index) ** 2 for blk in mach.blocks) + d * d) * 16,
                     f"averaging ρ over {n} samples (its blocks and the dense stack)")
    # without a collapse channel every trajectory is the same jump-free run
    n_runs = n_traj if mach.n_chan else 1
    rows = np.empty((n_runs, len(mach.names), n), dtype=np.float64)
    counts = np.zeros((n_runs, mach.n_chan), dtype=np.int64)
    absorbed = np.empty(n_runs, dtype=np.int64)
    # ρ̄ is block-diagonal: accumulate each block's stack, embed it once at the end
    rho_sums = [np.zeros((n, len(blk.index), len(blk.index)), dtype=np.complex128)
                for blk in mach.blocks] if keep_rho else None
    for idx in range(n_runs):
        runs, _, jumps, absorbed[idx] = _propagate(mach, (master_seed, idx))
        _reduce(runs, mach.block_obs, rows[idx])
        counts[idx] = np.bincount([chan for _, chan in jumps], minlength=mach.n_chan)
        if keep_rho:
            for b, first, states in runs:
                rho_sums[b][first:first + len(states)] += np.einsum(
                    "ni,nj->nij", states, states.conj())

    means = {}
    stderr = {}
    for o, name in enumerate(mach.names):
        sample = rows[:, o, :]
        means[name] = sample.mean(axis=0)
        if n_runs > 1:
            stderr[name] = sample.std(axis=0, ddof=1) / math.sqrt(n_traj)
        else:
            stderr[name] = np.zeros(n)
    rho_avg = None
    if keep_rho:
        rho_avg = np.zeros((n, d, d), dtype=np.complex128)
        for blk, rho_sum in zip(mach.blocks, rho_sums):
            rho_avg[:, blk.index[:, None], blk.index] = rho_sum / n_runs
    copies = n_traj // n_runs
    return EnsembleResult(times=grid.times, mean_observables=means, stderr=stderr,
                          n_traj=n_traj, rho_avg=rho_avg, master_seed=master_seed,
                          jumps_per_channel=np.repeat(counts, copies, axis=0),
                          absorbing_entry=np.repeat(absorbed, copies), _machinery=mach)


# ---------------------------------------------------------------------------
# density-matrix oracle
# ---------------------------------------------------------------------------

def _block_superoperator(parts: list) -> tuple:
    """Generator of the master equation on the block-diagonal part of ρ.

    ρ's block (b, b) is stored row-major at ``offsets[b]:offsets[b + 1]`` of
    the restricted vector.  Block (b, b) evolves under G_b ρ_b + ρ_b G_b†,
    and each channel feeds L ρ_b L† into the block (t, t) it maps b into.
    """
    offsets = np.cumsum([0] + [len(part.index) ** 2 for part in parts])
    sup = np.zeros((offsets[-1], offsets[-1]), dtype=np.complex128)
    for b, part in enumerate(parts):
        eye = np.eye(len(part.index))
        cols = slice(offsets[b], offsets[b + 1])
        sup[cols, cols] += np.kron(part.gen, eye) + np.kron(eye, part.gen.conj())
        for t, jump in zip(part.targets, part.jumps):
            sup[offsets[t]:offsets[t + 1], cols] += np.kron(jump, jump.conj())
    return sup, offsets


def lindblad_evolve(h: np.ndarray, collapse: Sequence[np.ndarray],
                    rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Propagate the density matrix; returns (n_samples, d, d).

    The validation oracle, with the same fixed-step degree-4 scheme as the
    trajectory integrator.  ρ0's support lies in one block of the trajectory
    partition; H and every L†L act inside a block and each L maps a block
    into one block, so ρ stays block-diagonal.  Only the entries of the
    diagonal blocks are propagated, by a dense superoperator of
    (Σ_b k_b²)² entries for blocks of k_b states, checked against
    ``linalg.MEMORY_CAP`` before it is built; entries off the blocks are returned
    as exact zeros.  A model without structure is one block.
    """
    rho0 = as_complex_matrix(rho0)
    d = rho0.shape[0]
    require_hermitian(rho0, atol=1e-8)
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ConfigError([f"rho0: trace must be 1, got {np.trace(rho0)!r}"])
    if np.linalg.eigvalsh(rho0).min() < -1e-8:
        raise ConfigError(["rho0: must be positive semidefinite"])
    h = require_hermitian(as_complex_matrix(h))
    if h.shape != (d, d):
        raise SizeError(f"Hamiltonian shape {h.shape} does not match dim {d}")

    support = np.flatnonzero(rho0.any(axis=0) | rho0.any(axis=1))
    _, parts = _partition(h, _check_ops(collapse, d), support, 0.0)
    n_kept = sum(len(part.index) ** 2 for part in parts)
    check_budget(n_kept ** 2 * 16, f"the superoperator on {n_kept} entries of ρ")
    sup, offsets = _block_superoperator(parts)
    r_stride = np.linalg.matrix_power(_taylor4(grid.dt * sup), grid.n_fine)
    vecs = np.empty((grid.n_samples, offsets[-1]), dtype=np.complex128)
    vecs[0] = np.concatenate([rho0[np.ix_(part.index, part.index)].reshape(-1)
                              for part in parts])
    for s in range(1, grid.n_samples):
        vecs[s] = r_stride @ vecs[s - 1]
    out = np.zeros((grid.n_samples, d, d), dtype=np.complex128)
    for part, first, end in zip(parts, offsets, offsets[1:]):
        k = len(part.index)
        out[:, part.index[:, None], part.index] = vecs[:, first:end].reshape(-1, k, k)
    return out
