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
absorbing: nothing leaves it, so a state in one takes no jump test.

The loop is time-major: it advances a batch of columns, each one
pure-state evolution, through the samples together.  The columns are
grouped by the block each occupies, so each stride is one matrix product
per occupied block, and each sample's observables are reduced for all of
a block's rows at once.  ``mcwf_ensemble`` is a batch of ``n_traj``
trajectories, ``mcwf_trajectory`` a batch of one, and the jump-free branch
a seedless batch of one.  Every trajectory keeps its own random stream
and draw order, so it is the same whatever else runs in its batch.

Where the blocks lie depends only on where H, the collapse operators and
ψ0 are nonzero; ``block_structure`` reads that into a ``BlockStructure``,
and each block's generator and jump maps are sliced out of H and the L on
it.  The blocks, their propagators and the observables restricted to them
depend only on H, the collapse operators, ψ0, the grid and the observables,
so they are built once per ensemble: ``mcwf_ensemble`` keeps them in its
result, and ``EnsembleResult.jump_free_branch`` runs the conditional branch
on them.  Each observable is reduced on its support in a block, the states
where its restriction has a nonzero row or column: on n4's 192-state top
block, P4000 and P1111 need 2 and 16 of them.

A trajectory advances a whole sample interval at a time while its squared
norm stays above the waiting-time threshold.  An interval that crosses it
is redone, for that column alone, in one dyadic descent over the powers
2^p of the dt step, which
finds the last step still above the threshold.  The crossing inside the
next step is bisected on that step's squared norm, a real polynomial of
degree 8 in the time into the step whose coefficients come from the Gram
matrix of ψ, Gψ, …, G⁴ψ; no state vector is formed while bisecting.
Crossings are resolved one row at a time, and a row's scalar work, the
bisection's Horner steps and the channel draw's running sum, runs on
Python floats: on the two-site blocks of 4 and 8 states a NumPy call costs
more than the arithmetic it would do.

The density-matrix oracle ``lindblad_evolve`` uses the same partition, with
ρ0's support in one block.  ρ then stays block-diagonal, so only the
entries (i, j) inside one block are propagated: a generator of
(Σ_b k_b²)² entries for blocks of k_b states, not d⁴.  On the two-site
presets (blocks of 1, 4 and 8 states) that is 81² instead of 169².  The
oracle's ρ and the ensemble's ρ̄ are both held in one layout, the
``BlockStructure``'s; ρ̄ as the complex entries, returned as a
``BlockDensity``, and the oracle's ρ as real coordinates, Re ρ_ij on and
above each block's diagonal and Im ρ_ij below it.  Each block is
Hermitian, so those k_b² reals are the whole block, and the master
equation is real-linear on them: the oracle's generator, step, stride and
samples are real matrices, whose products cost about a quarter of complex
ones.

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
uses H itself.  The exact jump-free flow never raises the squared norm, and
the pure-state scheme has one step rule: when the blocks are built, each
block's step R must satisfy ‖R‖₂² ≤ 1 + ``_UNIT_NORM_ATOL``, else
``IntegratorError`` names ``dt`` before anything propagates
(``_check_step``).  Then no state's norm can grow, in a stride, a descent,
a step with jumps or the seedless branch, and none is checked there.  The
oracle's generator sees differences of eigenvalues, and its step's
coordinate norm bounds no contraction, so it keeps its own check: a stride
or samples that are not finite raise the same error.

Every matrix a caller passes, H, a collapse operator or an observable, is
read by one rule (``_square``): a square complex matrix of the model's
dimension, else a ``SizeError`` that names it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegratorError, SizeError, collect
from .linalg import (BlockDensity, as_complex_matrix, check_budget, min_labels,
                     real, require_hermitian, whole)

__all__ = [
    "BACKEND", "DEFAULT_DT", "DEFAULT_MAX_DT",
    "TimeGrid", "TrajectoryResult", "EnsembleResult", "ConditionalBranch",
    "mcwf_trajectory", "mcwf_ensemble", "no_jump_branch",
    "BlockStructure", "block_structure", "lindblad_evolve",
]

BACKEND = "numpy"              # the trajectory kernel; perfbench records it
DEFAULT_DT = 0.005
DEFAULT_MAX_DT = 0.01
_BISECT_TOL = 1e-10
_UNIT_NORM_ATOL = 1e-8
_NORM_UNDERFLOW = 1e-28
_RESCALE_FLOOR = 1e-150        # jump-free squared norm below which the state is rescaled
# a column's Python objects (``batch_bytes``): its Generator with its SeedSequence
# and seed tuple and its jump list, about 1.1 KB by tracemalloc, with the
# temporaries of a row that jumps; and each jump's (time, channel) record
_COLUMN_BYTES = 1536
_JUMP_BYTES = 96


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def _bound_problems(t_start, t_end, dt) -> tuple:
    """The grid's bounds and step as ``linalg.real`` takes them, None where it
    refuses one, and a problem for each refused one and for a span that does
    not run forward or is too long for a float."""
    problems = []
    t0, t1 = collect(problems, real, t_start, "t_start"), collect(problems, real, t_end, "t_end")
    if None not in (t0, t1) and not t1 > t0:
        problems.append(f"t_end: must exceed t_start, got {t_end} <= {t_start}")
    elif None not in (t0, t1):
        collect(problems, real, t1 - t0, "t_end - t_start")
    return (t0, t1, collect(problems, real, dt, "dt", above=0.0)), problems


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid with an integrator substep.

    ``n_samples`` points span [t_start, t_end] inclusive.  A whole number
    given as a float is stored as an int, and the bounds and step as floats
    (``linalg.whole`` and ``linalg.real``); the sample spacing must be an
    integer multiple of the integrator step ``dt``.
    """

    t_end: float
    n_samples: int
    dt: float = DEFAULT_DT
    t_start: float = 0.0

    def __post_init__(self):
        (t_start, t_end, dt), problems = _bound_problems(self.t_start, self.t_end, self.dt)
        n_samples = collect(problems, whole, self.n_samples, 2, "n_samples")
        spacing = None if problems else (t_end - t_start) / (n_samples - 1)
        if dt is not None and dt > DEFAULT_MAX_DT:
            problems.append(f"dt: {self.dt} exceeds the stability cap {DEFAULT_MAX_DT}")
        ratio = None if spacing is None else collect(problems, real, spacing / dt, "spacing/dt")
        if ratio is not None:
            if round(ratio) < 1:              # n_fine: at least one step per sample
                problems.append(f"dt: {self.dt} exceeds the sample spacing {spacing}")
            elif abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
                problems.append(
                    "spacing: sample spacing must be an integer multiple of dt "
                    f"(spacing/dt = {ratio!r})")
        if problems:
            raise ConfigError(problems)
        for name, value in (("t_end", t_end), ("n_samples", n_samples), ("dt", dt),
                            ("t_start", t_start)):
            object.__setattr__(self, name, value)

    @classmethod
    def with_spacing(cls, t_end: float, spacing: float, dt: float = DEFAULT_DT,
                     t_start: float = 0.0) -> "TimeGrid":
        """Grid with the requested sample spacing snapped to the dt lattice.

        ``t_end`` is trimmed down to the last full sample interval.
        """
        (t_start, t_end, dt), problems = _bound_problems(t_start, t_end, dt)
        collect(problems, real, spacing, "spacing", above=0.0)
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
    """One realization: unit-norm sampled states (lossless too) plus the jump record.

    Row s of ``states`` is the sample at ``grid.times[s]`` of the grid it ran on.
    """

    states: np.ndarray                    # (n_samples, dim), unit norm rows
    jumps: tuple                          # ((time, channel), ...) strictly increasing


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-averaged observables with standard errors.

    The samples are those of the grid the ensemble ran on, and there is one
    row of ``jumps_per_channel`` and ``absorbing_entry`` per trajectory.  It
    keeps the block propagators and observables the trajectories ran on,
    so that ``jump_free_branch`` runs the same model's conditional branch
    without building them again.
    """

    mean_observables: dict                # name -> (n_samples,) float array
    stderr: dict                          # same keys/shapes, >= 0
    rho_blocks: Optional[BlockDensity]    # ρ̄ on its blocks, or None
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
    Every array runs over the samples of the grid the branch ran on.
    """

    states: np.ndarray
    survival: np.ndarray
    observables: dict


# ---------------------------------------------------------------------------
# propagator machinery
# ---------------------------------------------------------------------------

def _taylor4(m: np.ndarray) -> np.ndarray:
    """I + m(I + (m/2)(I + (m/3)(I + m/4))), from the inside out.

    Each I is made just before it is added in place, so that m and at most
    three more matrices of its size are live at once.
    """
    acc = m / 4.0
    for scaled in (lambda: m / 3.0, lambda: m / 2.0, lambda: m):
        acc += np.eye(len(m))
        acc = scaled() @ acc
    return acc + np.eye(len(m))


def _support(state: np.ndarray) -> np.ndarray:
    """The basis states where a state vector, or a density matrix's rows or
    columns, are nonzero."""
    state = np.asarray(state)
    return np.flatnonzero(state if state.ndim == 1 else state.any(axis=0) | state.any(axis=1))


def _block_labels(d: int, h_pattern: tuple, patterns: list, support: np.ndarray) -> np.ndarray:
    """Block of each of the ``d`` basis states, labelled by the block's smallest state.

    The blocks are the finest partition in which the ``support`` states lie
    in one block, H and every L†L couple states of one block only, and each
    L maps a whole block into a single block.  Read off the nonzero
    patterns, as (rows, columns) in row-major order, of H and of each L:
    each state takes the smallest label among the states it is linked to,
    until no label changes.
    """
    fixed = [h_pattern, (support[:-1], support[1:])]
    for rows, cols in patterns:
        # states sent onto one row are coupled by L†L; rows come sorted
        same = rows[1:] == rows[:-1]
        fixed.append((cols[1:][same], cols[:-1][same]))
    labels = np.arange(d)
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
class BlockStructure:
    """The blocks of a model, and ρ's layout on them: everything the
    partition takes from the nonzero patterns of H, the collapse operators
    and the start state alone.

    ``block_structure`` reads it.  It keeps no entry of H or of an L, so
    one structure serves every model whose operators have its patterns,
    such as the points of a γ_c sweep, whose H = H0 + J·K and L = √γ·A
    differ only in their numbers; ``check`` refuses any other.
    """

    dim: int
    patterns: tuple          # flat indices of the nonzero entries of H, then of each L
    support: np.ndarray      # the start state's support
    members: tuple           # each block's basis states, ascending; blocks by smallest state
    targets: tuple           # per channel: the block it maps each block into
    start: int               # the block that holds the support
    offsets: np.ndarray      # ρ's blocks in one vector: b row-major at offsets[b]:offsets[b + 1]

    # the rest of that layout, read when first asked for: an ensemble that
    # keeps no ρ̄ never needs it, and on n4's blocks it is about 1 MB
    @cached_property
    def rows(self) -> np.ndarray:
        """The basis row of each entry."""
        return np.concatenate([np.repeat(idx, len(idx)) for idx in self.members])

    @cached_property
    def cols(self) -> np.ndarray:
        """The basis column of each entry."""
        return np.concatenate([np.tile(idx, len(idx)) for idx in self.members])

    @cached_property
    def lower(self) -> np.ndarray:
        """Whether each entry lies below the diagonal, where its real coordinate is Im ρ_ij."""
        return self.rows > self.cols

    @cached_property
    def picks(self) -> np.ndarray:
        """Each real coordinate as a float of its block's matrix: float 2m is
        entry m's real part and float 2m + 1 its imaginary part, and each
        coordinate picks the one its side of the diagonal names."""
        first = np.repeat(self.offsets[:-1], np.diff(self.offsets))
        return 2 * (np.arange(self.offsets[-1]) - first) + self.lower

    def check(self, h: np.ndarray, ops: Sequence[np.ndarray], state: np.ndarray) -> None:
        """Raise ``SizeError``, naming the first that differs, unless H, each
        of ``ops`` and ``state`` are nonzero exactly where those the structure
        was read from are."""
        if len(ops) != len(self.patterns) - 1:
            raise SizeError(f"the block structure was read from {len(self.patterns) - 1} "
                            f"collapse operators, got {len(ops)}")
        named = ["Hamiltonian"] + [f"collapse operator {c}" for c in range(len(ops))]
        for what, m, pattern in zip(named, [h, *ops], self.patterns):
            if m.shape != (self.dim, self.dim) or not np.array_equal(
                    np.flatnonzero(m != 0), pattern):
                raise SizeError(f"{what} does not fit the block structure: it is not "
                                "nonzero where the one it was read from is")
        if not np.array_equal(_support(state), self.support):
            raise SizeError("the start state does not fit the block structure: its support "
                            "is not the one it was read from")


def block_structure(h, collapse: Sequence, state) -> BlockStructure:
    """The ``BlockStructure`` of H, the collapse operators and the start
    state, a vector ψ0 or a density matrix ρ0: the blocks of
    ``_block_labels``, and the block each channel maps each block into.

    It reads only where they are nonzero, so of their entries it checks
    nothing, and of their shapes that H and each L are d × d and the state
    d or d × d, else ``SizeError``.  It costs a fixpoint over the patterns;
    a caller whose models share their patterns reads it once and passes it
    on.  A channel maps a block into the block of the first row, in
    row-major order, of its entries in the block's columns, and a block it
    does not touch into itself.
    """
    mats, state = [np.asarray(m) for m in [h, *collapse]], np.asarray(state)
    d = mats[0].shape[0] if mats[0].ndim else 0
    for what, m in zip(["Hamiltonian"] + ["collapse operator"] * len(collapse), mats):
        if m.shape != (d, d):
            raise SizeError(f"{what} shape {m.shape} does not match dim {d}")
    if state.shape not in ((d,), (d, d)):
        raise SizeError(f"state shape {state.shape} does not match dim {d}")
    flat = [np.flatnonzero(m != 0) for m in mats]
    support = _support(state)
    patterns = [np.divmod(f, d) for f in flat]
    owner = np.unique(_block_labels(d, patterns[0], patterns[1:], support),
                      return_inverse=True)[1]
    members = tuple(np.flatnonzero(owner == b) for b in range(owner.max() + 1))
    targets = []
    for rows, cols in patterns[1:]:
        target = np.arange(len(members))
        touched, first = np.unique(owner[cols], return_index=True)
        target[touched] = owner[rows[first]]
        targets.append(tuple(target.tolist()))
    return BlockStructure(dim=d, patterns=tuple(flat), support=support, members=members,
                          targets=tuple(targets), start=int(owner[support[0]]),
                          offsets=np.cumsum([0] + [len(idx) ** 2 for idx in members]))


@dataclass(frozen=True)
class _Part:
    """One block of the partition: its states, generator and jump maps."""

    index: np.ndarray        # the block's basis states, ascending
    gen: np.ndarray          # no-jump generator -i(H - cI) - (1/2) Σ L†L on the block
    targets: tuple           # per channel: the block L maps this one into
    jumps: tuple             # per channel: L from this block into its target


def _parts(structure: BlockStructure, h: np.ndarray, ops: list, center: float) -> list:
    """Each block of ``structure`` with its generator and jump maps, sliced
    out of H and the collapse operators ``ops``."""
    members, parts = structure.members, []
    for b, idx in enumerate(members):
        gen = -1j * (h[np.ix_(idx, idx)] - center * np.eye(len(idx)))
        jumps = []
        for op, target in zip(ops, structure.targets):
            jump = op[np.ix_(members[target[b]], idx)]
            gen = gen - 0.5 * (jump.conj().T @ jump)
            jumps.append(np.ascontiguousarray(jump))
        parts.append(_Part(index=idx, gen=np.ascontiguousarray(gen),
                           targets=tuple(target[b] for target in structure.targets),
                           jumps=tuple(jumps)))
    return parts


@dataclass(frozen=True)
class _Block(_Part):
    r_stride: np.ndarray     # propagator over one sample interval
    r_pows: np.ndarray       # (p_max, k, k): dt-step propagator to powers 2^p
    absorbing: bool          # every L vanishes on the block: nothing leaves it


@dataclass(frozen=True)
class _Machinery:
    structure: BlockStructure
    blocks: tuple            # of _Block, ordered by their smallest state
    psi0: np.ndarray         # psi0 on the structure's start block
    grid: TimeGrid           # the strides and powers are built for its dt and n_fine
    names: tuple             # of the observables
    block_obs: list          # ``_block_observables`` of the blocks


def _square(m, d: int, what: str) -> np.ndarray:
    """``m`` as ``as_complex_matrix`` gives it, if it is ``d`` × ``d``; else a
    ``SizeError`` that names it as ``what``."""
    m = as_complex_matrix(m)
    if m.shape != (d, d):
        raise SizeError(f"{what} shape {m.shape} does not match dim {d}")
    return m


def _build_machinery(h: np.ndarray, collapse: Sequence[np.ndarray],
                     psi0: np.ndarray, grid: TimeGrid,
                     observables: Optional[Mapping[str, np.ndarray]] = None) -> _Machinery:
    h = require_hermitian(h)
    d = h.shape[0]
    ops = [_square(op, d, "collapse operator") for op in collapse]
    psi0 = _check_state(psi0, d)
    obs = {str(name): _square(op, d, f"observable {name!r}")
           for name, op in (observables or {}).items()}
    structure = block_structure(h, ops, psi0)
    parts = _parts(structure, h, ops, float(np.trace(h).real) / d)
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
        _check_step(r_pows[0], grid.dt)
        for p in range(1, n_pow):
            r_pows[p] = r_pows[p - 1] @ r_pows[p - 1]
        r_stride = r_pows[1] @ r_pows[0] if n_fine == 3 else reduce(np.matmul, r_pows[bits])
        blocks.append(_Block(index=part.index, gen=part.gen,
                             r_stride=np.ascontiguousarray(r_stride), r_pows=r_pows,
                             targets=part.targets, jumps=part.jumps,
                             absorbing=not any(jump.any() for jump in part.jumps)))
    return _Machinery(structure=structure, blocks=tuple(blocks),
                      psi0=np.ascontiguousarray(psi0[blocks[structure.start].index]),
                      grid=grid, names=tuple(obs), block_obs=_block_observables(blocks, obs))


def _check_step(step: np.ndarray, dt: float) -> None:
    """Raise ``IntegratorError`` naming ``dt`` unless the step R keeps every
    squared norm within 1 + ``_UNIT_NORM_ATOL``: ‖R‖₂² ≤ 1 + atol, tested as
    a Cholesky of (1 + atol)·I − R†R.  A step that overflowed is refused
    too, as the Cholesky need not flag a NaN.  ‖R‖₂ itself, an SVD, is taken
    only to word the error."""
    gap = (1.0 + _UNIT_NORM_ATOL) * np.eye(len(step)) - step.conj().T @ step
    if np.isfinite(gap).all():
        try:
            np.linalg.cholesky(gap)
            return
        except np.linalg.LinAlgError:
            pass
    norm2 = np.linalg.norm(step, 2) ** 2 if np.isfinite(step).all() else math.inf
    raise IntegratorError(f"a step can multiply the jump-free squared norm by {norm2:.3g}; "
                          f"dt = {dt} is too coarse for the spectrum of H")


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
    the 5×5 Gram matrix of the powers.  Returned as Python floats, highest
    degree first, the order ``_crossing_time`` takes.
    """
    v = np.array(powers)
    gram = (v.conj() @ v.T).real.ravel()
    return np.bincount(_GRAM_DEGREE, weights=gram * _GRAM_WEIGHT).tolist()[::-1]


def _crossing_time(coeffs: list, frac: float, r: float) -> float:
    """The time in [0, ``frac``] at which the degree-8 polynomial ``coeffs``
    (highest degree first) falls to ``r``, bisected to ``_BISECT_TOL``.

    Horner's rule is written out on Python floats.  It takes the steps
    ``acc * mid + c`` of a loop from ``acc = 0.0``, whose first step,
    ``0.0 * mid + c``, can differ from ``c`` only in the sign of a zero; no
    later step turns that into a nonzero value, and no comparison sees it.
    """
    c8, c7, c6, c5, c4, c3, c2, c1, c0 = coeffs
    lo, hi = 0.0, frac
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if ((((((((c8 * mid + c7) * mid + c6) * mid + c5) * mid + c4) * mid + c3) * mid
                + c2) * mid + c1) * mid + c0) > r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _jumps_in_step(mach: _Machinery, b: int, work: np.ndarray, r: float, t0: float,
                   dt: float, rng: np.random.Generator, jumps: list):
    """Apply every jump inside the elementary step that starts at ``t0``.

    The step is the degree-4 polynomial flow the fixed-step integrator
    applies.  Each threshold crossing is bisected on the flow's squared
    norm, a scalar polynomial of degree 8 in the time into the step, so the
    flow vector is formed only at the end of the step and at the jump.
    Returns the state at the end of the step, the pending threshold and the
    block the state then occupies.  No step here can raise the squared norm:
    ``_build_machinery`` refused a ``dt`` whose step would (``_check_step``).
    """
    t_in_step = 0.0
    while True:
        blk = mach.blocks[b]
        frac = dt - t_in_step
        powers = [work]
        for _ in range(4):
            powers.append(blk.gen @ powers[-1])
        end = _taylor_flow(powers, frac)
        if np.vdot(end, end).real > r:
            return end, r, b
        tau = _crossing_time(_flow_norm2_poly(powers), frac, r)
        # channel c with probability ||L_c phi||^2 / sum_k ||L_k phi||^2: the first
        # channel whose running sum exceeds the draw
        phi = _taylor_flow(powers, tau)
        jumped = [jump @ phi for jump in blk.jumps]
        norms = [np.vdot(v, v).real for v in jumped]
        acc = list(accumulate(norms))
        chan = min(bisect_right(acc, rng.random() * acc[-1]), len(acc) - 1)
        work = jumped[chan] * (1.0 / math.sqrt(norms[chan]))
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
    reached.  The jump-free norm never increases, and no step built for
    the blocks raises it (``_check_step``), so a power once passed over
    need not be tried again.  The single step after the descent crosses;
    its jumps are resolved inside it, and a new descent starts.  Returns
    the state at the end of the interval, the pending threshold and the
    block the state then occupies.
    """
    n_fine, dt = grid.n_fine, grid.dt
    r = float(r)
    done = 0
    while done < n_fine:
        if np.vdot(work, work).real < _NORM_UNDERFLOW:
            raise IntegratorError(
                "state norm fell below 1e-14 before the jump threshold was reached")
        r_pows = mach.blocks[b].r_pows
        for p in range((n_fine - done).bit_length() - 1, -1, -1):
            if done + (1 << p) <= n_fine:
                trial = r_pows[p] @ work
                if np.vdot(trial, trial).real > r:
                    work = trial
                    done += 1 << p
        if done < n_fine:
            work, r, b = _jumps_in_step(mach, b, work, r, t0 + done * dt, dt, rng, jumps)
            done += 1
    return work, r, b


def _row_norm2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex ``(m, k)`` array."""
    flat = rows.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


@dataclass(frozen=True)
class _Batch:
    """What ``_propagate`` returns for a batch of columns."""

    values: Optional[np.ndarray]     # (n_cols, n_observables, n_samples), reduced per sample
    rho_sum: Optional[np.ndarray]    # (n_samples, Σ_b k_b²): Σ over the rows of |ψ><ψ|
    states: Optional[np.ndarray]     # recorded batch of one: (n_samples, dim) normalized rows
    survival: Optional[np.ndarray]   # recorded batch of one: squared norms, rescaling included
    jumps: list                      # per column: [(time, channel), ...]
    absorbed: np.ndarray             # (n_cols,) first sample in an absorbing block, or n_samples


def _stride(mach: _Machinery, groups: dict, s: int, pending, rngs, jumps: list,
            absorbed: np.ndarray, idle: set) -> dict:
    """Advance every column one sample interval, into the sample ``s``.

    Each block's rows take one product with its stride propagator, except
    in the ``idle`` blocks, which nothing leaves and whose rows nothing
    reads.  The rows whose squared norm fell to their pending threshold redo
    the interval one at a time in ``_resolve_stride`` with their own
    Generator; a row that jumps into another block joins that block's rows,
    which stay ordered by column.  Returns the new groups.
    """
    grid = mach.grid
    out, arrivals = {}, {}
    for b, (cols, work, norm2) in groups.items():
        if b in idle:
            out[b] = (cols, work, norm2)
            continue
        blk = mach.blocks[b]
        cand = work @ blk.r_stride.T
        norm2 = _row_norm2(cand)
        crossed = () if rngs is None or blk.absorbing else np.flatnonzero(
            ~(norm2 > pending[cols]))
        if len(crossed):
            t0 = grid.t_start + (s - 1) * grid.spacing
            stay = np.ones(len(cols), dtype=bool)
            for i in crossed:
                j = cols[i]
                state, pending[j], dest = _resolve_stride(mach, b, work[i], pending[j], t0,
                                                          grid, rngs[j], jumps[j])
                if dest == b:
                    cand[i], norm2[i] = state, np.vdot(state, state).real
                else:
                    stay[i] = False
                    arrivals.setdefault(dest, []).append((j, state))
            cols, cand, norm2 = cols[stay], cand[stay], norm2[stay]
        if len(cols):
            out[b] = (cols, cand, norm2)
    for dest, moved in arrivals.items():
        cols = np.array([j for j, _ in moved])
        work = np.array([state for _, state in moved])
        if mach.blocks[dest].absorbing:
            absorbed[cols] = s
        if dest in out:
            old_cols, old_work, _ = out[dest]
            cols = np.concatenate([old_cols, cols])
            order = np.argsort(cols, kind="stable")
            cols, work = cols[order], np.concatenate([old_work, work])[order]
        out[dest] = (cols, work, _row_norm2(work))
    return out


def batch_bytes(n_cols: int, n_observables: int, n_samples: int, block_dims,
                record: bool = False) -> int:
    """Bytes of a batch of ``n_cols`` columns on blocks of ``block_dims``
    states: each column's live state and Python objects, with a jump record
    per block it can leave, and, recorded, the column's states and survival
    at every sample with the temporaries of the branch's reduction over them,
    else its observable rows.  Each loss lowers the
    excitation, so a column leaves a block at most once; channels that map
    a block into itself record jumps this does not count.

    The live state is ``dim`` amplitudes, and ``_stride`` holds at most four
    more copies of it, each counted on the largest block: a row's product
    sits beside it, and the rows that stay are copied out of the products;
    a row that jumps is held as its own state and stacked with its new
    block's other arrivals, and that block's rows are concatenated and then
    put in column order.  The branch's reduction (``_jump_free_branch``)
    holds, per sample, one observable's support columns, their product and
    their conjugate, each counted on the largest block, with its complex
    values, and every observable's values twice, before and after they are
    transposed."""
    dim = sum(block_dims)
    reduction = n_observables and 3 * max(block_dims) * 16 + 16 + 2 * n_observables * 8
    rows = (n_samples * (dim * 16 + 8 + reduction) if record
            else n_cols * n_observables * n_samples * 8)
    live = (dim + 4 * max(block_dims)) * 16
    return rows + n_cols * (live + _COLUMN_BYTES + _JUMP_BYTES * (len(block_dims) - 1))


def rho_bytes(n_samples: int, block_dims) -> int:
    """Bytes of ρ̄'s entries on blocks of ``block_dims`` states at every
    sample, with the row and column of each entry."""
    return (n_samples + 1) * sum(k * k for k in block_dims) * 16


def _propagate(mach: _Machinery, n_cols: int = 1, seed_of=None, record: bool = False,
               keep_rho: bool = False, what: str = "the batch") -> _Batch:
    """Advance a batch of ``n_cols`` columns through the sample grid together,
    time-major.

    Column j is one pure-state evolution from ψ0.  With ``seed_of`` and a
    collapse channel, column j is the trajectory of ``seed_of(j)``: uniforms
    are drawn one at a time from its own stream (the threshold, then per
    jump the channel and the next threshold), and the decaying norm carries
    the waiting time.  Otherwise nothing jumps and every column would be the
    same run, so the batch is one column; its state is rescaled below
    ``_RESCALE_FLOOR`` with the factor carried in the survival, so rows stay
    finite.

    The columns are grouped by the block each occupies, and every stride
    advances a whole group with one matrix product (``_stride``).  With
    ``record`` the batch is one column whose rows and survival are kept;
    otherwise each group's rows are reduced at once at each sample: the
    observables on their supports and, with ``keep_rho``, the block's sum
    of |ψ><ψ|, written into that block's slice of the ``BlockStructure``'s
    array.  A block where every support is empty is not reduced, and its
    values stay 0.0; unless ρ̄ is kept it costs no per-sample work, and if
    no channel acts on it either, its rows are not stepped at all.  No
    squared norm can rise, as every block's step was checked when the
    blocks were built (``_check_step``); a block no channel acts on should
    keep the norm, so one whose stepped rows fall below ``_RESCALE_FLOOR``
    raises.

    Before any of them, or any column's seed or Generator, exists, the
    batch's arrays (``batch_bytes`` and, with ``keep_rho``, ``rho_bytes``)
    count against ``linalg.MEMORY_CAP``, in a message that begins with
    ``what``, the caller's name for the batch.
    """
    grid = mach.grid
    n = grid.n_samples
    dims = [len(blk.index) for blk in mach.blocks]
    n_bytes = batch_bytes(n_cols, len(mach.names), n, dims, record)
    parts = ["recorded states and norms" if record else "observable rows", "live states"]
    if keep_rho:
        n_bytes += rho_bytes(n, dims)
        parts.append(f"ρ̄'s block entries over {n} samples")
    check_budget(n_bytes, f"{what}: {', '.join(parts)}")
    jumping = seed_of is not None and len(mach.structure.targets) > 0
    rngs = pending = None
    if jumping:
        rngs = [np.random.default_rng(np.random.SeedSequence(seed_of(j))) for j in range(n_cols)]
        pending = np.array([_threshold(rng) for rng in rngs])
    jumps: list = [[] for _ in range(n_cols)]
    absorbed = np.full(n_cols, 0 if mach.blocks[mach.structure.start].absorbing else n,
                       dtype=np.int64)
    carried = 1.0
    states = survival = values = None
    if record:
        states = np.zeros((n, mach.structure.dim), dtype=np.complex128)
        survival = np.empty(n)
    else:
        values = np.zeros((n_cols, len(mach.names), n))
    offsets = mach.structure.offsets
    rho_sum = np.zeros((n, offsets[-1]), dtype=np.complex128) if keep_rho else None
    reduced = [any(len(sup) for sup, _ in entries) for entries in mach.block_obs]
    idle = set() if record else {b for b, blk in enumerate(mach.blocks)
                                 if blk.absorbing and not (keep_rho or reduced[b])}
    work = np.repeat(mach.psi0[None, :], n_cols, axis=0)
    # block -> (its columns, ascending; their states; their squared norms)
    groups = {mach.structure.start: (np.arange(n_cols), work, _row_norm2(work))}
    for s in range(n):
        if s:
            groups = _stride(mach, groups, s, pending, rngs, jumps, absorbed, idle)
        for b, (cols, work, norm2) in groups.items():
            if b in idle:
                continue
            blk = mach.blocks[b]
            if blk.absorbing:
                if not norm2.min() > _RESCALE_FLOOR:
                    raise IntegratorError(
                        f"the norm of a state no channel acts on fell below {_RESCALE_FLOOR}; "
                        f"dt = {grid.dt} is too coarse for the spectrum of H")
            elif not jumping and not norm2[0] > 0.0:
                raise IntegratorError("the state's norm underflowed to 0 within one "
                                      "sample interval; use a smaller sample spacing")
            if record:
                states[s, blk.index] = work[0] * (1.0 / math.sqrt(norm2[0]))
                survival[s] = carried * norm2[0]
            elif keep_rho or reduced[b]:
                rows = work * (1.0 / np.sqrt(norm2))[:, None]
                if reduced[b]:
                    values[cols, :, s] = _reduce(mach.block_obs[b], rows)
                if keep_rho:
                    np.matmul(rows.T, rows.conj(), out=rho_sum[s, offsets[b]:offsets[b + 1]]
                              .reshape(len(blk.index), -1))
            if not jumping and not blk.absorbing and norm2[0] < _RESCALE_FLOOR:
                carried *= norm2[0]
                work[0] = work[0] * (1.0 / math.sqrt(norm2[0]))
    return _Batch(values=values, rho_sum=rho_sum, states=states, survival=survival,
                  jumps=jumps, absorbed=absorbed)


def mcwf_trajectory(h: np.ndarray, collapse: Sequence[np.ndarray],
                    psi0: np.ndarray, grid: TimeGrid, seed) -> TrajectoryResult:
    """One Monte-Carlo wave-function trajectory (waiting-time unraveling).

    Between jumps the state evolves under H − (i/2)ΣL†L with decaying
    norm; when the squared norm crosses a uniform threshold the jump time
    is bisected to 1e-10 on the step's norm polynomial (the squared norm
    of the degree-4 flow, of degree 8 in time), a channel j is selected
    with probability ‖L_jψ‖²/Σ_k‖L_kψ‖², and the state is projected and
    renormalized.  It is a batch of one column in ``_propagate``'s loop,
    with its rows recorded.
    Deterministic given (seed, grid, inputs).  The seed is an int >= 0 or
    a tuple of them, as ``SeedSequence`` takes it; anything else is refused
    before the blocks are built.
    """
    problems = []
    parts = [collect(problems, whole, part, 0, "seed")
             for part in (seed if isinstance(seed, tuple) else (seed,))]
    if problems:
        raise ConfigError([f"seed: need an integer >= 0 or a tuple of them, got {seed!r}"])
    seed = tuple(parts) if isinstance(seed, tuple) else parts[0]
    mach = _build_machinery(h, collapse, psi0, grid)
    batch = _propagate(mach, 1, lambda j: seed, record=True, what="the trajectory")
    return TrajectoryResult(states=batch.states, jumps=tuple(batch.jumps[0]))


def _batched_expectation(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    """<psi|P|psi> for each row of ``states``."""
    return np.einsum("ni,ni->n", states.conj(), states @ op.T).real


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


def _reduce(entries: list, rows: np.ndarray) -> np.ndarray:
    """``out[i, o]`` = <ψ_i|P_o|ψ_i> for the rows ψ_i of one block, each
    observable reduced on its support there (0.0 where that is empty)."""
    out = np.zeros((len(rows), len(entries)))
    for o, (support, op) in enumerate(entries):
        if len(support):
            out[:, o] = _batched_expectation(rows[:, support], op)
    return out


def _jump_free_branch(mach: _Machinery) -> ConditionalBranch:
    """The seedless batch of one on built blocks, reduced on the block it
    never leaves."""
    batch = _propagate(mach, record=True, what="the jump-free branch")
    start = mach.structure.start
    index = mach.blocks[start].index
    # each support as basis columns of the recorded states: the block is not copied out
    values = _reduce([(index[support], op) for support, op in mach.block_obs[start]],
                     batch.states)
    return ConditionalBranch(states=batch.states, survival=batch.survival,
                             observables=dict(zip(mach.names, np.ascontiguousarray(values.T))))


def no_jump_branch(h: np.ndarray, collapse: Sequence[np.ndarray], psi0: np.ndarray,
                   grid: TimeGrid,
                   observables: Optional[Mapping[str, np.ndarray]] = None,
                   ) -> ConditionalBranch:
    """Evolve the jump-free branch: decaying norm plus renormalized states.

    It is the seedless batch of one in ``_propagate``'s loop, rescaled
    whenever its squared norm falls below ``_RESCALE_FLOOR``.  With
    ``collapse = ()`` this is the closed-system evolution.  A caller
    that has run ``mcwf_ensemble`` on the same inputs gets the same branch,
    without building the blocks again, from ``EnsembleResult.jump_free_branch``.
    """
    return _jump_free_branch(_build_machinery(h, collapse, psi0, grid, observables))


def ensemble_problems(n_traj, master_seed) -> list:
    """A problem for an ``n_traj`` or a ``master_seed`` that is not a whole
    number, at least 1 and 0 respectively."""
    problems = []
    collect(problems, whole, n_traj, 1, "n_traj")
    collect(problems, whole, master_seed, 0, "master_seed")
    return problems


def mcwf_ensemble(h: np.ndarray, collapse: Sequence[np.ndarray], psi0: np.ndarray,
                  grid: TimeGrid, n_traj: int, master_seed: int,
                  observables=None, keep_rho: bool = False) -> EnsembleResult:
    """Average ``n_traj`` trajectories with per-index RNG streams.

    The trajectories are one batch of ``n_traj`` columns in ``_propagate``'s
    time-major loop.  Trajectory j draws from SeedSequence((master_seed, j))
    in its own order, so it is the trajectory ``mcwf_trajectory`` gives for
    seed (master_seed, j), whatever else runs in the batch; reduction runs
    in index order, so repeated runs are byte-identical.  ``_propagate``
    counts the batch's arrays against ``linalg.MEMORY_CAP`` before any of
    them exists.  ρ̄ is returned on its blocks, as
    ``EnsembleResult.rho_blocks``; no dense stack is formed.
    ``n_traj`` and ``master_seed`` must be whole numbers, at least 1 and 0.
    """
    problems = ensemble_problems(n_traj, master_seed)
    if problems:
        raise ConfigError(problems)
    n_traj, master_seed = int(n_traj), int(master_seed)
    n = grid.n_samples
    mach = _build_machinery(h, collapse, psi0, grid, observables)
    # without a collapse channel every trajectory is the same jump-free run
    n_chan = len(mach.structure.targets)
    n_runs = n_traj if n_chan else 1
    batch = _propagate(mach, n_runs, lambda j: (master_seed, j), keep_rho=keep_rho,
                       what=f"the ensemble of {n_runs} trajectories")
    rows = batch.values
    counts = np.zeros((n_runs, n_chan), dtype=np.int64)
    for j, record in enumerate(batch.jumps):
        for _, chan in record:
            counts[j, chan] += 1

    means = {name: rows[:, o].mean(axis=0) for o, name in enumerate(mach.names)}
    stderr = {name: (rows[:, o].std(axis=0, ddof=1) / math.sqrt(n_traj) if n_runs > 1
                     else np.zeros(n)) for o, name in enumerate(mach.names)}
    rho_blocks = (BlockDensity(np.divide(batch.rho_sum, n_runs, out=batch.rho_sum),
                               mach.structure.rows, mach.structure.cols) if keep_rho else None)
    copies = n_traj // n_runs
    return EnsembleResult(mean_observables=means, stderr=stderr, rho_blocks=rho_blocks,
                          jumps_per_channel=np.repeat(counts, copies, axis=0),
                          absorbing_entry=np.repeat(batch.absorbed, copies),
                          _machinery=mach)


# ---------------------------------------------------------------------------
# density-matrix oracle
# ---------------------------------------------------------------------------

def _hermitian_basis(k: int, first: int, end: int) -> np.ndarray:
    """The Hermitian k×k matrices of the coordinates ``first:end``, row-major.

    Coordinate (i, j) is Re X_ij on and above the diagonal and Im X_ij below
    it; its basis matrix is the Hermitian X whose coordinates are 0 but for
    that one, which is 1.
    """
    i, j = np.divmod(np.arange(first, end), k)
    value = np.where(i > j, 1j, 1.0)
    basis = np.zeros((end - first, k, k), dtype=np.complex128)
    basis[np.arange(end - first), i, j] = value
    basis[np.arange(end - first), j, i] = value.conj()
    return basis


def _real_generator(structure: BlockStructure, parts: list, spare: int) -> np.ndarray:
    """Generator of the master equation on the real coordinates of ρ's diagonal blocks.

    Block b holds k_b² coordinates at its slice of the ``structure``'s
    layout, those of ``_hermitian_basis``.  Column m is the derivative of
    basis matrix m: G_b X + X G_b† in block b, and L X L† in the block each
    channel maps b into.  The basis is applied in column chunks whose
    temporaries take at most about ``spare`` bytes.
    """
    offsets, picks = structure.offsets, structure.picks
    block = [slice(first, end) for first, end in zip(offsets, offsets[1:])]

    def coordinates(t, stack):
        """The coordinates of each matrix in a stack on block t, one row each."""
        return stack.reshape(len(stack), -1).view(np.float64)[:, picks[block[t]]]

    sup = np.zeros((offsets[-1], offsets[-1]))
    for b, part in enumerate(parts):
        k = len(part.index)
        # complex entries per column at most: the basis matrix, G X, X G† and
        # their coordinates, then one channel's L X, L X L† and its coordinates
        width = 4 * k * k + max((len(parts[t].index) * (k + 2 * len(parts[t].index))
                                 for t in part.targets), default=0)
        chunk = max(1, spare // (16 * width))
        for first in range(0, k * k, chunk):
            end = min(first + chunk, k * k)
            basis = _hermitian_basis(k, first, end)
            col = slice(offsets[b] + first, offsets[b] + end)
            deriv = part.gen @ basis
            deriv += basis @ part.gen.conj().T
            sup[block[b], col] += coordinates(b, deriv).T
            for t, jump in zip(part.targets, part.jumps):
                sup[block[t], col] += coordinates(t, jump @ basis @ jump.conj().T).T
    return sup


def lindblad_bytes(n_samples: int, dim: int, block_dims) -> int:
    """Peak bytes of ``lindblad_evolve`` on blocks of ``block_dims`` states of
    a ``dim``-state model: four real generators on the Σ_b k_b² coordinates
    of ρ (``_taylor4`` and ``matrix_power`` each hold four at their peaks),
    the sampled coordinates and the returned ``(n_samples, dim, dim)`` stack."""
    n_kept = sum(k * k for k in block_dims)
    return 4 * n_kept ** 2 * 8 + n_samples * (n_kept * 8 + dim * dim * 16)


def lindblad_evolve(h: np.ndarray, collapse: Sequence[np.ndarray],
                    rho0: np.ndarray, grid: TimeGrid, *,
                    structure: Optional[BlockStructure] = None) -> np.ndarray:
    """Propagate the density matrix; returns (n_samples, d, d).

    The validation oracle, with the same fixed-step degree-4 scheme as the
    trajectory integrator.  ρ0's support lies in one block of the trajectory
    partition; H and every L†L act inside a block and each L maps a block
    into one block, so ρ stays block-diagonal.  Each diagonal block of k_b
    states is Hermitian, so it is held as k_b² real coordinates in the
    ``BlockStructure``'s layout: Re ρ_ij on and above the diagonal, Im ρ_ij
    below it.  The master equation is real-linear on them, so its generator
    (``_real_generator``), the Taylor step, the stride power and every
    sample's product are real, on (Σ_b k_b²)² entries.  The samples are
    scattered into the returned stack, which is exactly Hermitian and whose
    entries off the blocks are exact zeros.  A model without structure is
    one block.  Its peak (``lindblad_bytes``) is checked against
    ``linalg.MEMORY_CAP`` before any of its arrays is built.

    The structure is ``block_structure(h, collapse, rho0)``.  A caller that
    runs many models with the same patterns, as the γ_c sweep does, reads it
    once and passes it as ``structure``: it must fit H, the collapse
    operators and ρ0 (``BlockStructure.check``), else ``SizeError``, and
    then gives the same bits as a structure read afresh.
    """
    rho0 = require_hermitian(rho0, atol=1e-8)
    d = rho0.shape[0]
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise ConfigError([f"rho0: trace must be 1, got {np.trace(rho0)!r}"])
    if np.linalg.eigvalsh(rho0).min() < -1e-8:
        raise ConfigError(["rho0: must be positive semidefinite"])
    h = require_hermitian(_square(h, d, "Hamiltonian"))
    ops = [_square(op, d, "collapse operator") for op in collapse]
    if structure is None:
        structure = block_structure(h, ops, rho0)
    else:
        structure.check(h, ops, rho0)

    n_kept = int(structure.offsets[-1])
    n = grid.n_samples
    n_bytes = lindblad_bytes(n, d, [len(idx) for idx in structure.members])
    check_budget(n_bytes, f"four real generators on {n_kept} coordinates of ρ and {n} samples")
    rows, cols, lower = structure.rows, structure.cols, structure.lower
    parts = _parts(structure, h, ops, 0.0)
    r_step = _real_generator(structure, parts, n_bytes - n_kept ** 2 * 8)   # chunks in the rest
    r_step *= grid.dt
    r_step = _taylor4(r_step)             # the rebinding frees dt·A before the powers
    coords = np.empty((n, n_kept))
    coords[0] = rho0.view(np.float64)[rows, 2 * cols + lower]
    with np.errstate(over="ignore", invalid="ignore"):      # their finiteness is checked next
        r_stride = np.linalg.matrix_power(r_step, grid.n_fine)
        for s in range(1, n):
            np.matmul(r_stride, coords[s - 1], out=coords[s])
    if not (np.isfinite(r_stride).all() and np.isfinite(coords).all()):
        raise IntegratorError("the master equation's stride or samples are not finite; "
                              f"dt = {grid.dt} is too coarse for the spectrum of H")
    out = np.zeros((n, d, d), dtype=np.complex128)
    re_im = out.view(np.float64)          # Re ρ_rc at [r, 2c], Im ρ_rc at [r, 2c + 1]
    re_im[:, rows, 2 * cols + lower] = coords
    np.negative(coords, out=coords, where=lower)
    re_im[:, cols, 2 * rows + lower] = coords      # ρ_cr = conj(ρ_rc)
    return out
