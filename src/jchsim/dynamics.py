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
absorbing: nothing leaves it, so a state in one takes no jump test.  A
block whose generator vanishes as well, as the vacuum's does in the
cavity's rotating frame, is still: its step is exactly I, so its rows
never change.

The loop is block-major: it finishes one block over the whole grid
before it starts the next.  Until its first jump every column of a batch
is the jump-free branch ψ̃(t), so the batch runs that state once
(``_FreeRun``), and a column that has not jumped reads it.  Each later
block is swept over the grid with the columns that land in it, one
product a sample for all of its rows, reduced at once.  A still block is
visited only at the samples where rows arrive, and each visit's reduction
stands for every sample up to the next.  A block is swept
after every other block that maps into it (``_sweep_order``), and again
while columns re-enter it.  ``mcwf_ensemble`` is a batch of ``n_traj``
trajectories and ``mcwf_trajectory`` a batch of one; an ensemble's branch
is its trajectories' run, written on to the end of the grid.  Every
trajectory keeps its own random stream and draw order, so it is the same
whatever else runs in its batch.

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
norm stays above the waiting-time threshold, a uniform draw floored at
``_THRESHOLD_FLOOR`` = 2⁻⁵³, the least positive value ``Generator.random()``
returns.  Every squared norm the loop tests lies above its row's threshold,
so none of them can reach zero before the jump.  An interval that crosses it
is redone in one dyadic descent over the powers 2^p of the dt step, which
finds the last step still above the threshold.  The crossing inside the
next step is bisected on that step's squared norm, a real polynomial of
degree 8 in the time into the step whose coefficients come from the Gram
matrix of ψ, Gψ, …, G⁴ψ; no state vector is formed while bisecting.  Only
the bisection's Horner steps run a row at a time, on Python floats: on the
two-site blocks of 4 and 8 states a NumPy call costs more than the
arithmetic it would do.  A round's channel draws are one ``cumsum``.

The first jumps are read off the shared run (Dalibard, Castin & Mølmer,
PRL 68, 580 (1992)): each column's crossing interval is one comparison
with the survival.  In a later block, a row whose squared norm falls to
its threshold leaves the sweep with its state at the start of that
interval.  Each block's crossings are resolved in one pass
(``_jump_pass``; Radaelli, Landi & Binder, arXiv:2303.15405), which
carries every row to the end of its interval in rounds: in each, a block
at a time, one descent for the rows at a step boundary and one step for
the others, each row's bisection as above; a row that jumps into a still
block ends its interval there as it is.  A second jump in the
same interval is one more round, and so is a step that by roundoff does
not cross where the descent stopped.  A column sits in one block at a
time, so its jumps come in time order.

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

Every propagator is built from H itself, so the pure-state integrators
return the states of the frame H is written in.  The exact jump-free flow
never raises the squared norm, and the pure-state scheme has one step rule:
when the blocks are built, each block's step R must satisfy
‖R‖₂² ≤ 1 + ``_UNIT_NORM_ATOL``, else ``IntegratorError`` names ``dt``
before anything propagates (``_check_step``).  Then no state's norm can
grow, in a stride, a descent, a step with jumps or the jump-free run, and
none is checked there.  The oracle's generator sees differences of
eigenvalues, and its step's coordinate norm bounds no contraction, so it
keeps its own check: a stride or samples that are not finite raise the
same error.

Every matrix a caller passes, H, a collapse operator or an observable, is
read by one rule (``_square``): a square complex matrix of the model's
dimension, else a ``SizeError`` that names it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import ClassVar, Mapping, Optional, Sequence

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
_RESCALE_FLOOR = 1e-150        # jump-free squared norm below which the state is rescaled
# the least waiting-time threshold: Generator.random() returns k·2⁻⁵³, so this
# raises only a draw of 0.0, and every row's squared norm stays above it
_THRESHOLD_FLOOR = 2.0 ** -53
# a column's Python objects (``batch_bytes``): its Generator, SeedSequence and
# seed tuple, 0.91 KB by tracemalloc, and 0.19 KB for a crossing row's draw;
# and each jump's column, time and channel in its round's record
_COLUMN_BYTES = 1280
_JUMP_BYTES = 24


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def _bound_problems(t_end, dt) -> tuple:
    """The grid's end and step as ``linalg.real`` takes them, each above 0,
    None where it refuses one, and a problem for each refused one."""
    problems = []
    return (collect(problems, real, t_end, "t_end", above=0.0),
            collect(problems, real, dt, "dt", above=0.0)), problems


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid with an integrator substep.

    ``n_samples`` points span [0, t_end] inclusive: every run starts at
    t = 0.  A whole number given as a float is stored as an int, and the
    end and step as floats (``linalg.whole`` and ``linalg.real``); the
    sample spacing must be an integer multiple of the integrator step
    ``dt``.
    """

    t_end: float
    n_samples: int
    dt: float = DEFAULT_DT
    t_start: ClassVar[float] = 0.0     # not a field: only perfbench reads it

    def __post_init__(self):
        (t_end, dt), problems = _bound_problems(self.t_end, self.dt)
        n_samples = collect(problems, whole, self.n_samples, 2, "n_samples")
        spacing = None if problems else t_end / (n_samples - 1)
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
        for name, value in (("t_end", t_end), ("n_samples", n_samples), ("dt", dt)):
            object.__setattr__(self, name, value)

    @classmethod
    def with_spacing(cls, t_end: float, spacing: float, dt: float = DEFAULT_DT) -> "TimeGrid":
        """Grid from 0 with the requested sample spacing snapped to the dt
        lattice.

        ``t_end`` is trimmed down to the last full sample interval.
        """
        (t_end, dt), problems = _bound_problems(t_end, dt)
        collect(problems, real, spacing, "spacing", above=0.0)
        if problems:
            raise ConfigError(problems)
        n_fine = max(1, round(real(spacing / dt, "spacing/dt")))
        snapped = n_fine * dt
        n_samples = int(math.floor(real(t_end / snapped, "t_end/spacing") + 1e-9)) + 1
        if n_samples < 2:
            raise ConfigError([f"spacing: {spacing} does not fit inside (0.0, {t_end})"])
        return cls(t_end=(n_samples - 1) * snapped, n_samples=n_samples, dt=dt)

    @property
    def spacing(self) -> float:
        return self.t_end / (self.n_samples - 1)

    @property
    def n_fine(self) -> int:
        """Integrator steps per sample interval."""
        return round(self.spacing / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.spacing * np.arange(self.n_samples)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryResult:
    """One realization: unit-norm sampled states (lossless too) plus the jump record.

    Row s of ``states`` is the sample at ``grid.times[s]`` of the grid it ran
    on, in the frame H is written in, phase included.
    """

    states: np.ndarray                    # (n_samples, dim), unit norm rows
    jumps: tuple                          # ((time, channel), ...) strictly increasing


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-averaged observables with standard errors.

    The samples are those of the grid the ensemble ran on, and there is one
    row of ``jumps_per_channel`` and ``absorbing_entry`` per trajectory.  It
    keeps the block propagators and observables the trajectories ran on,
    and their jump-free run, so that ``jump_free_branch`` gives the same
    model's conditional branch without building them again or writing a
    sample of the run twice.
    """

    mean_observables: dict                # name -> (n_samples,) float array
    stderr: dict                          # same keys/shapes, >= 0
    rho_blocks: Optional[BlockDensity]    # ρ̄ on its blocks, or None
    jumps_per_channel: np.ndarray         # (n_traj, n_channels) int: jumps of each trajectory
    absorbing_entry: np.ndarray           # (n_traj,) int: first sample in an absorbing block,
                                          # n_samples if never
    _machinery: _Machinery = field(repr=False, compare=False)
    _run: _FreeRun = field(repr=False, compare=False)

    def jump_free_branch(self) -> ConditionalBranch:
        """``no_jump_branch`` of the ensemble's inputs and observables, on its
        blocks: the trajectories' own jump-free run, written on from the
        sample where they no longer needed it.  A second call returns the
        same arrays."""
        return _jump_free_branch(self._machinery, self._run)


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
    gen: np.ndarray          # no-jump generator -iH - (1/2) Σ L†L on the block
    targets: tuple           # per channel: the block L maps this one into
    jumps: tuple             # per channel: L from this block into its target


def _parts(structure: BlockStructure, h: np.ndarray, ops: list) -> list:
    """Each block of ``structure`` with its generator and jump maps, sliced
    out of H and the collapse operators ``ops``."""
    members, parts = structure.members, []
    for b, idx in enumerate(members):
        gen = -1j * h[np.ix_(idx, idx)]
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
    still: bool              # the generator vanishes: absorbing, and its step is exactly I


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
    parts = _parts(structure, h, ops)
    n_fine = grid.n_fine
    n_pow = n_fine.bit_length()
    # r_dt ** n_fine from the squarings, in matrix_power's order: the set bits of
    # n_fine, least significant first, except (r @ r) @ r for n_fine = 3
    bits = [p for p in range(n_pow) if n_fine >> p & 1]
    blocks = []
    for part in parts:
        k = len(part.index)
        r_pows = np.empty((n_pow, k, k), dtype=np.complex128)
        # a step that overflows is refused by its check, without a warning first
        with np.errstate(over="ignore", invalid="ignore"):
            r_pows[0] = _taylor4(grid.dt * part.gen)
            _check_step(r_pows[0], grid.dt)
        for p in range(1, n_pow):
            r_pows[p] = r_pows[p - 1] @ r_pows[p - 1]
        r_stride = r_pows[1] @ r_pows[0] if n_fine == 3 else reduce(np.matmul, r_pows[bits])
        blocks.append(_Block(index=part.index, gen=part.gen,
                             r_stride=np.ascontiguousarray(r_stride), r_pows=r_pows,
                             targets=part.targets, jumps=part.jumps,
                             absorbing=not any(jump.any() for jump in part.jumps),
                             still=not part.gen.any()))
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
    norm2 = float(np.vdot(psi0, psi0).real)
    if abs(norm2 - 1.0) > _UNIT_NORM_ATOL:
        raise ConfigError([f"psi0: must have unit norm, got ||psi0||^2 = {norm2!r}"])
    return psi0


# ---------------------------------------------------------------------------
# pure-state evolutions: jump-free branches and quantum trajectories
# ---------------------------------------------------------------------------

def _powers(gen: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """[ψ, Gψ, G²ψ, G³ψ, G⁴ψ] as one ``(5, ...)`` array, for a state ψ or for
    each row of a stack of them."""
    powers = np.empty((5,) + psi.shape, dtype=np.complex128)
    powers[0] = psi
    for i in range(1, 5):
        np.matmul(powers[i - 1], gen.T, out=powers[i])
    return powers


def _taylor_flow(powers, tau):
    """Degree-4 Taylor flow over ``tau`` from powers = [ψ, Gψ, G²ψ, G³ψ, G⁴ψ].

    Elementwise: the powers may be those of a stack of rows, as ``_powers``
    gives them, with ``tau`` one time or a column of one time per row."""
    psi, v1, v2, v3, v4 = powers
    return psi + tau * (v1 + (tau / 2.0) * (v2 + (tau / 3.0) * (v3 + (tau / 4.0) * v4)))


# the Gram entry <G^i ψ, G^j ψ> enters the coefficient of τ^(i+j) with weight 1/(i! j!);
# row 5i + j of _GRAM_TO_POLY holds it in the column of τ^(i+j), highest degree first
_GRAM_DEGREE = np.add.outer(np.arange(5), np.arange(5)).ravel()
_INV_FACTORIAL = 1.0 / np.array([math.factorial(k) for k in range(5)])
_GRAM_TO_POLY = np.zeros((25, 9))
_GRAM_TO_POLY[np.arange(25), 8 - _GRAM_DEGREE] = np.outer(_INV_FACTORIAL, _INV_FACTORIAL).ravel()


def _flow_norm2_poly(powers) -> np.ndarray:
    """‖_taylor_flow(powers, τ)‖² as a real polynomial of degree 8 in τ, one
    per state.

    The coefficient of τ^n is Σ_{i+j=n} Re<G^iψ, G^jψ>/(i! j!), read off
    the 5×5 Gram matrix of the powers, whose real part is the Gram matrix
    of their float views.  Returned highest degree first, the order
    ``_crossing_time`` takes: 9 coefficients for ``_powers`` of one state,
    ``(m, 9)`` for those of a stack of ``m`` rows.
    """
    v = np.asarray(powers).view(np.float64)
    gram = np.einsum("i...k,j...k->...ij", v, v)
    return gram.reshape(gram.shape[:-2] + (25,)) @ _GRAM_TO_POLY


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


def _channels(norms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row's channel c, drawn with probability ``norms[:, c]`` / Σ
    ``norms`` (‖L_cφ‖²) by its uniform ``u``: the first whose running sum
    exceeds ``u`` · Σ, else the last."""
    acc = np.cumsum(norms, axis=1)
    return np.minimum((acc <= (u * acc[:, -1])[:, None]).sum(axis=1), norms.shape[1] - 1)


def _descend(r_pows: np.ndarray, rows: np.ndarray, r: np.ndarray, done: np.ndarray,
             n_fine: int) -> None:
    """One dyadic descent for a stack of rows at once, in place: each row,
    ``done`` steps into its interval, takes each power 2^p of the dt step
    that fits its remainder, from the largest down, while its squared norm
    stays above its own threshold ``r``.  That finds the last step whose end
    stays above it: the jump-free norm never increases, and no step built
    for the blocks raises it (``_check_step``), so a power once passed over
    need not be tried again."""
    for p in range(len(r_pows) - 1, -1, -1):
        sel = np.flatnonzero(done + (1 << p) <= n_fine)
        if len(sel):
            trial = rows[sel] @ r_pows[p].T
            ok = _row_norm2(trial) > r[sel]
            rows[sel[ok]] = trial[ok]
            done[sel[ok]] += 1 << p


def _row_norm2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex ``(m, k)`` array."""
    flat = rows.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


class _FreeRun:
    """The jump-free branch on the start block, written a sample at a time
    on demand.

    Each sample takes one product with the block's stride propagator, and
    the state is rescaled below ``_RESCALE_FLOOR`` with the factor carried
    in the survival, so rows stay finite.  ``states`` (normalized, zero off
    the block) and ``survival`` hold the first ``done`` samples.  A block no
    channel acts on should keep the norm: each ``advance`` checks it once
    (``_check_floor``).
    """

    def __init__(self, mach: _Machinery):
        n = mach.grid.n_samples
        self.blk = mach.blocks[mach.structure.start]
        self.dt = mach.grid.dt
        self.states = np.zeros((n, mach.structure.dim), dtype=np.complex128)
        self.survival = np.empty(n)
        self.work = mach.psi0[None, :].copy()
        self.carried = 1.0
        self.done = 0
        self.lost = False        # the squared norm underflowed to 0: the run ends there

    def advance(self, level: float = -math.inf) -> None:
        """Write samples until one's survival is at or below ``level``, or the
        grid ends.  A state that underflows to 0 within one interval ends the
        run, with survival 0.0 at that sample and no state; that is an error
        unless ``level`` is at least 0.0, as every first threshold is, so
        that no caller reads the run past it."""
        blk, n = self.blk, len(self.survival)
        # no crossing is tested at sample 0, so the run never stops there
        while (self.done < n and not self.lost
               and not (self.done > 1 and self.survival[self.done - 1] <= level)):
            s = self.done
            if s:
                self.work = self.work @ blk.r_stride.T
            norm2 = _row_norm2(self.work)[0]
            self.survival[s] = self.carried * norm2
            self.done = s + 1
            if not norm2 > 0.0:
                self.lost = True
                break
            self.states[s, blk.index] = self.work[0] * (1.0 / math.sqrt(norm2))
            if not blk.absorbing and norm2 < _RESCALE_FLOOR:
                self.carried *= norm2
                self.work[0] = self.work[0] * (1.0 / math.sqrt(norm2))
        # a block no channel acts on is never rescaled: its survival is its squared norm
        _check_floor(blk, self.survival[:self.done], self.dt)
        if self.lost and not level >= 0.0:
            raise IntegratorError("the state's norm underflowed to 0 within one "
                                  "sample interval; use a smaller sample spacing")


def _check_floor(blk: _Block, norm2, dt: float) -> None:
    """Raise ``IntegratorError`` if any of ``norm2`` fell below ``_RESCALE_FLOOR``
    in a block no channel acts on."""
    if blk.absorbing and not norm2.min() > _RESCALE_FLOOR:
        raise IntegratorError(f"the norm of a state no channel acts on fell below "
                              f"{_RESCALE_FLOOR}; dt = {dt} is too coarse for the spectrum of H")


def _jump_pass(mach: _Machinery, b: int, cols: np.ndarray, s0: np.ndarray, rows: np.ndarray,
               r: np.ndarray, pending: np.ndarray, rngs, jumps: list, arrivals: dict) -> None:
    """Resolve in one pass every crossing of the columns ``cols`` in the
    interval where each leaves block ``b``: row i of ``rows`` is column
    ``cols[i]``'s state at sample ``s0[i]``, which starts the interval where
    its squared norm falls to ``r[i]``.

    The rows go on in rounds until each ends its interval.  A row carries
    its block, the whole dt steps ``done`` it has taken in the interval and
    the time ``into`` it has run into the next, and each round takes the
    live rows one block at a time.  The rows at a step boundary take one
    dyadic descent (``_descend``), each against its own threshold, none in
    a block no channel acts on; a row that ends its interval there joins its
    block's ``arrivals``.  Every
    other row takes one batched step to the end of its step: the Taylor
    powers and the flow.  A row still above its threshold there goes on
    from the step's end.  The crossing of each other row is bisected on its
    step's norm polynomial, and two uniforms from its own Generator pick its
    channel (``_channels``) and its next threshold, floored at
    ``_THRESHOLD_FLOOR``.  Every row's squared norm stays above its
    threshold: the rows come in at the start of their crossing interval,
    and the descent and the step stop above it.  The round's jumps are
    one record (columns, times, channels) in ``jumps``, and each row goes
    on, ``into`` its step, in the block its channel maps it into, or, if
    that block is still, joins its ``arrivals`` at once: there the rest of
    the interval is steps of exactly I.  A column sits in one block and one
    round at a time, so its records come in time order.
    """
    grid = mach.grid
    n_fine, dt = grid.n_fine, grid.dt
    t0 = s0 * grid.spacing
    r, done, into = r.copy(), np.zeros(len(cols), dtype=np.int64), np.zeros(len(cols))
    live = {b: [(np.arange(len(cols)), rows)]}
    while live:
        here, live = live, {}
        for b, parts in here.items():
            blk = mach.blocks[b]
            ids, rows = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            if blk.absorbing:               # no channel acts there: no row crosses
                r[ids] = -np.inf
            edge = into[ids] == 0.0
            if edge.any():
                reach = np.where(edge, done[ids], n_fine)  # a row into its step stays there
                _descend(blk.r_pows, rows, r[ids], reach, n_fine)
                done[ids[edge]] = reach[edge]
            end = done[ids] == n_fine
            if end.any():
                arrivals.setdefault(b, []).append((cols[ids[end]], s0[ids[end]] + 1, rows[end]))
                ids, rows = ids[~end], rows[~end]
            if not len(ids):
                continue
            frac = dt - into[ids]
            powers = _powers(blk.gen, rows)
            rows = _taylor_flow(powers, frac[:, None])
            above = _row_norm2(rows) > r[ids]
            done[ids[above]] += 1
            into[ids[above]] = 0.0
            if above.any():
                live.setdefault(b, []).append((ids[above], rows[above]))
            cross = np.flatnonzero(~above)
            if not len(cross):
                continue
            del rows
            coeffs = _flow_norm2_poly(powers)
            tau = np.zeros(len(ids))
            for c in cross:
                tau[c] = _crossing_time(coeffs[c].tolist(), float(frac[c]), float(r[ids[c]]))
            phi = _taylor_flow(powers, tau[:, None])[cross]
            del powers
            ids, tau = ids[cross], tau[cross]
            norms = np.stack([_row_norm2(phi @ jump.T) for jump in blk.jumps], axis=1)
            u = np.array([rngs[j].random(2) for j in cols[ids]])
            chans = _channels(norms, u[:, 0])
            jumps.append((cols[ids], (t0[ids] + done[ids] * dt) + into[ids] + tau, chans))
            r[ids] = pending[cols[ids]] = np.maximum(u[:, 1], _THRESHOLD_FLOOR)
            into[ids] += tau
            for chan, (jump, dest) in enumerate(zip(blk.jumps, blk.targets)):
                sel = np.flatnonzero(chans == chan)
                if len(sel):
                    states = (phi[sel] @ jump.T) * (1.0 / np.sqrt(norms[sel, chan]))[:, None]
                    if mach.blocks[dest].still:     # its step is I: the row ends its interval
                        arrivals.setdefault(dest, []).append(
                            (cols[ids[sel]], s0[ids[sel]] + 1, states))
                    else:
                        live.setdefault(dest, []).append((ids[sel], states))


@dataclass(frozen=True)
class _Batch:
    """What ``_propagate`` returns for a batch of columns, written by its sweeps."""

    values: Optional[np.ndarray]     # (n_cols, n_observables, n_samples), reduced per sample
    rho_sum: Optional[np.ndarray]    # (n_samples, Σ_b k_b²): Σ over the rows of |ψ><ψ|
    states: Optional[np.ndarray]     # recorded batch of one: (n_samples, dim) normalized rows
    run: _FreeRun                    # the jump-free run, as far as the batch needed it
    jumps: list                      # per round with crossings: (columns, times, channels)
    absorbed: np.ndarray             # (n_cols,) first sample in an absorbing block, or n_samples


def _sweep_order(structure: BlockStructure) -> list:
    """The blocks in the order ``_propagate`` sweeps them: each after every
    other block that maps into it (``targets``); a cycle is entered at its
    smallest block."""
    feeds = [{t[b] for t in structure.targets} - {b} for b in range(len(structure.members))]
    order, left = [], list(range(len(structure.members)))
    while left:
        fed = set().union(*(feeds[a] for a in left))
        order.append(next((b for b in left if b not in fed), left[0]))
        left.remove(order[-1])
    return order


# a row at norm 0 reads NaN until the floor check refuses it
@np.errstate(divide="ignore", invalid="ignore")
def _sweep(mach: _Machinery, b: int, arrived: list, pending, batch: _Batch,
           reduced: bool) -> tuple:
    """Sweep block ``b`` over the grid with the columns of ``arrived``, chunks
    of ``(columns, samples, states)``: each joins the block's rows, kept in
    column order, at its sample.

    Each sample is one product of the rows with the stride propagator,
    then their reduction: a recorded row, else, if ``reduced``, the
    observables and, with ρ̄ kept, one product added to the block's
    slice.  A still block's step is exactly I, so it visits only the
    distinct arrival samples: each visit merges the rows arriving there and
    writes its reduction over every sample up to the next visit, with ρ̄'s
    product added at each, the bits the per-sample loop would write.  A
    block no channel acts on takes no jump test, is not swept if nothing
    reads its rows, and meets its floor check once, after the sweep.  A
    row whose squared norm falls to its threshold in an interval leaves the
    sweep with its state at the interval's start, where its squared norm is
    still above the threshold.  Returns those rows: columns, interval start
    samples and states there.
    """
    grid, blk = mach.grid, mach.blocks[b]
    cols, at, states = (np.concatenate(side) for side in zip(*arrived))
    order = np.lexsort((cols, at))
    cols, at, states = cols[order], at[order], states[order]
    if blk.absorbing:
        batch.absorbed[cols] = at
    held = [(cols[:0], at[:0], states[:0])]
    if blk.absorbing and batch.states is None and batch.rho_sum is None and not reduced:
        return held[0]
    offsets, k = mach.structure.offsets, len(blk.index)
    rows, work, norm2, lo = cols[:0], states[:0], np.empty(0), 0
    visits = (np.unique(at) if blk.still else np.arange(at[0], grid.n_samples)).tolist()
    for s, end in zip(visits, visits[1:] + [grid.n_samples]):
        if len(rows) and not blk.still:
            cand = work @ blk.r_stride.T
            new2 = _row_norm2(cand)
            out = None if blk.absorbing else ~(new2 > pending[rows])
            if out is not None and out.any():
                held.append((rows[out], np.full(np.count_nonzero(out), s - 1), work[out]))
                rows, cand, new2 = rows[~out], cand[~out], new2[~out]
            work, norm2 = cand, new2
        hi = at.searchsorted(s, "right")
        if hi > lo:
            rows = np.concatenate([rows, cols[lo:hi]])
            by_col = np.argsort(rows, kind="stable")
            rows, work = rows[by_col], np.concatenate([work, states[lo:hi]])[by_col]
            norm2, lo = _row_norm2(work), hi
        if not len(rows):
            if lo == len(at):
                break
            continue
        if batch.states is not None:
            batch.states[s:end, blk.index] = work[0] * (1.0 / np.sqrt(norm2[0]))
        elif reduced or batch.rho_sum is not None:
            normed = work * (1.0 / np.sqrt(norm2))[:, None]
            if reduced:
                batch.values[rows, :, s:end] = _reduce(mach.block_obs[b], normed)[:, :, None]
            if batch.rho_sum is not None:
                span = batch.rho_sum[s:end, offsets[b]:offsets[b + 1]].reshape(end - s, k, k)
                span += np.matmul(normed.T, normed.conj())
    # no row leaves an absorbing block, and no norm rises
    _check_floor(blk, norm2, grid.dt)
    return tuple(np.concatenate(side) for side in zip(*held))


# the jump pass (``_jump_pass``) takes its rows in chunks of about this many bytes
_PASS_BYTES = 1 << 22


def _pass_row_bytes(k: int) -> int:
    """Bytes one row of the jump pass holds at most, on blocks of at most
    ``k`` states: its row and, in one round, the descent's trials or the
    Taylor powers with the step-end or crossing flow and its temporaries;
    and its scalars and norm polynomial."""
    return 10 * k * 16 + 512


def _pass_rows(k: int) -> int:
    """Rows in one chunk of the jump pass on blocks of at most ``k`` states."""
    return max(1, _PASS_BYTES // _pass_row_bytes(k))


def _chunks(mach: _Machinery, b: int, n_rows: int) -> list:
    """``n_rows`` rows of a jump pass from block ``b`` as slices: as many rows
    on the blocks a row can reach from ``b`` as fit in the bytes of a chunk
    on the model's largest block, ``batch_bytes``'s pass term."""
    reach = {b}
    while new := {t for c in reach for t in mach.blocks[c].targets} - reach:
        reach |= new
    k = max(len(blk.index) for blk in mach.blocks)
    held = _pass_rows(k) * _pass_row_bytes(k)
    step = held // _pass_row_bytes(max(len(mach.blocks[c].index) for c in reach))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def batch_bytes(n_cols: int, n_observables: int, n_samples: int, block_dims) -> int:
    """Bytes of a batch of ``n_cols`` columns on blocks of ``block_dims``
    states: the jump-free run's states and survival at every sample, which a
    recorded column writes its own rows over; each column's observable rows;
    one chunk of the jump pass; and each column's live state and Python
    objects, with a jump record per block it can leave.  Each loss lowers
    the excitation, so a column leaves a block at most once; channels that
    map a block into itself record jumps this does not count.

    The live state is ``dim`` amplitudes, and six more copies of it are
    counted on the largest block: a row's product, the rows that stay, the
    arrivals concatenated and put in order with the rows; a crossing row,
    held until its sweep ends, and an arrival waiting for its block.  A
    fresh jump-free branch counts as a batch of one, with its reduction
    (``branch_bytes``)."""
    dim, k = sum(block_dims), max(block_dims)
    run = n_samples * (dim * 16 + 8)
    rows = n_cols * n_observables * n_samples * 8
    jump_pass = min(n_cols, _pass_rows(k)) * _pass_row_bytes(k)
    live = (dim + 6 * k) * 16
    return run + rows + jump_pass + n_cols * (live + _COLUMN_BYTES
                                              + _JUMP_BYTES * (len(block_dims) - 1))


def branch_bytes(n_observables: int, n_samples: int, block_dims) -> int:
    """Bytes of the jump-free branch's reduction: per sample, one
    observable's support columns, their product and conjugate, each counted
    on the largest block, with its complex values, and every observable's
    values before and after they are transposed; none without observables."""
    return n_observables and n_samples * (3 * max(block_dims) * 16 + 16 + 2 * n_observables * 8)


def rho_bytes(n_samples: int, block_dims) -> int:
    """Bytes of ρ̄'s entries on blocks of ``block_dims`` states at every
    sample, with the row and column of each entry."""
    return (n_samples + 1) * sum(k * k for k in block_dims) * 16


def _propagate(mach: _Machinery, n_cols: int, seed_of, record: bool = False,
               keep_rho: bool = False, what: str = "the batch") -> _Batch:
    """Advance a batch of ``n_cols`` columns through the sample grid, one
    block at a time.

    Column j is one pure-state evolution from ψ0.  With a collapse channel,
    column j is the trajectory of ``seed_of(j)``: uniforms are drawn from
    its own stream (the threshold, then per jump the channel and the next
    threshold in one call; each threshold floored at ``_THRESHOLD_FLOOR``),
    and the decaying norm carries the waiting time.
    Otherwise nothing jumps, and every column is the jump-free run to the
    end of the grid.

    Until its first jump every column is the jump-free run's state
    (``_FreeRun``), written until its survival is at or below every first
    threshold, so each column's crossing interval is read off the survival
    at once.  Then the blocks are swept in ``_sweep_order`` (``_sweep``),
    each with the columns that land in it; the crossings out of the run
    and those of each sweep are resolved in one pass (``_jump_pass``),
    and each column joins its next block at the end of its interval.

    With ``record`` the batch is one column, whose rows are kept: the run's
    states up to its first jump, its own after.  Otherwise each block's
    rows are reduced at each sample: the observables on their supports and,
    with ``keep_rho``, the block's sum of |ψ><ψ| in its slice of the
    ``BlockStructure``'s array.  A column that has not jumped takes the
    run's values, and its |ψ><ψ| is written first into ρ̄'s start block; a
    sweep of that block, or a block's second sweep, adds to the slice.  A
    block where every support is empty is not reduced (its values stay
    0.0).  No squared norm can rise (``_check_step``).

    Before any of them, or any column's seed or Generator, exists, the
    batch's arrays (``batch_bytes`` and, with ``keep_rho``, ``rho_bytes``)
    count against ``linalg.MEMORY_CAP``, in a message that begins with
    ``what``, the caller's name for the batch.
    """
    grid = mach.grid
    n = grid.n_samples
    dims = [len(blk.index) for blk in mach.blocks]
    n_bytes = batch_bytes(n_cols, len(mach.names), n, dims)
    parts = (["recorded states and norms"] if record
             else ["the jump-free run", "observable rows"]) + ["live states"]
    if keep_rho:
        n_bytes += rho_bytes(n, dims)
        parts.append(f"ρ̄'s block entries over {n} samples")
    check_budget(n_bytes, f"{what}: {', '.join(parts)}")
    start = mach.structure.start
    index = mach.blocks[start].index
    jumping = len(mach.structure.targets) > 0
    rngs = pending = None
    if jumping:
        rngs = [np.random.default_rng(np.random.SeedSequence(seed_of(j))) for j in range(n_cols)]
        pending = np.maximum([rng.random() for rng in rngs], _THRESHOLD_FLOOR)
    jumps: list = []
    absorbed = np.full(n_cols, 0 if mach.blocks[start].absorbing else n, dtype=np.int64)
    run = _FreeRun(mach)
    first = np.full(n_cols, n)           # the sample at which each column leaves the run
    arrivals: dict = {}                  # block -> [(columns, samples, states), ...]
    if jumping and not mach.blocks[start].absorbing:
        run.advance(pending.min())
        # a column crosses in the first interval whose end has survival at or below its threshold
        lowest = np.minimum.accumulate(run.survival[1:run.done])
        first = 1 + np.searchsorted(-lowest, -pending)
        leaving = np.flatnonzero(first < n)
        for chunk in _chunks(mach, start, len(leaving)):
            # each row the run's normalized state, with its threshold divided by the survival
            cols = leaving[chunk]
            s0 = first[cols] - 1
            _jump_pass(mach, start, cols, s0, run.states[s0[:, None], index],
                       pending[cols] / run.survival[s0], pending, rngs, jumps, arrivals)
    else:
        run.advance()
    states = values = None
    if record:
        states = run.states
        states[first[0]:] = 0.0          # the column's own rows from its first jump on
    else:
        values = np.zeros((n_cols, len(mach.names), n))
    offsets = mach.structure.offsets
    rho_sum = np.zeros((n, offsets[-1]), dtype=np.complex128) if keep_rho else None
    reduced = [any(len(sup) for sup, _ in entries) for entries in mach.block_obs]
    batch = _Batch(values=values, rho_sum=rho_sum, states=states, run=run,
                   jumps=jumps, absorbed=absorbed)
    waiting = n_cols - np.cumsum(np.bincount(first, minlength=n + 1))[:n]   # per sample
    order = np.argsort(first, kind="stable")            # the columns still waiting come last
    for s in np.flatnonzero(waiting) if not record and (keep_rho or reduced[start]) else ():
        row = run.states[s:s + 1, index]
        if reduced[start]:
            values[order[n_cols - waiting[s]:], :, s] = _reduce(mach.block_obs[start], row)
        if keep_rho:
            # waiting[s] rows of the run's state, written before any sweep adds to the block
            shared = np.matmul(row.T, row.conj(), out=rho_sum[s, offsets[start]:offsets[start + 1]]
                               .reshape(len(index), -1))
            if waiting[s] > 1:
                shared.view(np.float64)[...] *= waiting[s]
    blocks = _sweep_order(mach.structure)
    while arrivals:
        b = next(c for c in blocks if c in arrivals)
        cols, s0, rows = _sweep(mach, b, arrivals.pop(b), pending, batch, reduced[b])
        for chunk in _chunks(mach, b, len(cols)):
            _jump_pass(mach, b, cols[chunk], s0[chunk], rows[chunk], pending[cols[chunk]],
                       pending, rngs, jumps, arrivals)
    return batch


def mcwf_trajectory(h: np.ndarray, collapse: Sequence[np.ndarray],
                    psi0: np.ndarray, grid: TimeGrid, seed) -> TrajectoryResult:
    """One Monte-Carlo wave-function trajectory (waiting-time unraveling).

    Between jumps the state evolves under H − (i/2)ΣL†L with decaying
    norm; when the squared norm crosses a uniform threshold the jump time
    is bisected to 1e-10 on the step's norm polynomial (the squared norm
    of the degree-4 flow, of degree 8 in time), a channel j is selected
    with probability ‖L_jψ‖²/Σ_k‖L_kψ‖², and the state is projected and
    renormalized.  It is a batch of one column in ``_propagate``'s loop,
    with its rows recorded: the states of the frame H is written in.
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
    return TrajectoryResult(states=batch.states, jumps=tuple(
        (t, c) for _, times, chans in batch.jumps for t, c in zip(times.tolist(), chans.tolist())))


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


def _jump_free_branch(mach: _Machinery, run: Optional[_FreeRun] = None) -> ConditionalBranch:
    """The jump-free run on built blocks, written to the end of the grid and
    reduced on the block it never leaves: ``run``, an ensemble's, goes on
    from where the ensemble left it, else a new run starts."""
    dims, n = [len(blk.index) for blk in mach.blocks], mach.grid.n_samples
    reduction = branch_bytes(len(mach.names), n, dims)
    if run is None:
        check_budget(batch_bytes(1, 0, n, dims) + reduction,
                     "the jump-free branch: recorded states and norms, live states")
        run = _FreeRun(mach)
    else:
        # the ensemble counted its run
        check_budget(reduction, "the jump-free branch: the reduction of its states")
    run.advance()
    start = mach.structure.start
    index = mach.blocks[start].index
    # each support as basis columns of the recorded states: the block is not copied out
    values = _reduce([(index[support], op) for support, op in mach.block_obs[start]],
                     run.states)
    return ConditionalBranch(states=run.states, survival=run.survival,
                             observables=dict(zip(mach.names, np.ascontiguousarray(values.T))))


def no_jump_branch(h: np.ndarray, collapse: Sequence[np.ndarray], psi0: np.ndarray,
                   grid: TimeGrid,
                   observables: Optional[Mapping[str, np.ndarray]] = None,
                   ) -> ConditionalBranch:
    """Evolve the jump-free branch: decaying norm plus renormalized states.

    It is the jump-free run the trajectories share (``_FreeRun``), in the
    frame H is written in, rescaled whenever its squared norm falls below
    ``_RESCALE_FLOOR``.  With ``collapse = ()`` this is the closed-system
    evolution.  A caller that has run ``mcwf_ensemble`` on the same inputs
    gets the same branch, without building the blocks again, from
    ``EnsembleResult.jump_free_branch``.
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

    The trajectories are one batch of ``n_traj`` columns in ``_propagate``.
    Trajectory j draws from SeedSequence((master_seed, j))
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
    counts = np.zeros((n_runs, n_chan), dtype=np.int64)
    for cols, _, chans in batch.jumps:
        np.add.at(counts, (cols, chans), 1)

    means = {name: batch.values[:, o].mean(axis=0) for o, name in enumerate(mach.names)}
    stderr = {name: (batch.values[:, o].std(axis=0, ddof=1) / math.sqrt(n_traj) if n_runs > 1
                     else np.zeros(n)) for o, name in enumerate(mach.names)}
    rho_blocks = (BlockDensity(np.divide(batch.rho_sum, n_runs, out=batch.rho_sum),
                               mach.structure.rows, mach.structure.cols) if keep_rho else None)
    copies = n_traj // n_runs
    return EnsembleResult(mean_observables=means, stderr=stderr, rho_blocks=rho_blocks,
                          jumps_per_channel=np.repeat(counts, copies, axis=0),
                          absorbing_entry=np.repeat(batch.absorbed, copies),
                          _machinery=mach, _run=batch.run)


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
    trace = float(np.trace(rho0).real)
    if abs(trace - 1.0) > 1e-8:
        raise ConfigError([f"rho0: trace must be 1, got {trace!r}"])
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
    parts = _parts(structure, h, ops)
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
