"""Jaynes-Cummings-Hubbard cavity arrays in the bare and polariton bases.

Each site holds one two-level atom (levels ``g``, ``e``) coupled to a single
cavity mode truncated at ``n_max`` photons.  Site Hilbert space ordering:
atom index slowest, photon index fastest, i.e. ``|atom, photon>`` maps to
``atom * (n_max + 1) + photon``.  Composite ordering is site-major with
site 0 leftmost.

Polariton (dressed) states per site::

    |n-> = cos(theta_n)|n, g> - sin(theta_n)|n-1, e>
    |n+> = sin(theta_n)|n, g> + cos(theta_n)|n-1, e>

with ``theta_n = 0.5 * arctan(g sqrt(n) / (delta / 2))``.  Energies are
written in the frame rotating at the cavity frequency, so ``delta`` is
``omega_a``, the atom-cavity detuning.  ``dressed_state`` takes the site
whose coupling ``g`` sets the angle; the single-site dressed basis and its
energies (``polariton_energy``, ``dressed_basis_matrix``,
``transform_to_dressed_basis``, ``creation_in_polariton_basis``) are site
0's, at ``g[0]``, as is the beat period that ``blockade_beat_period`` reads
from them.

H conserves the total excitation and each loss lowers it by one, so a run
lives on the product states with at most the initial excitations
(:class:`ReducedSpace`): its model, initial state and projectors are built
there, never in the site_dim^N product space, whose int64 indices bound it
below 2**63.  ``prepare_product_polariton_state``, ``reduce_vector`` and
``embed_density`` remain only as product-space references, within ``MEMORY_CAP``.

The rules of labels, excitations and product indices (``checked_labels``,
``checked_max_exc``, ``check_product_index``) and the byte counts of the
basis and of dense matrices on it (``basis_bytes``, ``dense_bytes``,
``model_bytes``) live here, each once.
"""
from __future__ import annotations

import math
from collections.abc import Sequence as _Sequence
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ConfigError, SizeError, TruncationError, collect
from .linalg import check_budget, real, reals, whole

#: product-basis indices are int64, so the product space must stay below this
PRODUCT_INDEX_LIMIT = 2**63

GROUND = "ground"
MINUS = "minus"
PLUS = "plus"
_BRANCHES = (GROUND, MINUS, PLUS)


def _as_tuple(value, n: int, name: str, **bounds) -> tuple:
    """A scalar broadcast to ``n`` floats, or a length-``n`` sequence as floats,
    each entry passed by ``linalg.real`` with ``bounds``."""
    if not isinstance(value, (_Sequence, np.ndarray)) or isinstance(value, str):
        return (real(value, name, **bounds),) * n
    if len(value) != n:
        raise ConfigError([f"{name}: expected {n} entries, got {len(value)}"])
    return reals(tuple(value), name, **bounds)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of a cavity array.  Rates are in units of ``g``.

    Energies are in the frame rotating at the cavity frequency: ``omega_a``
    is the atom-cavity detuning, and photons carry no energy.  H conserves
    the total excitation N, so the frame only puts a phase on each N sector,
    which no observable that keeps N sees.
    """

    n_sites: int
    omega_a: float = 0.0
    omega_c: ClassVar[float] = 0.0     # not a field: only perfbench reads it
    g: float | Sequence[float] = 1.0
    hop: float | Sequence[float] = 0.0
    gamma: float | Sequence[float] = 0.0
    n_max: int = 1

    def __post_init__(self):
        problems = []
        n = whole(self.n_sites, 1, "n_sites")
        values = {"n_max": collect(problems, whole, self.n_max, 1, "n_max"),
                  "g": collect(problems, _as_tuple, self.g, n, "g", above=0.0),
                  "hop": collect(problems, _as_tuple, self.hop, max(n - 1, 0), "hop"),
                  "gamma": collect(problems, _as_tuple, self.gamma, n, "gamma", least=0.0),
                  "omega_a": collect(problems, real, self.omega_a, "omega_a")}
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "n_sites", n)
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def site_dim(self) -> int:
        return 2 * (self.n_max + 1)

    @property
    def dim(self) -> int:
        return self.site_dim ** self.n_sites


@dataclass(frozen=True)
class PolaritonLabel:
    """One dressed state of a single site: ground, ``|n->`` or ``|n+>``."""

    n: int
    branch: str

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise ConfigError([f"branch: must be one of {_BRANCHES}, got {self.branch!r}"])
        n = whole(self.n, 0, "n")
        if (self.branch == GROUND) != (n == 0):
            raise ConfigError([f"label ({n}, {self.branch}): n = 0 iff branch is ground"])
        object.__setattr__(self, "n", n)

    @classmethod
    def ground(cls) -> "PolaritonLabel":
        return cls(0, GROUND)

    @classmethod
    def minus(cls, n: int) -> "PolaritonLabel":
        return cls(n, MINUS)

    @classmethod
    def plus(cls, n: int) -> "PolaritonLabel":
        return cls(n, PLUS)

    @classmethod
    def parse(cls, text: str) -> "PolaritonLabel":
        """Parse ``"G"``, ``"0"``, ``"2-"`` or ``"1+"`` style labels."""
        s = str(text).strip()
        if s.upper() in ("G", "0"):
            return cls.ground()
        if s and s[-1] in "+-":
            try:
                n = int(s[:-1])
            except ValueError:
                raise ConfigError([f"cannot parse polariton label {text!r}"]) from None
            return cls(n, MINUS if s[-1] == "-" else PLUS)
        raise ConfigError([f"cannot parse polariton label {text!r}"])

    def __str__(self) -> str:
        if self.branch == GROUND:
            return "G"
        return f"{self.n}{'-' if self.branch == MINUS else '+'}"


def _beyond_cutoff(label: PolaritonLabel, params: ModelParams) -> Optional[str]:
    """The problem of a site label whose photons exceed the cutoff, or None."""
    if label.n > params.n_max:
        return f"|{label}> needs {label.n} photons, cutoff is {params.n_max}"
    return None


def mixing_angle(n: int, delta: float, g: float = 1.0) -> float:
    """Dressed-basis rotation angle for the ``n``-excitation doublet.

    ``atan2`` keeps the angle in (0, pi/2) for every detuning sign and
    returns exactly ``pi/4`` on resonance.
    """
    whole(n, 1, "n", ValueError)
    real(g, "g", above=0.0)
    return 0.5 * math.atan2(g * math.sqrt(n), delta / 2.0)


def polariton_energy(label: PolaritonLabel, params: ModelParams) -> float:
    """Energy of a single-site dressed state in the cavity's rotating frame
    (vacuum energy is zero), at site 0's coupling ``g[0]``."""
    if label.branch == GROUND:
        return 0.0
    if problem := _beyond_cutoff(label, params):
        raise TruncationError(problem)
    delta, g = params.omega_a, params.g[0]
    rabi = math.sqrt(delta * delta + 4.0 * g * g * label.n)
    sign = 1.0 if label.branch == PLUS else -1.0
    return 0.5 * delta + 0.5 * sign * rabi


def _dressed_components(label: PolaritonLabel, params: ModelParams, site: int) -> tuple:
    """Bare components ``((photon, atom), amplitude)`` of a single-site dressed state."""
    if label.branch == GROUND:
        return (((0, 0), 1.0),)
    if problem := _beyond_cutoff(label, params):
        raise TruncationError(problem)
    n = label.n
    th = mixing_angle(n, params.omega_a, params.g[site])
    g_comp, e_comp = math.cos(th), -math.sin(th)
    if label.branch == PLUS:
        g_comp, e_comp = math.sin(th), math.cos(th)
    return (((n, 0), g_comp), ((n - 1, 1), e_comp))


def dressed_state(label: PolaritonLabel, params: ModelParams, site: int = 0) -> np.ndarray:
    """Single-site dressed state as a vector in the bare (atom, photon) basis."""
    vec = np.zeros(params.site_dim, dtype=np.complex128)
    for (photon, atom), amp in _dressed_components(label, params, site):
        vec[atom * (params.n_max + 1) + photon] = amp
    return vec


@dataclass(frozen=True)
class HoppingCoefficients:
    """Photon matrix elements between neighbouring dressed doublets.

    ``c_minus``/``c_plus`` multiply the branch-preserving ladder operators
    ``|n->(n-1)-|`` resp. ``|n+><(n-1)+|`` inside the creation operator;
    ``k_plus`` couples ``|(n-1)-> -> |n+>`` and ``k_minus`` couples
    ``|(n-1)+> -> |n->`` (both vanish for n = 1 where the branches share
    the vacuum).
    """

    c_plus: float
    c_minus: float
    k_plus: float
    k_minus: float


def hopping_coefficients(n: int, delta: float, g: float = 1.0) -> HoppingCoefficients:
    """Creation-operator coefficients between the ``n-1`` and ``n`` doublets
    (``mixing_angle`` checks ``n``)."""
    th_n = mixing_angle(n, delta, g)
    if n == 1:
        return HoppingCoefficients(math.sin(th_n), math.cos(th_n), 0.0, 0.0)
    th_m = mixing_angle(n - 1, delta, g)
    rn, rm = math.sqrt(n), math.sqrt(n - 1)
    sn, cn = math.sin(th_n), math.cos(th_n)
    sm, cm = math.sin(th_m), math.cos(th_m)
    return HoppingCoefficients(
        c_plus=rn * sn * sm + rm * cn * cm,
        c_minus=rn * cn * cm + rm * sn * sm,
        k_plus=rn * sn * cm - rm * cn * sm,
        k_minus=rn * cn * sm - rm * sn * cm,
    )


@dataclass(frozen=True)
class SiteOperatorSet:
    """Dense single-site operators in the bare basis (atom slowest)."""

    n_max: int
    a: np.ndarray
    a_dag: np.ndarray
    sigma_minus: np.ndarray
    number: np.ndarray
    excited: np.ndarray
    total_excitation: np.ndarray


def site_operators(n_max: int) -> SiteOperatorSet:
    """Build the standard single-site operator set for photon cutoff ``n_max``."""
    pd = whole(n_max, 1, "n_max") + 1
    a_ph = np.diag(np.sqrt(np.arange(1, pd)), k=1).astype(np.complex128)
    i_ph = np.eye(pd, dtype=np.complex128)
    i_at = np.eye(2, dtype=np.complex128)
    sm_at = np.zeros((2, 2), dtype=np.complex128)
    sm_at[0, 1] = 1.0  # |g><e|
    pe_at = np.zeros((2, 2), dtype=np.complex128)
    pe_at[1, 1] = 1.0
    a = np.kron(i_at, a_ph)
    sm = np.kron(sm_at, i_ph)
    num = a.conj().T @ a
    exc = np.kron(pe_at, i_ph)
    return SiteOperatorSet(
        n_max=int(n_max),
        a=a,
        a_dag=a.conj().T,
        sigma_minus=sm,
        number=num,
        excited=exc,
        total_excitation=num + exc,
    )


def damped_sites(params: ModelParams) -> tuple[int, ...]:
    """Site indices with a nonzero photon decay rate, ascending."""
    return tuple(j for j in range(params.n_sites) if params.gamma[j] > 0)


def checked_labels(labels: Sequence[PolaritonLabel | str], params: ModelParams,
                   max_exc: Optional[int] = None, field: str = "labels") -> tuple:
    """``labels`` parsed, one per site (else ``SizeError``), each parsed (else
    ``ConfigError``) and within the photon cutoff, and with ``max_exc`` at most
    that many excitations in total (else ``TruncationError``), naming ``field``."""
    if len(labels) != params.n_sites:
        raise SizeError(f"{field}: expected {params.n_sites} site labels, got {len(labels)}")
    parsed, bad = [], []
    for raw in labels:
        try:
            parsed.append(raw if isinstance(raw, PolaritonLabel) else PolaritonLabel.parse(raw))
        except ConfigError as exc:
            bad.append(f"{field}: bad label {raw!r} ({exc})")
    if bad:
        raise ConfigError(bad)
    beyond = [f"{field}: {p}" for p in (_beyond_cutoff(lab, params) for lab in parsed) if p]
    total = sum(lab.n for lab in parsed)
    if not beyond and max_exc is not None and total > max_exc:
        beyond.append(f"{field}: {total} excitations in total, the basis holds at most {max_exc}")
    if beyond:
        raise TruncationError(beyond)
    return tuple(parsed)


def prepare_product_polariton_state(labels: Sequence[PolaritonLabel | str],
                                    params: ModelParams) -> np.ndarray:
    """Product of single-site dressed states as a full-space vector.

    The product-space reference of ``ReducedSpace.product_state``.
    """
    parsed = checked_labels(labels, params)
    check_budget(params.dim * 16, f"a {params.dim}-dim product state")
    vec = np.ones(1, dtype=np.complex128)
    for site, lab in enumerate(parsed):
        vec = np.kron(vec, dressed_state(lab, params, site))
    return vec


# ---------------------------------------------------------------------------
# dressed (polariton) basis on a single site
# ---------------------------------------------------------------------------

def dressed_index(label: PolaritonLabel) -> int:
    """Position of a dressed state in the ordering G, 1-, 1+, 2-, 2+, ..."""
    if label.branch == GROUND:
        return 0
    return 2 * label.n - (1 if label.branch == MINUS else 0)


def dressed_basis_matrix(params: ModelParams) -> np.ndarray:
    """Unitary with site 0's dressed states as columns (bare basis rows).

    Ordering: ``G, 1-, 1+, ..., n_max-, n_max+`` followed by the lone bare
    state ``|e, n_max>`` whose dressed partner lies beyond the photon cutoff.
    """
    d = params.site_dim
    u = np.zeros((d, d), dtype=np.complex128)
    u[:, 0] = dressed_state(PolaritonLabel.ground(), params)
    for n in range(1, params.n_max + 1):
        u[:, dressed_index(PolaritonLabel.minus(n))] = dressed_state(PolaritonLabel.minus(n), params)
        u[:, dressed_index(PolaritonLabel.plus(n))] = dressed_state(PolaritonLabel.plus(n), params)
    u[(params.n_max + 1) + params.n_max, d - 1] = 1.0  # |e, n_max>
    return u


def transform_to_dressed_basis(op: np.ndarray, params: ModelParams) -> np.ndarray:
    """Conjugate a single-site operator into site 0's dressed ordering, ``U^dag op U``."""
    u = dressed_basis_matrix(params)
    return u.conj().T @ op @ u


def creation_in_polariton_basis(params: ModelParams) -> np.ndarray:
    """Photon creation operator written directly in site 0's dressed ordering.

    Built from the doublet coefficients: branch-preserving ladders weighted
    by ``c_(n,+/-)`` and the branch-mixing ladders weighted by ``k``.  The row/column of the lone
    truncated state ``|e, n_max>`` is left zero; inside the polariton block
    the result matches the change-of-basis transform of the bare operator.
    """
    d = params.site_dim
    out = np.zeros((d, d), dtype=np.complex128)
    delta, g = params.omega_a, params.g[0]
    for n in range(1, params.n_max + 1):
        co = hopping_coefficients(n, delta, g)
        lo_minus = PolaritonLabel.minus(n - 1) if n > 1 else PolaritonLabel.ground()
        lo_plus = PolaritonLabel.plus(n - 1) if n > 1 else PolaritonLabel.ground()
        out[dressed_index(PolaritonLabel.minus(n)), dressed_index(lo_minus)] += co.c_minus
        out[dressed_index(PolaritonLabel.plus(n)), dressed_index(lo_plus)] += co.c_plus
        if n > 1:
            out[dressed_index(PolaritonLabel.plus(n)), dressed_index(lo_minus)] += co.k_plus
            out[dressed_index(PolaritonLabel.minus(n)), dressed_index(lo_plus)] += co.k_minus
    return out


# ---------------------------------------------------------------------------
# conserved-excitation subspace
# ---------------------------------------------------------------------------

def _full_index(codes: np.ndarray, site_dim: int) -> np.ndarray:
    """Product-basis index of site codes ``(..., n_sites)``, site 0 slowest."""
    return codes @ site_dim ** np.arange(codes.shape[-1] - 1, -1, -1)


@dataclass(frozen=True, eq=False)
class ReducedSpace:
    """Span of all product states with total excitation <= ``max_exc``.

    The array Hamiltonian commutes with the total excitation operator and
    photon loss only lowers it, so dynamics started inside this span never
    leaves it: restriction is exact, not an approximation.  Basis states are
    ordered by ascending full-space index; ``n_tot`` labels each with its
    excitation sector.
    """

    params: ModelParams
    max_exc: int
    states: np.ndarray        # (dim, n_sites, 2) ints: photon, atom per site
    full_indices: np.ndarray  # (dim,) position of each basis state in the product basis
    n_tot: np.ndarray         # (dim,) total excitation of each basis state

    @property
    def dim(self) -> int:
        return int(self.states.shape[0])

    @property
    def full_dim(self) -> int:
        return int(self.params.dim)

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.full_dim,):
            raise SizeError(f"vector shape {v.shape} does not match full dim {self.full_dim}")
        out = np.ascontiguousarray(v[self.full_indices], dtype=np.complex128)
        lost = np.vdot(v, v).real - np.vdot(out, out).real
        if lost > 1e-12:
            raise TruncationError(f"state has weight {lost:.3e} outside the excitation subspace")
        return out

    def embed_density(self, rho: np.ndarray) -> np.ndarray:
        """``rho``, or each matrix of a ``(..., dim, dim)`` stack, in the product space."""
        rho = np.asarray(rho)
        shape = rho.shape[:-2] + (self.full_dim, self.full_dim)
        check_budget(math.prod(shape) * 16, f"a {shape} product-space stack")
        out = np.zeros(shape, dtype=np.complex128)
        out[..., self.full_indices[:, None], self.full_indices] = rho
        return out

    def product_state(self, labels: Sequence[PolaritonLabel | str]) -> np.ndarray:
        """Product of single-site dressed states on this basis.

        Each basis state gets the product over sites of its site's dressed
        amplitude, read off ``states``, so nothing the size of a site's or the
        array's bare space is formed.  Raises ``TruncationError`` for a label
        beyond the photon cutoff or labels holding more than ``max_exc``
        excitations in total (``checked_labels``).
        """
        parsed = checked_labels(labels, self.params, self.max_exc)
        components = [_dressed_components(lab, self.params, site)
                      for site, lab in enumerate(parsed)]
        amp = np.ones(self.dim, dtype=np.complex128)
        for site, site_components in enumerate(components):
            factor = np.zeros(self.dim, dtype=np.complex128)
            for bare, value in site_components:
                factor[(self.states[:, site] == bare).all(axis=1)] = value
            amp *= factor
        return amp

    def index_of(self, states: np.ndarray) -> np.ndarray:
        """Reduced indices of bare product states ``(m, n_sites, 2)``: photon, atom per site."""
        codes = states[..., 1] * (self.params.n_max + 1) + states[..., 0]
        full = _full_index(codes, self.params.site_dim)
        pos = np.searchsorted(self.full_indices, full)
        found = self.full_indices[np.minimum(pos, self.dim - 1)] == full
        if not found.all():
            raise SizeError(f"state {states[~found][0].tolist()} not inside the excitation subspace")
        return pos


def checked_max_exc(params: ModelParams, max_exc: int, field: str = "max_exc") -> int:
    """``max_exc`` as an int, refused with a ``ConfigError`` naming ``field``
    unless the restriction to it is exact: every site must hold it."""
    max_exc = whole(max_exc, 0, field)
    if max_exc > params.n_max:
        raise ConfigError([
            f"{field}: photon cutoff n_max = {params.n_max} cannot hold {max_exc} excitations"
            " on one site; raise n_max so the restriction stays exact"])
    return max_exc


def check_product_index(params: ModelParams, field: str = "n_sites, n_max") -> None:
    """Raise ``SizeError`` naming ``field`` unless the product-space index of
    every state fits int64: the basis keeps each one."""
    if params.dim >= PRODUCT_INDEX_LIMIT:
        raise SizeError(f"{field}: {params.n_sites} sites with n_max = {params.n_max} span "
                        "at least 2**63 product states, whose indices overflow int64")


def basis_bytes(params: ModelParams, max_exc: int) -> int:
    """Peak bytes of ``excitation_basis(params, max_exc)``.

    Growing the prefixes over site m holds each of the P kept prefixes of
    m − 1 sites extended by the s = 2·max_exc + 1 site states: m int64
    codes a row, about twice over with their sums.  The finished basis
    holds its codes, states and indices, at most eight int64 per site and
    state.  8 KiB more cover the array headers.
    """
    s = 2 * max_exc + 1
    n = params.n_sites
    grow = max(8 * (2 * m + 2) * s * excitation_dim(m - 1, max_exc) for m in range(1, n + 1))
    return max(grow, 64 * n * excitation_dim(n, max_exc)) + 2**13


def excitation_basis(params: ModelParams, max_exc: int) -> ReducedSpace:
    """Enumerate the product states with total excitation at most ``max_exc``.

    States grow one site at a time from each site's states within the
    budget, and prefixes over the budget are dropped, so the cost follows the
    subspace, not the product space or the photon cutoff.  Site 0 is the
    slowest digit, so the states come out in ascending full-space index.
    """
    check_product_index(params)
    max_exc = checked_max_exc(params, max_exc)
    check_budget(basis_bytes(params, max_exc),
                 f"the basis of {params.n_sites} sites with at most {max_exc} excitations")
    # a site's states with at most max_exc excitations, in ascending code
    # atom * (n_max + 1) + photon: |0, g> ... |max_exc, g>, |0, e> ... |max_exc - 1, e>
    photon = np.r_[np.arange(max_exc + 1), np.arange(max_exc)]
    atom = np.repeat([0, 1], [max_exc + 1, max_exc])
    site_exc = photon + atom
    picks = np.zeros((1, 0), dtype=np.int64)
    for _ in range(params.n_sites):
        picks = np.column_stack([np.repeat(picks, len(photon), axis=0),
                                 np.tile(np.arange(len(photon)), len(picks))])
        picks = picks[site_exc[picks].sum(axis=1) <= max_exc]
    states = np.stack([photon[picks], atom[picks]], axis=-1)
    codes = atom[picks] * (params.n_max + 1) + photon[picks]
    return ReducedSpace(params=params, max_exc=max_exc, states=states,
                        full_indices=_full_index(codes, params.site_dim),
                        n_tot=states.sum(axis=(1, 2)))


def sector_dims(n_sites: int, max_exc: int) -> list:
    """The number of basis states with each total excitation 0, …, ``max_exc``,
    without enumerating the basis.  H keeps the total excitation and each
    loss lowers it by one, so every block a run finds lies in one sector."""
    dims = [excitation_dim(n_sites, m) for m in range(max_exc + 1)]
    return dims[:1] + [b - a for a, b in zip(dims, dims[1:])]


def excitation_dim(n_sites: int, max_exc: int) -> int:
    """``excitation_basis(params, max_exc).dim`` without enumerating the basis.

    A site holds one state with no excitation and two with k >= 1 (k <= n_max),
    so the states with m excited sites and at most ``max_exc`` excitations
    number C(n_sites, m) 2^m C(max_exc, m).
    """
    return sum(math.comb(n_sites, m) * 2**m * math.comb(max_exc, m)
               for m in range(min(n_sites, max_exc) + 1))


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Hamiltonian and jump operators restricted to an excitation subspace."""

    space: ReducedSpace
    h: np.ndarray
    collapse: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def n_tot(self) -> np.ndarray:
        return self.space.n_tot


def _add_process(op: np.ndarray, space: ReducedSpace, rate: float, moves) -> None:
    """Add ``rate`` times a product of ladder operators to ``op``, for all states at once.

    ``moves`` lists ``(site, photon change, atom change)``.  Every move changes
    the photon number, and contributes the larger of its two counts under the
    square root; a state whose image leaves the local cutoffs is annihilated.
    """
    target = space.states.copy()
    for site, d_photon, d_atom in moves:
        target[:, site] += (d_photon, d_atom)
    cols = np.flatnonzero(((target >= 0) & (target <= (space.params.n_max, 1))).all(axis=(1, 2)))
    moved = [site for site, _, _ in moves]
    ladder = np.maximum(target, space.states)[cols][:, moved, 0].prod(axis=1)
    op[space.index_of(target[cols]), cols] += rate * np.sqrt(ladder)


def dense_bytes(dim: int, n_matrices: int = 1) -> int:
    """Bytes of ``n_matrices`` dense complex ``dim``-square matrices."""
    return n_matrices * dim * dim * 16


def model_bytes(params: ModelParams, max_exc: int, n_matrices: Optional[int] = None) -> int:
    """Bytes of ``n_matrices`` dense matrices on the basis with at most
    ``max_exc`` excitations; by default H and the loss operators."""
    n = 1 + len(damped_sites(params)) if n_matrices is None else n_matrices
    return dense_bytes(excitation_dim(params.n_sites, max_exc), n)


def build_reduced_model(params: ModelParams, max_exc: int) -> ReducedModel:
    """Assemble the array Hamiltonian directly inside the excitation subspace.

    Each directed process (atom-photon exchange, photon hops, photon loss) is
    one vectorized write from its bare-basis action, so no full-space operator
    is materialised and every matrix element receives a single term.  H and
    the loss operators are dense, and their bytes count against the budget
    before anything is built.

    H is in the cavity's rotating frame (see :class:`ModelParams`): an
    observable that keeps N reads the same values in any frame, and one
    that changes N, on a state spanning sectors, reads its rotating-frame
    value.
    """
    check_product_index(params)
    max_exc = checked_max_exc(params, max_exc)
    damped = damped_sites(params)
    check_budget(model_bytes(params, max_exc), f"H and {len(damped)} loss operators on "
                                               f"{excitation_dim(params.n_sites, max_exc)} states")
    space = excitation_basis(params, max_exc)
    atoms = space.states[..., 1]
    h = np.zeros((space.dim, space.dim), dtype=np.complex128)
    # Python's sum starts from the int 0: an empty site at negative detuning gives +0.0
    np.fill_diagonal(h, sum(params.omega_a * atoms[:, j] for j in range(params.n_sites)))
    for j in range(params.n_sites):
        # g (a^dag sigma^- + a sigma^+): the atom emits a photon, or absorbs one
        _add_process(h, space, params.g[j], [(j, 1, -1)])
        _add_process(h, space, params.g[j], [(j, -1, 1)])
    for j in range(params.n_sites - 1):
        # J (a_j^dag a_{j+1} + a_j a_{j+1}^dag): a photon hops left, or right
        _add_process(h, space, params.hop[j], [(j, 1, 0), (j + 1, -1, 0)])
        _add_process(h, space, params.hop[j], [(j, -1, 0), (j + 1, 1, 0)])
    collapse = []
    for j in damped:
        loss = np.zeros_like(h)
        _add_process(loss, space, math.sqrt(params.gamma[j]), [(j, -1, 0)])
        collapse.append(loss)
    return ReducedModel(space=space, h=h, collapse=tuple(collapse))
