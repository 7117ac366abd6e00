"""Dense linear algebra for small tensor-product Hilbert spaces.

All operators are plain ``numpy`` arrays, complex128, C-ordered.  Basis
ordering convention for composite systems: factor 0 is the *leftmost*
(slowest-varying) index, i.e. ``np.kron(A0, A1, ...)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, SizeError

#: absolute tolerance used when checking Hermiticity of inputs
HERMITICITY_ATOL = 1e-10
#: bytes one run may allocate for its largest arrays; every size guard counts against it
MEMORY_CAP = 256 * 2**20
#: entries of a − a† that ``require_hermitian`` forms at a time
_HERMITIAN_CHUNK = 2**15


@dataclass(frozen=True)
class TensorDims:
    """Dimensions of the tensor factors making up a composite space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) == 0:
            raise SizeError("TensorDims needs at least one factor")
        if any((not isinstance(d, (int, np.integer))) or d < 1 for d in self.factors):
            raise SizeError(f"factor dimensions must be positive integers, got {self.factors}")
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))

    @property
    def total(self) -> int:
        return int(np.prod(self.factors))

    def __len__(self) -> int:
        return len(self.factors)

    @classmethod
    def coerce(cls, dims) -> "TensorDims":
        if isinstance(dims, TensorDims):
            return dims
        return cls(tuple(int(d) for d in dims))


@dataclass(frozen=True)
class BlockDensity:
    """A stack of density matrices held as the entries of their diagonal blocks.

    ``entries[s, m]`` is ρ_s[rows[m], cols[m]]; every other entry is zero.
    ``dynamics`` keeps ρ̄ in its block layout: block by block, each row-major.
    """

    entries: np.ndarray                   # (n_samples, Σ_b k_b²) complex
    rows: np.ndarray                      # (Σ_b k_b²,) basis row of each entry
    cols: np.ndarray                      # (Σ_b k_b²,) basis column of each entry


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square, finite, C-contiguous complex128 matrix."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


def check_budget(n_bytes: int, what: str) -> None:
    """Raise :class:`SizeError` if ``n_bytes`` for ``what`` exceed ``MEMORY_CAP``."""
    if n_bytes > MEMORY_CAP:
        raise SizeError(f"{what} needs {n_bytes} bytes, above the budget {MEMORY_CAP}")


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Raise :class:`NotHermitianError` unless ``m`` is Hermitian within ``atol``.

    The deviation max |a − a†| is taken over blocks of about
    ``_HERMITIAN_CHUNK`` entries at a time, so no dim² temporary is formed.
    """
    a = as_complex_matrix(m)
    d = a.shape[0]
    step = max(1, _HERMITIAN_CHUNK // max(d, 1))
    dev = max((np.max(np.abs(a[i:i + step] - a[:, i:i + step].conj().T))
               for i in range(0, d, step)), default=0.0)
    if dev > atol:
        raise NotHermitianError(f"matrix deviates from Hermiticity by {dev:.3e} (atol {atol:.1e})")
    return a


def min_labels(labels: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Merge the classes of ``labels`` along the links (i, j).

    ``labels`` gives each node the smallest node of its class (``arange``
    for singletons).  Every node takes the smallest label among the nodes
    it is linked to, until no label changes; each merged class is then
    labelled by its smallest node.
    """
    while True:
        low = np.minimum(labels[i], labels[j])
        new = labels.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _coerce_state(rho, dims) -> tuple[np.ndarray, TensorDims]:
    td = TensorDims.coerce(dims)
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise SizeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if a.shape[-1] != td.total:
        raise SizeError(f"matrix dimension {a.shape[-1]} does not match factors {td.factors}")
    return a, td


def partial_transpose(rho, dims, which: int = 1) -> np.ndarray:
    """Partial transpose over factor ``which`` (0 or 1) of a bipartite
    operator, or of each operator in a ``(..., d, d)`` stack."""
    a, td = _coerce_state(rho, dims)
    if len(td) != 2:
        raise SizeError(f"partial_transpose expects exactly two factors, got {len(td)}")
    if which not in (0, 1):
        raise SizeError(f"which must be 0 or 1, got {which}")
    da, db = td.factors
    lead = a.ndim - 2
    swap = (2, 1, 0, 3) if which == 0 else (0, 3, 2, 1)
    t = a.reshape(a.shape[:lead] + (da, db, da, db))
    t = t.transpose(tuple(range(lead)) + tuple(lead + k for k in swap))
    return np.ascontiguousarray(t.reshape(a.shape))
