"""Input rules and small dense linear algebra shared by the package.

``whole`` is the one rule for whole-number inputs (counts, cutoffs, cuts,
labels, seeds) and ``real`` for real-number ones (rates, times, steps);
each takes the caller's field name and raises an error that starts with it.
``check_budget`` guards ``MEMORY_CAP`` for counts made beside each guard,
which the config's load pass sums; ``as_complex_matrix`` and
``require_hermitian`` check matrices.  ``BlockDensity`` is the
block layout of ρ̄ and ``min_labels`` merges basis states into blocks.
``partial_transpose`` acts on an operator of a (left, right) bipartition,
factor 0 the slower index as in ``np.kron(A, B)``; only the product-space
reference negativity uses it.  All operators are complex128 ``numpy``
arrays.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotHermitianError, SizeError

#: absolute tolerance used when checking Hermiticity of inputs
HERMITICITY_ATOL = 1e-10
#: bytes one run may allocate for its largest arrays; every size guard counts against it
MEMORY_CAP = 256 * 2**20
#: entries of a − a† that ``require_hermitian`` forms at a time
_HERMITIAN_CHUNK = 2**15


@dataclass(frozen=True)
class BlockDensity:
    """A stack of density matrices held as the entries of their diagonal blocks.

    ``entries[s, m]`` is ρ_s[rows[m], cols[m]]; every other entry is zero.
    ``dynamics`` keeps ρ̄ in its block layout: block by block, each row-major.
    """

    entries: np.ndarray                   # (n_samples, Σ_b k_b²) complex
    rows: np.ndarray                      # (Σ_b k_b²,) basis row of each entry
    cols: np.ndarray                      # (Σ_b k_b²,) basis column of each entry


def whole(value, least: float, field: str, error: type = ConfigError) -> int:
    """``value`` as an int if it is a finite whole number >= ``least`` and not
    a bool (a whole float or NumPy number runs as its int); else ``error``
    naming ``field``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value))
    if integral and not isinstance(value, bool) and value >= least:
        return int(value)
    raise error(f"{field}: need an integer >= {least}, got {value!r}")


def real(value, field: str, least: float = -math.inf, *, above: float = -math.inf,
         below: float = math.inf) -> float:
    """``value`` as a float if it is a finite real number >= ``least``, >
    ``above`` and < ``below``, and not a bool; else ``ConfigError`` naming
    ``field``.  Text is not a number."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:             # an int beyond the float range
            pass
    if math.isfinite(x) and x >= least and above < x < below:
        return x
    if below < math.inf:
        rule = f"in ({above:g}, {below:g})"
    elif above == 0.0:
        rule = "positive and finite"
    else:
        rule = f"finite and >= {least:g}" if least > -math.inf else "a finite number"
    raise ConfigError(f"{field}: must be {rule}, got {value!r}")


def reals(values, field: str, **bounds) -> tuple:
    """Each of ``values`` as ``real`` takes it, naming ``field``."""
    return tuple(real(v, field, **bounds) for v in values)


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square, finite, C-contiguous complex128 matrix.

    Finiteness is read off the least and greatest float of the entries,
    which NaN propagates to, so the check forms no temporary of the
    matrix's size."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SizeError(f"expected a square matrix, got shape {a.shape}")
    flat = a.view(np.float64)
    if a.size and not (math.isfinite(flat.min()) and math.isfinite(flat.max())):
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


def partial_transpose(rho, dims, which: int = 1) -> np.ndarray:
    """Partial transpose over factor ``which`` (0 or 1) of an operator on a
    ``dims = (left, right)`` bipartition, or of each operator in a
    ``(..., d, d)`` stack."""
    if not isinstance(dims, (tuple, list)) or len(dims) != 2:
        raise SizeError(f"dims: need a pair of integers >= 1, got {dims!r}")
    da, db = (whole(d, 1, "dims", SizeError) for d in dims)
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2:] != (da * db, da * db):
        raise SizeError(f"expected a {da * db}-dim matrix or a stack of them for dims "
                        f"{dims!r}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if which not in (0, 1):
        raise SizeError(f"which must be 0 or 1, got {which}")
    lead = a.ndim - 2
    swap = (2, 1, 0, 3) if which == 0 else (0, 3, 2, 1)
    t = a.reshape(a.shape[:lead] + (da, db, da, db))
    t = t.transpose(tuple(range(lead)) + tuple(lead + k for k in swap))
    return np.ascontiguousarray(t.reshape(a.shape))
