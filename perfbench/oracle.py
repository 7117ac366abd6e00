"""Reference computations for the benchmark's correctness checks.

Everything here is built independently of ``jchsim``: the array
Hamiltonian and the photon-loss operators come from sparse Kronecker products
of single-site operators in the bare product basis, dressed states from
diagonalising one site, the density matrix from ``scipy.linalg.expm`` of the
Lindblad superoperator and the no-jump branch from ``expm_multiply``.  The
site basis order is (atom, photon) and differs from the program's on purpose:
only basis-free numbers (populations, norms, negativity, traces) are compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply


@dataclass(frozen=True)
class BareModel:
    """An excitation-restricted copy of the array model.

    ``keep`` lists the product-basis indices with total excitation at most
    ``max_exc`` (H conserves the excitation number and loss lowers it, so the
    restriction is exact); ``n_exc`` is the excitation of each kept state.
    """

    n_sites: int
    n_max: int
    h: np.ndarray                 # (d, d) restricted Hamiltonian
    collapse: tuple               # (d, d) restricted loss operators
    keep: np.ndarray              # kept product-basis indices
    n_exc: np.ndarray             # excitation number of each kept state
    site_h: np.ndarray            # single-site Hamiltonian (dense)
    site_n: np.ndarray            # single-site excitation number (diagonal)

    @property
    def site_dim(self) -> int:
        return 2 * (self.n_max + 1)

    def product_state(self, labels) -> np.ndarray:
        """Restricted vector of a product of dressed site states."""
        vec = np.ones(1, dtype=np.complex128)
        for label in labels:
            vec = np.kron(vec, self._dressed(label))
        out = vec[self.keep]
        if abs(np.vdot(out, out).real - 1.0) > 1e-12:
            raise ValueError(f"state {labels} leaves the excitation subspace")
        return out

    def _dressed(self, label: str) -> np.ndarray:
        """'G' or 'n-'/'n+': site eigenstate with n excitations, lower/upper."""
        if label == "G":
            n, branch = 0, 0
        else:
            n, branch = int(label[:-1]), (0 if label[-1] == "-" else 1)
        idx = np.flatnonzero(self.site_n == n)
        _, vecs = np.linalg.eigh(self.site_h[np.ix_(idx, idx)])
        out = np.zeros(self.site_dim, dtype=np.complex128)
        out[idx] = vecs[:, branch]
        return out

    def embed(self, rho: np.ndarray) -> np.ndarray:
        full = self.site_dim ** self.n_sites
        out = np.zeros((full, full), dtype=np.complex128)
        out[np.ix_(self.keep, self.keep)] = rho
        return out


def bare_model(n_sites: int, n_max: int, hop: float, gamma: float,
               max_exc: int, g: float = 1.0, omega_a: float = 0.0,
               omega_c: float = 0.0) -> BareModel:
    """JCH chain: ω_a σ⁺σ⁻ + ω_c a†a + g(a†σ⁻ + aσ⁺) per site, J(a†_j a_j+1 + h.c.)."""
    ph = n_max + 1
    a_ph = sp.diags(np.sqrt(np.arange(1, ph)), 1, format="csr")
    eye_ph = sp.identity(ph, format="csr")
    lower = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))   # |g><e|
    eye_at = sp.identity(2, format="csr")
    a = sp.kron(eye_at, a_ph, format="csr")
    sm = sp.kron(lower, eye_ph, format="csr")
    num = (a.T @ a + sm.T @ sm).tocsr()
    site_h = (omega_a * (sm.T @ sm) + omega_c * (a.T @ a)
              + g * (a.T @ sm + sm.T @ a)).tocsr()

    site_dim = 2 * ph
    eye_site = sp.identity(site_dim, format="csr")

    def on(op, j):
        out = sp.identity(1, format="csr")
        for k in range(n_sites):
            out = sp.kron(out, op if k == j else eye_site, format="csr")
        return out

    h = sum(on(site_h, j) for j in range(n_sites))
    for j in range(n_sites - 1):
        hop_term = on(a, j).T @ on(a, j + 1)
        h = h + hop * (hop_term + hop_term.T)
    n_total = sum(on(num, j) for j in range(n_sites)).diagonal().real
    keep = np.flatnonzero(n_total <= max_exc + 0.5)

    def restrict(op):
        return op.tocsr()[keep][:, keep].toarray().astype(np.complex128)

    collapse = tuple(math.sqrt(gamma) * restrict(on(a, j))
                     for j in range(n_sites)) if gamma > 0 else ()
    return BareModel(n_sites=n_sites, n_max=n_max, h=restrict(h),
                     collapse=collapse, keep=keep,
                     n_exc=np.rint(n_total[keep]).astype(int),
                     site_h=site_h.toarray(),
                     site_n=np.rint(num.diagonal().real).astype(int))


def superoperator(model: BareModel) -> np.ndarray:
    """Lindblad generator on row-major vec(ρ): vec(AρB) = (A ⊗ Bᵀ) vec(ρ)."""
    d = model.h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(model.h, eye) - np.kron(eye, model.h.T))
    for op in model.collapse:
        ldl = op.conj().T @ op
        sup += np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def master_equation(model: BareModel, psi0: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """ρ(t) at uniformly spaced ``times`` (from 0), as an (n, d, d) stack.

    One ``expm`` of the superoperator over the sample spacing, applied sample
    after sample.
    """
    d = model.h.shape[0]
    step = expm(superoperator(model) * _uniform_spacing(times))
    out = np.empty((len(times), d, d), dtype=np.complex128)
    vec = np.outer(psi0, psi0.conj()).reshape(-1)
    for k in range(len(times)):
        out[k] = vec.reshape(d, d)
        vec = step @ vec
    return out


def no_jump_branch(model: BareModel, psi0: np.ndarray, times: np.ndarray):
    """Jump-free evolution restricted to the initial state's excitation sector.

    Returns (survival, sector index array, sector states); a jump always
    lowers the excitation, so the top-sector generator H − (i/2)ΣL†L
    restricted to that sector is the whole no-jump dynamics.
    """
    n0 = int(model.n_exc[np.argmax(np.abs(psi0))])
    top = np.flatnonzero(model.n_exc == n0)
    gen = model.h.copy()
    for op in model.collapse:
        gen -= 0.5j * (op.conj().T @ op)
    gen_top = gen[np.ix_(top, top)]
    _uniform_spacing(times)
    states = expm_multiply(-1j * gen_top, psi0[top], start=float(times[0]),
                           stop=float(times[-1]), num=len(times), endpoint=True)
    survival = np.einsum("ni,ni->n", states.conj(), states).real
    return survival, top, states, np.linalg.norm(gen_top, 2)


def negativity(rho_full: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over B."""
    pt = rho_full.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 3, 2, 1)
    eigs = np.linalg.eigvalsh(pt.reshape(dim_a * dim_b, dim_a * dim_b))
    return float(-eigs[eigs < 0.0].sum())


def _uniform_spacing(times: np.ndarray) -> float:
    spacing = (times[-1] - times[0]) / (len(times) - 1)
    if times[0] != 0.0 or np.max(np.abs(np.diff(times) - spacing)) > 1e-9 * times[-1]:
        raise ValueError("times must be a uniform grid starting at 0")
    return float(spacing)
