"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jchsim.dynamics import TimeGrid, lindblad_evolve
from jchsim.model import (ModelParams, build_reduced_model, damped_sites,
                          site_operators)
from jchsim.observables import negativity_series, recommended_spacing

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random full-rank density matrix."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def two_site_model(hop: float, gamma: float, delta: float = 0.0,
                   n_max: int = 2):
    """Reduced two-site model with both excitations initially in one cavity."""
    params = ModelParams(n_sites=2, omega_a=delta, omega_c=0.0,
                         hop=hop, gamma=gamma, n_max=n_max)
    model = build_reduced_model(params, max_exc=2)
    return params, model, model.space.product_state(("2-", "G"))


def dense_stack(rho, dim: int) -> np.ndarray:
    """A ``BlockDensity``'s ``(n, dim, dim)`` stack, zero off its entries."""
    out = np.zeros((len(rho.entries), dim, dim), dtype=np.complex128)
    out[:, rho.rows, rho.cols] = rho.entries
    return out


def oracle_negativity(params, model, psi0, t_end: float):
    """Deterministic negativity trace on the classifier-ready grid."""
    grid = TimeGrid.with_spacing(t_end, recommended_spacing(params))
    rho0 = np.outer(psi0, psi0.conj())
    rhos = lindblad_evolve(model.h, model.collapse, rho0, grid)
    dims = (params.site_dim, params.site_dim)
    return grid, negativity_series(model.space.embed_density(rhos), dims)


# ---------------------------------------------------------------------------
# product-space references: the array from Kronecker products of site
# operators, which the reduced model must equal on its basis

def embed_site_operator(op: np.ndarray, site: int, params: ModelParams) -> np.ndarray:
    """A single-site operator on site ``site`` of the product space."""
    eye = np.eye(params.site_dim, dtype=np.complex128)
    out = np.ones((1, 1), dtype=np.complex128)
    for j in range(params.n_sites):
        out = np.kron(out, op if j == site else eye)
    return out


def build_full_hamiltonian(params: ModelParams) -> np.ndarray:
    """Local ``omega_a |e><e| + omega_c n + g_j (a^dag sigma^- + a sigma^+)``
    plus nearest-neighbour hopping ``J_j (a_j^dag a_{j+1} + h.c.)``."""
    ops = site_operators(params.n_max)
    h = np.zeros((params.dim, params.dim), dtype=np.complex128)
    for j in range(params.n_sites):
        jc = ops.a_dag @ ops.sigma_minus
        local = (params.omega_a * ops.excited + params.omega_c * ops.number
                 + params.g[j] * (jc + jc.conj().T))
        h += embed_site_operator(local, j, params)
    for j in range(params.n_sites - 1):
        term = (embed_site_operator(ops.a_dag, j, params)
                @ embed_site_operator(ops.a, j + 1, params))
        h += params.hop[j] * (term + term.conj().T)
    return h


def total_excitation_operator(params: ModelParams) -> np.ndarray:
    """Sum over sites of photon number plus atomic excitation."""
    ops = site_operators(params.n_max)
    return sum(embed_site_operator(ops.total_excitation, j, params)
               for j in range(params.n_sites))


def collapse_operators(params: ModelParams) -> list:
    """Photon leakage ``sqrt(gamma_j) a_j`` of each damped site."""
    a = site_operators(params.n_max).a
    return [np.sqrt(params.gamma[j]) * embed_site_operator(a, j, params)
            for j in damped_sites(params)]


def restrict(op: np.ndarray, space) -> np.ndarray:
    """A product-space operator's block on the reduced basis ``space``."""
    return op[np.ix_(space.full_indices, space.full_indices)]


def embed(v: np.ndarray, space) -> np.ndarray:
    """A reduced-basis vector in the product space."""
    out = np.zeros(space.full_dim, dtype=np.complex128)
    out[space.full_indices] = v
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260825)
