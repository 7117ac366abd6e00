"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jchsim.dynamics import TimeGrid, lindblad_evolve
from jchsim.linalg import TensorDims
from jchsim.model import (ModelParams, build_reduced_model,
                          prepare_product_polariton_state)
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
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(("2-", "G"), params))
    return params, model, psi0


def oracle_negativity(params, model, psi0, t_end: float):
    """Deterministic negativity trace on the classifier-ready grid."""
    grid = TimeGrid.with_spacing(t_end, recommended_spacing(params))
    rho0 = np.outer(psi0, psi0.conj())
    rhos = lindblad_evolve(model.h, model.collapse, rho0, grid)
    dims = TensorDims((params.site_dim, params.site_dim))
    return grid, negativity_series(model.space.embed_density(rhos), dims)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260825)
