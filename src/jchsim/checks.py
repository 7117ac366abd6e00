"""On-demand validation suites with machine-readable reports.

Three suites:

``mapping``   the dressed-basis photon creation operator rebuilt from the
              doublet coefficients must equal the change-of-basis transform
              of the bare operator entrywise (several cutoffs/detunings),
              and the n = 2 coefficient values at zero detuning must hit
              their closed-form targets.
``analytic``  integrator against closed forms: damped-cavity photon number
              e^(-gamma t), vacuum Rabi oscillation cos^2(g t), and strict
              growth of the dressed ladder coefficients with detuning.
``oracle``    the table ``run_scenario`` returns for the damped two-site
              transfer scenario against the deterministic master-equation
              solution, pointwise within max(3 standard errors, 0.02).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import apply_overrides, scenario_from_mapping
from .dynamics import TimeGrid, lindblad_evolve, no_jump_branch
from .errors import ConfigError
from .model import (
    ModelParams,
    build_reduced_model,
    hopping_coefficients,
    site_operators,
    transform_to_dressed_basis,
    creation_in_polariton_basis,
)
from .observables import block_negativity
from .runner import run_scenario

__all__ = ["CheckItem", "CheckReport", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("mapping", "analytic", "oracle")


@dataclass(frozen=True)
class CheckItem:
    """One named check: a measured value against its bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def to_mapping(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "bound": self.bound,
                "detail": self.detail}


@dataclass(frozen=True)
class CheckReport:
    """All items of one suite; passes only if every item passes."""

    suite: str
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_mapping(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "items": [item.to_mapping() for item in self.items]}

    def summary_lines(self) -> list:
        lines = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            lines.append(f"[{status}] {item.name}: measured {item.measured:.3e}"
                         f" vs bound {item.bound:.3e}"
                         + (f" ({item.detail})" if item.detail else ""))
        lines.append(f"suite {self.suite}: "
                     + ("PASS" if self.passed else "FAIL"))
        return lines


# ---------------------------------------------------------------------------
# mapping suite

def _mapping_items() -> list:
    items = []
    worst = 0.0
    worst_at = ""
    for n_max in (1, 2, 3):
        for delta in (0.0, 0.9, 2.0):
            params = ModelParams(n_sites=1, omega_a=delta, omega_c=0.0,
                                 n_max=n_max)
            rebuilt = creation_in_polariton_basis(params)
            oracle = transform_to_dressed_basis(site_operators(n_max).a_dag,
                                                params)
            # the lone bare state beyond the cutoff is excluded by contract
            trunc = params.site_dim - 1
            mask = np.ones_like(oracle, dtype=bool)
            mask[trunc, :] = mask[:, trunc] = False
            dev = float(np.abs((rebuilt - oracle) * mask).max())
            if dev > worst:
                worst, worst_at = dev, f"n_max={n_max}, detuning={delta}"
    items.append(CheckItem(
        name="creation-operator reconstruction",
        passed=worst <= 1e-10, measured=worst, bound=1e-10,
        detail=f"worst at {worst_at}" if worst_at else ""))

    co = hopping_coefficients(2, 0.0)
    dev_k = abs(co.k_plus - 0.2071)
    items.append(CheckItem(
        name="branch-mixing coefficient k2 at zero detuning",
        passed=dev_k <= 1e-3, measured=co.k_plus, bound=0.2071,
        detail="target 0.2071 within 1e-3"))
    dev_c = max(abs(co.c_plus - 1.2071), abs(co.c_minus - 1.2071))
    items.append(CheckItem(
        name="branch-preserving coefficients c2 at zero detuning",
        passed=dev_c <= 1e-3, measured=co.c_minus, bound=1.2071,
        detail="target 1.2071 within 1e-3"))
    return items


# ---------------------------------------------------------------------------
# analytic suite

def _decay_item() -> CheckItem:
    gamma, n0, dim = 0.25, 2, 4
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(np.complex128)
    number = a.conj().T @ a
    h = np.zeros((dim, dim), dtype=np.complex128)
    rho0 = np.zeros((dim, dim), dtype=np.complex128)
    rho0[n0, n0] = 1.0
    grid = TimeGrid(t_end=20.0, n_samples=201, dt=0.005)
    rhos = lindblad_evolve(h, [np.sqrt(gamma) * a], rho0, grid)
    mean_n = np.einsum("kij,ji->k", rhos, number).real
    target = n0 * np.exp(-gamma * grid.times)
    dev = float(np.abs(mean_n - target).max())
    return CheckItem(name="damped-cavity photon number vs exp(-gamma t)",
                     passed=dev <= 1e-6, measured=dev, bound=1e-6)


def _rabi_item() -> CheckItem:
    model = build_reduced_model(ModelParams(n_sites=1, n_max=1), max_exc=1)
    psi0 = np.zeros(model.dim, dtype=np.complex128)
    psi0[model.space.index_of(np.array([[[0, 1]]]))] = 1.0   # |0 photons, atom excited>
    grid = TimeGrid(t_end=30.0, n_samples=301, dt=0.005)
    result = no_jump_branch(model.h, (), psi0, grid)
    excited = np.diag(model.space.states[:, 0, 1]).astype(np.complex128)
    pop = np.einsum("ni,ij,nj->n", result.states.conj(), excited,
                    result.states).real
    target = np.cos(grid.times) ** 2
    dev = float(np.abs(pop - target).max())
    return CheckItem(name="vacuum Rabi oscillation vs cos^2(g t)",
                     passed=dev <= 1e-6, measured=dev, bound=1e-6)


def _coefficient_growth_item() -> CheckItem:
    deltas = (0.0, 0.3, 0.6, 0.9, 1.5, 3.0)
    c1 = [hopping_coefficients(1, d).c_minus for d in deltas]
    c2 = [hopping_coefficients(2, d).c_minus for d in deltas]
    inc1 = all(b > a for a, b in zip(c1, c1[1:]))
    inc2 = all(b > a for a, b in zip(c2, c2[1:]))
    margin = min([b - a for a, b in zip(c1, c1[1:])]
                 + [b - a for a, b in zip(c2, c2[1:])])
    return CheckItem(name="dressed ladder coefficients grow with detuning",
                     passed=inc1 and inc2, measured=float(margin), bound=0.0,
                     detail="smallest successive increment on the grid")


def _analytic_items() -> list:
    return [_decay_item(), _rabi_item(), _coefficient_growth_item()]


# ---------------------------------------------------------------------------
# oracle suite

def _oracle_items(**overrides) -> list:
    config = apply_overrides(scenario_from_mapping({
        "model": {"n_sites": 2, "n_max": 2, "hop": 0.03, "gamma": 0.05},
        "initial": {"labels": "2-, G"},
        "grid": {"t_end": 1500.0, "spacing": "auto"},
        "run": {"n_traj": 2000, "master_seed": 20260825},
        "observables": {"projectors": "P20, P11", "negativity": True},
        "output": {"name": "oracle-suite"},
    }), **overrides)
    run = run_scenario(config)
    params = config.model
    model = build_reduced_model(params, max_exc=config.max_excitation)
    psi0 = model.space.product_state(config.initial)
    ops = {spec.name: spec.operator(params, model.space)
           for spec in config.observables}
    rho0 = np.outer(psi0, psi0.conj())
    rhos = lindblad_evolve(model.h, model.collapse, rho0, config.grid)

    items = []
    floor = 0.02
    for name in ("P20", "P11"):
        exact = np.einsum("kij,ji->k", rhos, ops[name]).real
        dev = np.abs(run.columns[name] - exact)
        allowed = np.maximum(3.0 * run.columns[f"{name}_stderr"], floor)
        ratio = float((dev / allowed).max())
        items.append(CheckItem(
            name=f"trajectory mean vs master equation: {name}",
            passed=ratio <= 1.0, measured=ratio, bound=1.0,
            detail=f"worst dev/allowed over {len(exact)} samples, "
                   f"{config.n_traj} trajectories"))

    neg_exact = block_negativity(rhos, model.space, config.bipartition_cut)
    dev = float(np.abs(run.columns["negativity"] - neg_exact).max())
    items.append(CheckItem(
        name="trajectory-averaged negativity vs master equation",
        passed=dev <= floor, measured=dev, bound=floor,
        detail=f"{config.n_traj} trajectories"))
    return items


def run_suite(name: str, n_traj: Optional[int] = None,
              master_seed: Optional[int] = None) -> CheckReport:
    """Run one validation suite and return its report.

    ``n_traj`` and ``master_seed``, when set, override the trajectory count
    and the seed of the ``oracle`` suite's scenario; the other suites run no
    trajectories and reject them.
    """
    if name not in SUITE_NAMES:
        raise ConfigError([f"suite: unknown name {name!r}; "
                           f"known: {list(SUITE_NAMES)}"])
    if name == "oracle":
        items = _oracle_items(n_traj=n_traj, master_seed=master_seed)
    else:
        unused = [key for key, value in (("n_traj", n_traj), ("master_seed", master_seed))
                  if value is not None]
        if unused:
            raise ConfigError([f"{key}: suite {name!r} runs no trajectories"
                               for key in unused])
        items = _mapping_items() if name == "mapping" else _analytic_items()
    return CheckReport(suite=name, items=tuple(items))
