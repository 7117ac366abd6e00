"""Acceptance gate: one pass/fail line per headline behavior.

Every test prints a single `[PASS]`/`[FAIL]` summary line (bypassing pytest
capture) before asserting, so a plain run doubles as the acceptance report.
"""

from __future__ import annotations

import numpy as np
import pytest

from jchsim.checks import run_suite
from jchsim.config import CriticalitySweepConfig
from jchsim.critical import classify_point, gamma_c_curve
from jchsim.dynamics import TimeGrid, lindblad_evolve, no_jump_branch
from jchsim.model import (ModelParams, build_reduced_model,
                          hopping_coefficients,
                          prepare_product_polariton_state)
from jchsim.observables import (ProjectorSpec, blockade_beat_period,
                                classify_series, negativity,
                                recommended_spacing, reduced_bipartition)
from jchsim.presets import load_preset
from jchsim.runner import run_scenario


@pytest.fixture
def announce(capfd):
    """Emit one `[PASS]/[FAIL]` line per criterion past pytest's capture."""
    def _announce(num: int, name: str, passed: bool, detail: str) -> None:
        tag = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"[{tag}] criterion {num:2d} ({name}): {detail}", flush=True)
    return _announce


def projector_series(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", states.conj(), op, states).real


def density_series(rhos: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("nij,ji->n", rhos, op).real


def oracle_negativity_series(space, params, rhos, cut: int = 1) -> np.ndarray:
    site_dims = [params.site_dim] * params.n_sites
    values = []
    for rho in rhos:
        full = space.embed_density(rho)
        mat, dims = reduced_bipartition(full, site_dims, cut)
        values.append(negativity(mat, dims))
    return np.array(values)


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lossless_runs():
    """Undamped two-site pair dynamics at zero and strong detuning."""
    runs = {}
    for delta in (0.0, 0.9):
        params = ModelParams(n_sites=2, omega_a=delta, hop=0.03, n_max=2)
        model = build_reduced_model(params, max_exc=2)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(("2-", "G"), params))
        grid = TimeGrid.with_spacing(1500.0, 0.25)
        res = no_jump_branch(model.h, (), psi0, grid)
        pops = {name: projector_series(
                    res.states,
                    ProjectorSpec(preset=name).operator(params, model.space))
                for name in ("P20", "P02", "P11")}
        norms = np.sqrt(res.survival)
        runs[delta] = dict(params=params, grid=grid, pops=pops, norms=norms)
    return runs


@pytest.fixture(scope="module")
def trapping_bundle():
    """The damped two-site scenario: ensemble run + exact-evolution oracle."""
    config = load_preset("fig2").scenarios[0]
    result = run_scenario(config)

    params = config.model
    model = build_reduced_model(params, max_exc=config.max_excitation)
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(config.initial, params))
    rho0 = np.outer(psi0, psi0.conj())
    rhos = lindblad_evolve(model.h, model.collapse, rho0, config.grid)
    oracle_pops = {name: density_series(
                       rhos, ProjectorSpec(preset=name).operator(params, model.space))
                   for name in ("P20", "P02", "P11")}
    oracle_neg = oracle_negativity_series(model.space, params, rhos,
                                          config.bipartition_cut)
    return dict(config=config, result=result, params=params, rhos=rhos,
                oracle_pops=oracle_pops, oracle_neg=oracle_neg)


@pytest.fixture(scope="module")
def damping_sweep():
    config = CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06, 0.08))
    return gamma_c_curve(config)


@pytest.fixture(scope="module")
def size_scaling():
    """Matched-parameter no-jump branches for 2, 3, and 4 sites."""
    cases = {
        2: (("2-", "G"), "P20", "P11"),
        3: (("3-", "G", "G"), "P300", "P111"),
        4: (("4-", "G", "G", "G"), "P4000", "P1111"),
    }
    out = {}
    for n_sites, (labels, init_name, pinned_name) in cases.items():
        params = ModelParams(n_sites=n_sites, hop=0.03, gamma=0.05,
                             n_max=n_sites)
        model = build_reduced_model(params, max_exc=n_sites)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(labels, params))
        grid = TimeGrid.with_spacing(1500.0, 2.5)
        ops = {"init": ProjectorSpec(preset=init_name).operator(params, model.space),
               "pinned": ProjectorSpec(preset=pinned_name).operator(params, model.space)}
        branch = no_jump_branch(model.h, model.collapse, psi0, grid,
                                observables=ops)
        pinned = branch.observables["pinned"]
        t_half = grid.times[np.argmax(pinned >= 0.5 * pinned.max())]
        absolute_init = branch.survival * branch.observables["init"]
        steepness = float(np.abs(np.gradient(absolute_init, grid.times)).max())
        out[n_sites] = dict(t_half=float(t_half), steepness=steepness)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_pair_hopping_blockade(announce, lossless_runs):
    run = lossless_runs[0.0]
    max_p11 = float(run["pops"]["P11"].max())
    max_p02 = float(run["pops"]["P02"].max())
    passed = max_p11 <= 0.01
    announce(1, "pair-hopping blockade", passed,
             f"max P11 = {max_p11:.2e} <= 0.01 while the pair exchanges "
             f"(max P02 = {max_p02:.3f})")
    assert passed


def test_criterion_02_detuning_speeds_transfer(announce, lossless_runs):
    crossing = {}
    for delta, run in lossless_runs.items():
        below = run["pops"]["P20"] < 0.5
        assert below.any(), f"P20 never drops below 0.5 at detuning {delta}"
        crossing[delta] = float(run["grid"].times[np.argmax(below)])
    max_p11_detuned = float(lossless_runs[0.9]["pops"]["P11"].max())
    faster = crossing[0.9] < crossing[0.0]
    leaky = max_p11_detuned > 0.01
    announce(2, "detuning speeds pair transfer", faster and leaky,
             f"P20 < 0.5 at t = {crossing[0.9]:.2f} (detuned) vs "
             f"{crossing[0.0]:.2f} (resonant); detuned max P11 = "
             f"{max_p11_detuned:.3f} > 0.01")
    assert faster
    assert leaky


def test_criterion_03_coefficient_growth_with_detuning(announce):
    grid = (0.0, 0.3, 0.6, 0.9, 1.5, 3.0)
    c1 = [hopping_coefficients(1, d, 1.0).c_minus for d in grid]
    c2 = [hopping_coefficients(2, d, 1.0).c_minus for d in grid]
    increasing = all(b > a for a, b in zip(c1, c1[1:])) and \
        all(b > a for a, b in zip(c2, c2[1:]))
    announce(3, "transfer coefficients grow with detuning", increasing,
             f"c1- spans {c1[0]:.4f}..{c1[-1]:.4f}, "
             f"c2- spans {c2[0]:.4f}..{c2[-1]:.4f} over detuning 0..3")
    assert increasing


def test_criterion_04_dressed_basis_mapping_exact(announce):
    report = run_suite("mapping")
    coeffs = hopping_coefficients(2, 0.0, 1.0)
    k2_ok = abs(abs(coeffs.k_minus) - 0.2071) <= 1e-3
    c2_ok = (abs(coeffs.c_minus - 1.2071) <= 1e-3
             and abs(coeffs.c_plus - 1.2071) <= 1e-3)
    recon = report.items[0]
    passed = report.passed and k2_ok and c2_ok
    announce(4, "dressed-basis mapping exactness", passed,
             f"worst reconstruction residual = {recon.measured:.2e} <= 1e-10; "
             f"k2 = {abs(coeffs.k_minus):.4f}, c2 = {coeffs.c_minus:.4f}")
    assert report.passed
    assert k2_ok and c2_ok


def test_criterion_05_ensemble_matches_exact_evolution(announce, trapping_bundle):
    result = trapping_bundle["result"]
    worst = {}
    ok = True
    for name in ("P20", "P11"):
        dev = np.abs(result.columns[name] - trapping_bundle["oracle_pops"][name])
        allowed = np.maximum(3.0 * result.columns[f"{name}_stderr"], 0.02)
        worst[name] = float((dev / allowed).max())
        ok &= bool(np.all(dev <= allowed))
    neg_dev = float(np.abs(result.columns["negativity"]
                           - trapping_bundle["oracle_neg"]).max())
    ok &= neg_dev <= 0.02
    announce(5, "trajectory ensemble matches exact evolution", ok,
             f"worst P20 dev = {worst['P20']:.2f}x allowance, "
             f"worst P11 dev = {worst['P11']:.2f}x, "
             f"negativity dev = {neg_dev:.3f} <= 0.02 "
             f"(n_traj = {result.config.n_traj})")
    assert ok


def test_criterion_06_trapping_with_single_entanglement_peak(announce, trapping_bundle):
    config = trapping_bundle["config"]
    times = config.grid.times
    report = classify_series(trapping_bundle["oracle_neg"], times,
                             beat_period=blockade_beat_period(config.model))
    single = report.classification.kind == "SinglePeak"

    cond_p11 = trapping_bundle["result"].columns["P11_cond"]
    t_neg_peak = float(report.peak_times[np.argmax(report.peak_heights)])
    t_p11_peak = float(times[np.argmax(cond_p11)])
    ordered = t_p11_peak > t_neg_peak
    plateau = float(cond_p11[-1] / cond_p11.max())
    slow_decay = plateau > 0.9

    passed = single and ordered and slow_decay
    announce(6, "loss-triggered trapping, single entanglement peak", passed,
             f"classification = {report.classification}, entanglement peak at "
             f"t = {t_neg_peak:.1f}, pinned-state max at t = {t_p11_peak:.1f}, "
             f"end/max = {plateau:.3f} > 0.9")
    assert single
    assert ordered
    assert slow_decay


def test_criterion_07_revival_regimes_across_damping(announce):
    config = CriticalitySweepConfig(j_values=(0.02, 0.04, 0.06, 0.08))
    below = classify_point(config, 0.06, 0.02)
    above = classify_point(config, 0.06, 0.06)
    multi_ok = below.report.classification.kind == "MultiPeak" and \
        below.report.classification.count >= 2
    single_ok = above.report.classification.kind == "SinglePeak"
    announce(7, "revivals below / single peak above the transition",
             multi_ok and single_ok,
             f"damping 0.02: {below.report.classification}; "
             f"damping 0.06: {above.report.classification}")
    assert multi_ok
    assert single_ok


def test_criterion_08_critical_damping_law(announce, damping_sweep):
    ratios = {est.hop: est.ratio for est in damping_sweep.estimates}
    ratios_ok = all(r is not None and 0.7 <= r <= 1.3 for r in ratios.values())
    slope_ok = 0.7 <= damping_sweep.slope <= 1.3
    unflagged = all("not_bracketed" not in est.flags
                    and "non_monotonic" not in est.flags
                    for est in damping_sweep.estimates)
    passed = ratios_ok and slope_ok and unflagged
    pretty = ", ".join(f"J={j:g}: {r:.2f}" for j, r in sorted(ratios.items()))
    announce(8, "critical damping tracks the hopping rate", passed,
             f"gamma_c/J per point [{pretty}], fitted slope = "
             f"{damping_sweep.slope:.3f} in [0.7, 1.3]")
    assert ratios_ok
    assert slope_ok
    assert unflagged


def test_criterion_09_larger_arrays_trap_later_and_steeper(announce, size_scaling):
    t_half = [size_scaling[n]["t_half"] for n in (2, 3, 4)]
    steep = [size_scaling[n]["steepness"] for n in (2, 3, 4)]
    later = t_half[0] < t_half[1] < t_half[2]
    steeper = steep[0] < steep[1] < steep[2]
    announce(9, "bigger arrays pin later but empty faster", later and steeper,
             f"t_half = {t_half[0]:.0f} < {t_half[1]:.0f} < {t_half[2]:.0f}; "
             f"max |d/dt P_init| = {steep[0]:.3f} < {steep[1]:.3f} < "
             f"{steep[2]:.3f} for 2, 3, 4 sites")
    assert later
    assert steeper


def test_criterion_10_numerical_hygiene(announce, lossless_runs, trapping_bundle, tmp_path):
    # halved-step agreement, deterministic artifacts, conserved structure
    params = trapping_bundle["params"]
    model = build_reduced_model(params, max_exc=2)
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(("2-", "G"), params))
    rho0 = np.outer(psi0, psi0.conj())
    spacing = recommended_spacing(params)
    coarse = TimeGrid.with_spacing(150.0, spacing, dt=0.005)
    fine = TimeGrid.with_spacing(150.0, spacing, dt=0.0025)
    drift = float(np.abs(lindblad_evolve(model.h, model.collapse, rho0, coarse)
                         - lindblad_evolve(model.h, model.collapse, rho0, fine)).max())
    drift_ok = drift < 1e-6

    rhos = trapping_bundle["rhos"]
    trace_dev = float(np.abs(np.einsum("nii->n", rhos) - 1.0).max())
    herm_dev = float(np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max())
    # norm roundoff accumulates linearly over the 3e5 fixed steps of the
    # undamped run, so its budget is looser than the short-horizon checks
    norm_dev = float(np.abs(lossless_runs[0.0]["norms"] - 1.0).max())
    structure_ok = trace_dev < 1e-10 and herm_dev < 1e-10 and norm_dev < 1e-9

    preset = load_preset("fig3").with_overrides(n_traj=50)
    first = run_scenario(preset.scenarios[0], out_dir=tmp_path / "a")
    second = run_scenario(preset.scenarios[0], out_dir=tmp_path / "b")
    identical = (first.table_path.read_bytes() == second.table_path.read_bytes()
                 and first.sidecar_path.read_bytes()
                 == second.sidecar_path.read_bytes())

    passed = drift_ok and structure_ok and identical
    announce(10, "numerical hygiene", passed,
             f"halved-step drift = {drift:.1e} < 1e-6; trace dev = "
             f"{trace_dev:.1e}, hermiticity dev = {herm_dev:.1e}, norm dev = "
             f"{norm_dev:.1e}; repeated preset run byte-identical = {identical}")
    assert drift_ok
    assert structure_ok
    assert identical
