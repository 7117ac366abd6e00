"""Integrators and trajectory machinery against closed forms and invariants."""

from __future__ import annotations

import dataclasses
import functools
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from jchsim import dynamics, linalg, model as model_module
from jchsim.dynamics import (TimeGrid, _batched_expectation, _block_observables,
                             _build_machinery, _crossing_time, _flow_norm2_poly, _parts,
                             _real_generator, _reduce, _taylor_flow, block_structure,
                             lindblad_evolve, mcwf_ensemble, mcwf_trajectory,
                             no_jump_branch)
from jchsim.errors import ConfigError, IntegratorError, NotHermitianError, SizeError
from jchsim.model import (ModelParams, ReducedSpace, build_reduced_model, excitation_basis,
                          prepare_product_polariton_state, site_operators)
from jchsim.observables import ProjectorSpec, block_negativity
from jchsim.presets import load_preset
from jchsim.runner import run_scenario

from conftest import (build_full_hamiltonian, dense_stack, poly_value, restrict,
                      total_excitation_operator, two_site_model)


def damped_mode(dim=4, gamma=0.25):
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(np.complex128)
    h = np.zeros((dim, dim), dtype=np.complex128)
    return h, [np.sqrt(gamma) * a], a


def dark_block_model(gamma=0.3):
    """|e> decays into {|g1>, |g2>}, which H mixes and no channel leaves."""
    h = np.array([[1.0, 0.0, 0.0], [0.0, 0.2, 0.7], [0.0, 0.7, -0.4]],
                 dtype=np.complex128)
    lower = np.zeros((3, 3), dtype=np.complex128)
    lower[1, 0] = np.sqrt(gamma)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    return h, [lower], psi0


def preset_problem(name):
    """Model, initial state and grid of a scenario preset."""
    config = load_preset(name).scenarios[0]
    model = build_reduced_model(config.model, max_exc=config.max_excitation)
    psi0 = model.space.reduce_vector(
        prepare_product_polariton_state(config.initial, config.model))
    return config, model, psi0


def preset_projectors(config, model):
    return {spec.name: spec.operator(config.model, model.space)
            for spec in config.observables}


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / (2.0 * np.sqrt(dim))


def dense_reference_trajectory(h, collapse, psi0, grid, seed):
    """The waiting-time trajectory on the full space, written out plainly.

    Full d x d propagators, one sample interval at a time; a crossing is
    redone in dyadic blocks of dt steps and bisected inside its step; same
    draws, same threshold floor 2^-53.  Returns the normalized rows and the
    jumps.
    """
    d = len(psi0)
    gen = -1j * h
    for op in collapse:
        gen = gen - 0.5 * (op.conj().T @ op)
    eye = np.eye(d)
    m = grid.dt * gen
    r_dt = eye + m @ (eye + (m / 2.0) @ (eye + (m / 3.0) @ (eye + m / 4.0)))
    pows = [r_dt]
    while len(pows) < grid.n_fine.bit_length():
        pows.append(pows[-1] @ pows[-1])
    r_stride = np.linalg.matrix_power(r_dt, grid.n_fine)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def norm2(v):
        return np.vdot(v, v).real

    def threshold():
        r = rng.random()
        return max(r, 2.0 ** -53)

    def flow(ps, tau):
        return ps[0] + tau * (ps[1] + (tau / 2.0) * (ps[2] + (tau / 3.0) * (
            ps[3] + (tau / 4.0) * ps[4])))

    r = threshold()
    work = psi0
    rows = [work / np.sqrt(norm2(work))]
    jumps = []
    for s in range(1, grid.n_samples):
        cand = r_stride @ work
        if norm2(cand) > r:
            work = cand
        else:
            done = 0
            while done < grid.n_fine:
                for p in range((grid.n_fine - done).bit_length() - 1, -1, -1):
                    if norm2(pows[p] @ work) > r:
                        work = pows[p] @ work
                        done += 1 << p
                        break
                else:
                    t0 = (s - 1) * grid.spacing + done * grid.dt
                    t_in = 0.0
                    while True:
                        ps = [work]
                        for _ in range(4):
                            ps.append(gen @ ps[-1])
                        if norm2(flow(ps, grid.dt - t_in)) > r:
                            work = flow(ps, grid.dt - t_in)
                            break
                        lo, hi = 0.0, grid.dt - t_in
                        while hi - lo > 1e-10:
                            mid = 0.5 * (lo + hi)
                            lo, hi = (mid, hi) if norm2(flow(ps, mid)) > r else (lo, mid)
                        tau = 0.5 * (lo + hi)
                        jumped = [op @ flow(ps, tau) for op in collapse]
                        acc = np.cumsum([norm2(v) for v in jumped])
                        chan = min(int(np.searchsorted(acc, rng.random() * acc[-1],
                                                       side="right")), len(acc) - 1)
                        work = jumped[chan] / np.sqrt(norm2(jumped[chan]))
                        jumps.append((t0 + t_in + tau, chan))
                        r = threshold()
                        t_in += tau
                    done += 1
        rows.append(work / np.sqrt(norm2(work)))
    return np.array(rows), jumps


class TestTimeGrid:
    def test_basic_properties(self):
        grid = TimeGrid(t_end=10.0, n_samples=101, dt=0.005)
        assert grid.t_end == 10.0
        assert grid.spacing == pytest.approx(0.1)
        assert grid.n_fine == 20
        assert len(grid.times) == 101
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(10.0)

    def test_every_grid_starts_at_zero(self):
        # the start is a class constant that no constructor takes
        assert TimeGrid.t_start == 0.0
        assert "t_start" not in {f.name for f in dataclasses.fields(TimeGrid)}
        assert TimeGrid(t_end=10.0, n_samples=6).times[0] == 0.0
        assert TimeGrid.with_spacing(10.0, 2.0).times[0] == 0.0
        with pytest.raises(TypeError):
            TimeGrid(t_end=10.0, n_samples=6, t_start=0.0)
        with pytest.raises(TypeError):
            TimeGrid.with_spacing(10.0, 2.0, t_start=0.0)

    def test_with_spacing_snaps_to_step_lattice(self):
        grid = TimeGrid.with_spacing(150.0, 2.6801)
        assert grid.spacing == pytest.approx(2.68)
        assert grid.spacing / grid.dt == pytest.approx(round(grid.spacing / grid.dt))

    @pytest.mark.parametrize("kwargs", [
        dict(t_end=0.0, n_samples=10),
        dict(t_end=1.0, n_samples=1),
        dict(t_end=1.0, n_samples=11, dt=0.5),      # dt above max_dt
        dict(t_end=1.0, n_samples=4, dt=0.005),     # spacing off the dt lattice
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TimeGrid(**kwargs)

    @pytest.mark.parametrize("n_samples, stored", [
        (5.0, 5), (np.float64(5.0), 5),
        (math.nan, None), (math.inf, None), ("5", None), (5.5, None),
    ])
    def test_n_samples_stored_as_int_or_refused(self, n_samples, stored):
        if stored is None:
            with pytest.raises(ConfigError) as err:
                TimeGrid(t_end=5.0, n_samples=n_samples)
            assert err.value.problems == [f"n_samples: need an integer >= 2, got {n_samples!r}"]
            return
        grid = TimeGrid(t_end=5.0, n_samples=n_samples)
        assert type(grid.n_samples) is int and grid.n_samples == stored
        # every evolution takes the grid's sample count as a length
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        assert len(no_jump_branch(h, collapse, psi0, grid).survival) == 5
        assert len(mcwf_ensemble(h, collapse, psi0, grid, n_traj=2, master_seed=0,
                                 keep_rho=True).rho_blocks.entries) == 5
        assert lindblad_evolve(h, collapse, np.outer(psi0, psi0), grid).shape == (5, 4, 4)

    def test_spacing_of_one_step_allowed_below_one_step_rejected(self):
        grid = TimeGrid(t_end=0.01, n_samples=3, dt=0.005)
        assert grid.n_fine == 1
        # spacing/dt = 2e-7 passes the integer-ratio test; n_fine would be 0
        with pytest.raises(ConfigError) as err:
            TimeGrid(t_end=1e-9, n_samples=2, dt=0.005)
        assert [p.split(":")[0] for p in err.value.problems] == ["dt"]


class TestUnitary:
    def test_vacuum_rabi_cosine_squared(self):
        params = ModelParams(n_sites=1, n_max=1)
        h = build_full_hamiltonian(params)
        psi0 = np.zeros(params.dim, dtype=np.complex128)
        psi0[params.n_max + 1] = 1.0
        grid = TimeGrid(t_end=25.0, n_samples=251, dt=0.005)
        res = no_jump_branch(h, (), psi0, grid)
        excited = site_operators(params.n_max).excited
        pop = np.einsum("ni,ij,nj->n", res.states.conj(), excited,
                        res.states).real
        assert np.abs(pop - np.cos(grid.times) ** 2).max() < 1e-8

    def test_norm_and_energy_conserved(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.0)
        grid = TimeGrid(t_end=200.0, n_samples=101, dt=0.005)
        res = no_jump_branch(model.h, (), psi0, grid)
        norms = np.sqrt(res.survival)
        assert np.abs(norms - 1.0).max() < 1e-10
        energy = np.einsum("ni,ij,nj->n", res.states.conj(), model.h,
                           res.states).real
        assert np.abs(energy - energy[0]).max() < 1e-10

    def test_halved_step_agrees(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.0)
        grid = TimeGrid(t_end=100.0, n_samples=51, dt=0.005)
        fine = TimeGrid(t_end=100.0, n_samples=51, dt=0.0025)
        a = no_jump_branch(model.h, (), psi0, grid).states
        b = no_jump_branch(model.h, (), psi0, fine).states
        assert np.abs(a - b).max() < 1e-6

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            no_jump_branch(np.array([[0.0, 1.0], [0.0, 0.0]]), (),
                           np.array([1.0, 0.0], dtype=np.complex128),
                           TimeGrid(t_end=1.0, n_samples=3, dt=0.005))


def detuned_survival_error(delta: float) -> float:
    """Largest |survival − ‖e^{−iH_eff t}ψ0‖²| of ``no_jump_branch`` on fig2's
    model at detuning ``delta``, over t_end 300 at spacing 2.68 and dt 0.005."""
    _, model, psi0 = two_site_model(hop=0.03, gamma=0.05, delta=delta)
    grid = TimeGrid.with_spacing(300.0, 2.68, dt=0.005)
    survival = no_jump_branch(model.h, model.collapse, psi0, grid).survival
    h_eff = model.h - 0.5j * sum(op.conj().T @ op for op in model.collapse)
    exact = [np.linalg.norm(scipy.linalg.expm(-1j * h_eff * t) @ psi0) ** 2
             for t in grid.times]
    return float(np.abs(survival - exact).max())


class TestDetunedAccuracy:
    """H is propagated as it is: a populated state near energy E turns by
    dt·E a step, and the degree-4 step's error grows with it.  At δ > 0 the
    populated |n−⟩ states are photon-like, near 0; at δ < 0 they are
    atom-like, near nδ."""

    def test_positive_detuning_tracks_the_exact_survival(self):
        assert detuned_survival_error(50.0) < 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "at δ = −50 the populated states sit near energy 2δ, where the fixed "
        "degree-4 step drifts by 4.9e-3 over t = 300 and nothing refuses it; "
        "ROADMAP item 6's accuracy bound would name dt instead"))
    def test_negative_detuning_tracks_the_exact_survival(self):
        assert detuned_survival_error(-50.0) < 1e-6


class TestPropagator:
    @pytest.mark.parametrize("n_fine", [1, 2, 3, 7, 8, 13])
    def test_stride_equals_matrix_power_bitwise(self, n_fine):
        _, model, psi0 = two_site_model(hop=0.05, gamma=0.1, delta=0.3)
        grid = TimeGrid(t_end=2 * n_fine * 0.005, n_samples=3, dt=0.005)
        assert grid.n_fine == n_fine
        mach = _build_machinery(model.h, model.collapse, psi0, grid)
        assert len(mach.blocks) == 3
        for blk in mach.blocks:
            power = np.linalg.matrix_power(blk.r_pows[0], n_fine)
            assert blk.r_stride.tobytes() == power.tobytes()


def _two_sector_state():
    params, model, pair = two_site_model(hop=0.03, gamma=0.05)
    single = model.space.reduce_vector(prepare_product_polariton_state(("1-", "G"), params))
    return model.h, model.collapse, (pair + single) / np.sqrt(2.0)


def _mixing_channel():
    # one dense channel couples every state to every other: a single block
    _, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
    rng = np.random.default_rng(11)
    mix = rng.normal(size=(model.dim,) * 2) + 1j * rng.normal(size=(model.dim,) * 2)
    return model.h, [0.05 * mix / np.sqrt(model.dim)], psi0


def _pair(delta=0.0):
    _, model, psi0 = two_site_model(hop=0.03, gamma=0.05, delta=delta)
    return model.h, model.collapse, psi0


def _fig2_preset():
    _, model, psi0 = preset_problem("fig2")
    return model.h, model.collapse, psi0


REFERENCE_CASES = {
    "fig2": _pair,
    "fig2_preset": _fig2_preset,
    "detuned": lambda: _pair(delta=0.5),     # H has a nonzero diagonal: the states turn by phases
    "two_sectors": _two_sector_state,
    "dark_block": dark_block_model,
    "mixing_channel": _mixing_channel,
}


@functools.lru_cache(maxsize=None)
def norm_polynomial_blocks():
    """No-jump generators of every block of the fig2 and n4 presets and of
    the mixing-channel case, with the dt of their grids."""
    gens = []
    for name in ("fig2", "n4"):
        config, model, psi0 = preset_problem(name)
        mach = _build_machinery(model.h, model.collapse, psi0, config.grid)
        gens += [(blk.gen, config.grid.dt) for blk in mach.blocks]
    h, collapse, psi0 = _mixing_channel()
    grid = TimeGrid(t_end=1.0, n_samples=3)
    gens += [(blk.gen, grid.dt) for blk in _build_machinery(h, collapse, psi0, grid).blocks]
    return tuple(gens)


class TestBlocks:
    @pytest.mark.parametrize("name", ["fig2", "n3", "n4"])
    def test_blocks_are_the_excitation_sectors(self, name):
        config, model, psi0 = preset_problem(name)
        mach = _build_machinery(model.h, model.collapse, psi0, config.grid)
        sectors = [np.flatnonzero(model.n_tot == k) for k in range(config.max_excitation + 1)]
        assert [blk.index.tolist() for blk in mach.blocks] == [s.tolist() for s in sectors]
        assert mach.structure.start == config.max_excitation
        assert [blk.absorbing for blk in mach.blocks] == [True] + [False] * config.max_excitation
        # every loss channel lowers the excitation by one
        for k, blk in enumerate(mach.blocks[1:], start=1):
            assert blk.targets == (k - 1,) * len(model.collapse)

    @pytest.mark.parametrize(
        "case, coarse", [pytest.param(case, False, id=case) for case in sorted(REFERENCE_CASES)]
        + [pytest.param(case, True, id=f"{case}-coarse")
           for case in ("detuned", "fig2", "two_sectors")])
    def test_trajectories_match_dense_reference(self, case, coarse):
        h, collapse, psi0 = REFERENCE_CASES[case]()
        h, psi0 = np.asarray(h), np.asarray(psi0, dtype=np.complex128)
        # n_fine = 200, or the fig2 preset's own 536: a 10-level dyadic descent;
        # coarse, n_fine = 6 000, where some intervals hold two jumps
        grid = (load_preset("fig2").scenarios[0].grid if case == "fig2_preset"
                else TimeGrid(t_end=300.0, n_samples=11 if coarse else 301, dt=0.005))
        n_blocks = len(_build_machinery(h, collapse, psi0, grid).blocks)
        assert n_blocks == {"fig2": 3, "fig2_preset": 3, "detuned": 3, "two_sectors": 1,
                            "dark_block": 2, "mixing_channel": 1}[case]
        n_jumps = n_doubled = 0
        for seed in range(6):
            traj = mcwf_trajectory(h, collapse, psi0, grid, seed=(7, seed))
            rows, jumps = dense_reference_trajectory(h, collapse, psi0, grid, (7, seed))
            assert [c for _, c in traj.jumps] == [c for _, c in jumps]
            assert np.abs(np.subtract(traj.jumps, jumps)).max(initial=0.0) < 1e-10
            assert np.abs(traj.states - rows).max() < 1e-12
            n_jumps += len(jumps)
            # the intervals that hold a second jump
            at = [int(t // grid.spacing) for t, _ in jumps]
            n_doubled += len(at) - len(set(at))
        assert n_jumps > 0
        if coarse:
            assert n_doubled > 0

    @pytest.mark.parametrize("name", ["fig2", "n3", "n4"])
    def test_every_trajectory_ends_in_the_vacuum_after_n0_jumps(self, name):
        config, model, psi0 = preset_problem(name)
        n0, grid = config.max_excitation, config.grid
        ens = mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=3,
                            master_seed=config.master_seed)
        vacuum = np.flatnonzero(model.n_tot == 0)
        assert ens.jumps_per_channel.shape == (3, len(model.collapse))
        for j in range(3):
            traj = mcwf_trajectory(model.h, model.collapse, psi0, grid,
                                   (config.master_seed, j))
            assert len(traj.jumps) == n0
            assert ens.jumps_per_channel[j].tolist() == np.bincount(
                [c for _, c in traj.jumps], minlength=len(model.collapse)).tolist()
            entry = ens.absorbing_entry[j]
            assert grid.times[entry - 1] < traj.jumps[-1][0] <= grid.times[entry]
            tail = traj.states[entry:]
            assert np.abs(np.abs(tail[:, vacuum]) - 1.0).max() < 1e-12
            assert not np.delete(tail, vacuum, axis=1).any()


class TestNormPolynomial:
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_horner_value_is_the_flow_norm(self, data, seed, frac):
        # the bisection's scalar polynomial against the flow vector it replaces
        gen, dt = data.draw(st.sampled_from(norm_polynomial_blocks()))
        rng = np.random.default_rng(seed)
        k = gen.shape[0]
        powers = [(rng.normal(size=k) + 1j * rng.normal(size=k)) * rng.uniform(1e-3, 1.0)]
        for _ in range(4):
            powers.append(gen @ powers[-1])
        tau = frac * dt
        flow = _taylor_flow(powers, tau)
        expected = np.vdot(flow, flow).real
        assert abs(poly_value(_flow_norm2_poly(powers), tau) - expected) <= 1e-13 * expected

    def test_written_out_bisection_is_the_horner_loop_bitwise(self):
        # _crossing_time's written-out Horner steps against the loop, at thresholds
        # inside the step's fall of the norm, at its ends and beyond, and equal to
        # the loop's value at each midpoint the bisection visits, where a value
        # rounded any other way would turn that comparison
        def bisect(coeffs, frac, r):
            lo, hi, mids = 0.0, frac, []
            while hi - lo > 1e-10:
                mids.append(0.5 * (lo + hi))
                if poly_value(coeffs, mids[-1]) > r:
                    lo = mids[-1]
                else:
                    hi = mids[-1]
            return 0.5 * (lo + hi), mids

        rng = np.random.default_rng(11)
        inside = 0
        for gen, dt in norm_polynomial_blocks():
            k = gen.shape[0]
            for _ in range(6):
                powers = [(rng.normal(size=k) + 1j * rng.normal(size=k))
                          * rng.uniform(1e-3, 1.0)]
                for _ in range(4):
                    powers.append(gen @ powers[-1])
                coeffs = _flow_norm2_poly(powers)
                frac = dt * rng.uniform(0.01, 1.0)
                top, bottom = poly_value(coeffs, 0.0), poly_value(coeffs, frac)
                r = bottom + rng.uniform() * (top - bottom)
                edges = [poly_value(coeffs, mid) for mid in bisect(coeffs, frac, r)[1]]
                for r in [r, top, bottom, 2.0 * top, 0.5 * bottom] + edges:
                    tau = _crossing_time(coeffs, frac, r)
                    assert tau.hex() == bisect(coeffs, frac, r)[0].hex()
                    inside += 1e-10 < tau < frac - 1e-10
        assert inside > 20 * len(norm_polynomial_blocks())

    def test_stacked_powers_give_each_row_its_own_flow_and_polynomial(self):
        # the first-jump pass takes _powers of a stack of rows, each with its own
        # time into the step: the flow is elementwise, so each row's is the one
        # of its own slice of the stack bitwise, and the powers and polynomial of
        # the row alone agree with the stack's to roundoff
        rng = np.random.default_rng(23)
        for gen, dt in norm_polynomial_blocks():
            k = gen.shape[0]
            rows = rng.normal(size=(7, k)) + 1j * rng.normal(size=(7, k))
            tau = dt * rng.uniform(size=7)
            stack = dynamics._powers(gen, rows)
            assert stack.shape == (5, 7, k)
            flows = _taylor_flow(stack, tau[:, None])
            coeffs = _flow_norm2_poly(stack)
            for i in range(7):
                assert np.array_equal(flows[i], _taylor_flow(stack[:, i], tau[i]))
                powers = dynamics._powers(gen, rows[i])
                assert np.abs(powers - stack[:, i]).max() <= 1e-13 * np.abs(powers).max()
                alone = _flow_norm2_poly(powers)
                assert np.abs(coeffs[i] - alone).max() <= 1e-13 * np.abs(alone).max()


class TestJumpDraws:
    def test_round_channel_pick_is_each_rows_bisection_of_its_running_sum(self):
        # a round picks every crossing row's channel at once; each pick is the
        # one-row rule, the first channel whose running sum (added left to
        # right) exceeds u·Σ, clipped to the last channel
        def one_row(norms, u):
            acc = list(accumulate(norms))
            return min(bisect_right(acc, u * acc[-1]), len(acc) - 1)

        rng = np.random.default_rng(5)
        cases = [(rng.uniform(size=(300, n)) * 10.0 ** rng.uniform(-300, 0, size=(300, 1)),
                  rng.uniform(size=300)) for n in (1, 2, 3, 4, 7)]
        cases += [
            # draws exactly on a running sum, at 0 and at the total
            (np.array([[0.25, 0.25, 0.5]] * 4), np.array([0.0, 0.25, 0.5, 1.0])),
            # zero-norm channels, all mass on the last channel, every norm zero
            (np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 2.0],
                       [0.0, 0.0, 0.0, 0.0]]), np.array([0.0, 0.5, 0.999, 0.3])),
            # one channel
            (np.array([[0.3], [0.0], [1e-300]]), np.array([0.0, 0.5, 0.999])),
        ]
        for norms, u in cases:
            want = [one_row(row, x) for row, x in zip(norms.tolist(), u.tolist())]
            assert dynamics._channels(norms, u).tolist() == want
        assert [one_row(*case) for case in (([0.25, 0.25, 0.5], 0.25), ([0, 0.5, 0, 0.5], 0.0),
                                            ([0.0, 0.0, 2.0], 0.0))] == [1, 1, 2]

    def test_two_uniforms_in_one_call_are_two_draws(self):
        # a crossing row takes its channel draw and its next threshold in one
        # call of its Generator: the same two doubles as two single draws
        for seed in range(200):
            one, two = (np.random.default_rng(np.random.SeedSequence((seed, 7)))
                        for _ in range(2))
            for _ in range(5):
                assert one.random(2).tolist() == [two.random(), two.random()]


def dense_superoperator(h, collapse):
    """The master-equation generator on all of row-major vec(ρ), written out."""
    d = h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in collapse:
        ldl = op.conj().T @ op
        sup += np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def dense_reference_lindblad(h, collapse, rho0, grid):
    """ρ(t) from the full d² x d² generator: its degree-4 Taylor step, that
    step to the power n_fine, and one matvec per sample."""
    d = len(rho0)
    eye = np.eye(d * d)
    m = grid.dt * dense_superoperator(h, collapse)
    r_dt = eye + m @ (eye + (m / 2.0) @ (eye + (m / 3.0) @ (eye + m / 4.0)))
    r_stride = np.linalg.matrix_power(r_dt, grid.n_fine)
    vec = rho0.reshape(-1)
    out = [rho0]
    for _ in range(1, grid.n_samples):
        vec = r_stride @ vec
        out.append(vec.reshape(d, d))
    return np.array(out)


def kron_block_superoperator(structure, parts):
    """The complex generator on the entries of ρ's diagonal blocks, by kron.

    The entries are in the ``structure``'s layout.  Block (b, b) evolves
    under G_b ρ_b + ρ_b G_b†, and each channel feeds L ρ_b L† into the
    block it maps b into.
    """
    offsets = structure.offsets
    sup = np.zeros((offsets[-1], offsets[-1]), dtype=np.complex128)
    for b, part in enumerate(parts):
        eye = np.eye(len(part.index))
        cols = slice(offsets[b], offsets[b + 1])
        sup[cols, cols] += np.kron(part.gen, eye) + np.kron(eye, part.gen.conj())
        for t, jump in zip(part.targets, part.jumps):
            sup[offsets[t]:offsets[t + 1], cols] += np.kron(jump, jump.conj())
    return sup


def kron_generator_in_coordinates(structure, parts):
    """``kron_block_superoperator`` mapped into the real coordinates: Re ρ_rc
    on and above the diagonal, Im ρ_rc below it."""
    rows, cols = structure.rows, structure.cols
    where = {(r, c): m for m, (r, c) in enumerate(zip(rows, cols))}
    mirror = np.array([where[c, r] for r, c in zip(rows, cols)])
    # entries from coordinates: ρ_rc = x_m − i x_m' above the diagonal and
    # x_m' + i x_m below it, with m' the coordinate of (c, r)
    m = np.arange(len(rows))
    to_entries = np.zeros((len(rows), len(rows)), dtype=np.complex128)
    upper, lower = rows < cols, rows > cols
    to_entries[m[rows <= cols], m[rows <= cols]] = 1.0
    to_entries[m[upper], mirror[upper]] = -1j
    to_entries[m[lower], m[lower]] = 1j
    to_entries[m[lower], mirror[lower]] = 1.0
    image = kron_block_superoperator(structure, parts) @ to_entries
    return np.where(lower[:, None], image.imag, image.real)


def coordinates_of(blocks):
    """The real coordinates of Hermitian blocks, in a ``BlockStructure``'s layout."""
    return np.concatenate([np.where(np.tril(np.ones(rho.shape, dtype=bool), -1),
                                    rho.imag, rho.real).ravel() for rho in blocks])


def _fig4_point():
    config = load_preset("fig4").sweep
    hop = config.j_values[1]
    params = config.model_for(hop, hop)
    model = build_reduced_model(params, max_exc=2)
    psi0 = model.space.reduce_vector(prepare_product_polariton_state(("2-", "G"), params))
    return (model.h, model.collapse, np.outer(psi0, psi0.conj()), config.grid_for(params),
            model.n_tot)


_SHORT = TimeGrid(t_end=40.0, n_samples=41, dt=0.005)


def _lindblad_detuned():
    _, model, psi0 = two_site_model(hop=0.03, gamma=0.05, delta=0.5)
    return model.h, model.collapse, np.outer(psi0, psi0.conj()), _SHORT, model.n_tot


def _lindblad_coherent_sectors():
    h, collapse, psi0 = _two_sector_state()
    return h, collapse, np.outer(psi0, psi0.conj()), _SHORT, np.zeros(len(psi0))


def _lindblad_mixed_sectors():
    params, model, pair = two_site_model(hop=0.03, gamma=0.05)
    single = model.space.reduce_vector(prepare_product_polariton_state(("1-", "G"), params))
    rho0 = 0.5 * (np.outer(pair, pair.conj()) + np.outer(single, single.conj()))
    return model.h, model.collapse, rho0, _SHORT, np.zeros(model.dim)


def _lindblad_damped_mode():
    h, collapse, _ = damped_mode()
    rho0 = np.zeros((4, 4), dtype=np.complex128)
    rho0[2, 2] = 1.0
    return h, collapse, rho0, _SHORT, np.arange(4)


def _lindblad_mixing_channel():
    h, collapse, psi0 = _mixing_channel()
    return h, collapse, np.outer(psi0, psi0.conj()), _SHORT, np.zeros(len(psi0))


# each case: H, collapse operators, ρ0, grid and the block label of each state
LINDBLAD_CASES = {
    "fig4_point": _fig4_point,
    "detuned": _lindblad_detuned,
    "coherent_sectors": _lindblad_coherent_sectors,
    "mixed_sectors": _lindblad_mixed_sectors,
    "damped_mode": _lindblad_damped_mode,
    "mixing_channel": _lindblad_mixing_channel,
}



class TestLindblad:
    @pytest.mark.parametrize("case", sorted(LINDBLAD_CASES))
    def test_blocks_match_dense_reference(self, case):
        h, collapse, rho0, grid, labels = LINDBLAD_CASES[case]()
        rhos = lindblad_evolve(h, collapse, rho0, grid)
        reference = dense_reference_lindblad(h, collapse, rho0, grid)
        assert rhos.shape == reference.shape
        assert np.abs(rhos - reference).max() < 1e-12
        kept = labels[:, None] == labels[None, :]
        assert not rhos[:, ~kept].any()

    def test_damped_mode_decay_matches_exponential(self):
        h, collapse, a = damped_mode()
        number = a.conj().T @ a
        rho0 = np.zeros((4, 4), dtype=np.complex128)
        rho0[2, 2] = 1.0
        grid = TimeGrid(t_end=20.0, n_samples=101, dt=0.005)
        rhos = lindblad_evolve(h, collapse, rho0, grid)
        mean_n = np.einsum("kij,ji->k", rhos, number).real
        assert np.abs(mean_n - 2.0 * np.exp(-0.25 * grid.times)).max() < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        rho0 = np.outer(psi0, psi0.conj())
        grid = TimeGrid(t_end=100.0, n_samples=41, dt=0.005)
        rhos = lindblad_evolve(model.h, model.collapse, rho0, grid)
        traces = np.einsum("kii->k", rhos).real
        assert np.abs(traces - 1.0).max() < 1e-12
        assert np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() < 1e-10

    @pytest.mark.parametrize("case", sorted(LINDBLAD_CASES))
    def test_stack_is_exactly_hermitian(self, case):
        h, collapse, rho0, grid, _ = LINDBLAD_CASES[case]()
        rhos = lindblad_evolve(h, collapse, rho0, grid)
        assert (rhos == rhos.conj().transpose(0, 2, 1)).all()

    @pytest.mark.parametrize("case", sorted(LINDBLAD_CASES))
    def test_real_generator_matches_kron_generator(self, case):
        h, collapse, rho0, _, _ = LINDBLAD_CASES[case]()
        structure = block_structure(h, collapse, rho0)
        parts = _parts(structure, h, collapse)
        sup = _real_generator(structure, parts, 2**30)
        assert np.abs(sup - kron_generator_in_coordinates(structure, parts)).max() <= 1e-14
        # one basis matrix a chunk gives the same bits as one chunk a block
        assert np.array_equal(_real_generator(structure, parts, 0), sup)

    def test_start_matrix_that_is_not_a_density_refused(self):
        h, collapse, _ = damped_mode()
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        rho0 = np.diag([1.5, -0.5, 0.0, 0.0]).astype(np.complex128)   # trace 1, Hermitian
        with pytest.raises(ConfigError) as err:
            lindblad_evolve(h, collapse, rho0, grid)
        assert err.value.problems == ["rho0: must be positive semidefinite"]
        with pytest.raises(ConfigError) as err:
            lindblad_evolve(h, collapse, 2.0 * np.abs(rho0), grid)
        assert err.value.problems == ["rho0: trace must be 1, got 4.0"]

    def test_generator_is_trace_free(self):
        _, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        structure = block_structure(model.h, model.collapse, psi0)
        parts = _parts(structure, model.h, model.collapse)
        assert len(parts) == 3
        sup = _real_generator(structure, parts, 2**30)
        offsets, rows, cols = structure.offsets, structure.rows, structure.cols
        rng = np.random.default_rng(0)
        blocks = []
        for part in parts:
            k = len(part.index)
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            blocks.append(m @ m.conj().T)
        deriv = sup @ coordinates_of(blocks)
        # a block's trace is the sum of its diagonal coordinates
        diagonal = rows == cols
        traces = [deriv[first:end][diagonal[first:end]].sum()
                  for first, end in zip(offsets, offsets[1:])]
        assert abs(sum(traces)) < 1e-12
        assert abs(traces[0]) > 1e-3          # decay feeds the vacuum block

    def test_dimension_cap(self, monkeypatch):
        # the budget counts the generator's bytes, not dim: 80 uncoupled
        # states are 80 one-state blocks, whose generator has 80² entries
        dim = 80
        rho0 = np.zeros((dim, dim), dtype=np.complex128)
        rho0[0, 0] = 1.0
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        rhos = lindblad_evolve(np.zeros((dim, dim), dtype=np.complex128), [], rho0, grid)
        assert np.array_equal(rhos, np.broadcast_to(rho0, (3, dim, dim)))
        # a dense H makes them one block: (80²)² entries, refused before they are built
        monkeypatch.setattr(dynamics, "_real_generator",
                            lambda structure, parts, spare: pytest.fail("the generator was built"))
        # four real generators, 4 · 6400² · 8 + 3 · (6400 · 8 + 80² · 16) bytes
        with pytest.raises(SizeError, match="four real generators on 6400 coordinates of ρ and "
                                            "3 samples needs 1311180800 bytes, above the budget "
                                            "268435456"):
            lindblad_evolve(random_hermitian(np.random.default_rng(2), dim), [], rho0, grid)

    def test_structure_refuses_operators_it_does_not_fit(self):
        _, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        h, collapse, rho0 = model.h, list(model.collapse), np.outer(psi0, psi0.conj())
        grid = TimeGrid(t_end=2.0, n_samples=5, dt=0.005)
        structure = block_structure(h, collapse, rho0)
        rhos = lindblad_evolve(h, collapse, rho0, grid, structure=structure)
        assert rhos.tobytes() == lindblad_evolve(h, collapse, rho0, grid).tobytes()
        # one entry between the vacuum and a one-excitation state: outside the blocks
        vacuum, one = structure.members[0][0], structure.members[1][0]
        leaky = h.copy()
        leaky[vacuum, one] = leaky[one, vacuum] = 0.1
        lost = collapse[1].copy()
        lost[vacuum, structure.members[2][0]] = 0.1
        fit = "does not fit the block structure"
        for args, what in (((leaky, collapse, rho0), "Hamiltonian"),
                           ((h, [collapse[0], lost], rho0), "collapse operator 1"),
                           ((h, collapse, np.eye(model.dim) / model.dim), "the start state")):
            with pytest.raises(SizeError, match=f"^{what} {fit}"):
                lindblad_evolve(*args, grid, structure=structure)
        with pytest.raises(SizeError, match="^the block structure was read from 2 collapse "
                                            "operators, got 1$"):
            lindblad_evolve(h, collapse[:1], rho0, grid, structure=structure)
        # a fresh structure takes them in
        assert np.isfinite(lindblad_evolve(leaky, collapse, rho0, grid)).all()
        # the structure reads patterns only, but of the right shapes
        with pytest.raises(SizeError, match=r"^collapse operator shape \(12, 12\) does not "
                                            "match dim 13$"):
            block_structure(h, [collapse[0][:12, :12]], rho0)
        with pytest.raises(SizeError, match=r"^state shape \(12,\) does not match dim 13$"):
            block_structure(h, collapse, psi0[:12])

    def test_bad_initial_state_rejected(self):
        h, collapse, _ = damped_mode()
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        unnormalized = np.eye(4, dtype=np.complex128)
        with pytest.raises(ConfigError):
            lindblad_evolve(h, collapse, unnormalized, grid)


class TestTrajectories:
    def test_zero_damping_equals_unitary_exactly(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.0)
        grid = TimeGrid(t_end=50.0, n_samples=26, dt=0.005)
        uni = no_jump_branch(model.h, (), psi0, grid)
        traj = mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=4)
        # collapse list is empty at zero damping -> identical propagation
        assert model.collapse == ()
        assert np.array_equal(uni.states, traj.states)
        assert traj.jumps == ()

    def test_single_trajectory_step_function(self):
        # one damped mode from the one-photon state: the trajectory is |1>
        # until its single jump, |0> afterwards; jump times share the grid's clock
        h, collapse, a = damped_mode(dim=2, gamma=0.5)
        psi0 = np.array([0.0, 1.0], dtype=np.complex128)
        grid = TimeGrid(t_end=20.0, n_samples=201, dt=0.005)
        traj = mcwf_trajectory(h, collapse, psi0, grid, seed=12)
        assert len(traj.jumps) == 1
        t_jump = traj.jumps[0][0]
        pop1 = np.abs(traj.states[:, 1]) ** 2
        assert np.all(pop1[grid.times < t_jump] == pytest.approx(1.0))
        assert np.all(pop1[grid.times > t_jump] == pytest.approx(0.0))

    def test_first_jump_times_exponential(self):
        # waiting times from the one-photon state follow Exp(gamma)
        gamma = 0.5
        h, collapse, _ = damped_mode(dim=2, gamma=gamma)
        psi0 = np.array([0.0, 1.0], dtype=np.complex128)
        grid = TimeGrid(t_end=40.0, n_samples=11, dt=0.005)
        times = []
        for seed in range(2500):
            traj = mcwf_trajectory(h, collapse, psi0, grid, seed=seed)
            if traj.jumps:
                times.append(traj.jumps[0][0])
        assert len(times) > 2400          # P(no jump by t=40) ~ 2e-9
        result = stats.kstest(times, "expon", args=(0.0, 1.0 / gamma))
        assert result.pvalue > 0.001

    def test_excitation_never_increases_along_trajectory(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        n_tot = restrict(total_excitation_operator(params), model.space)
        grid = TimeGrid(t_end=300.0, n_samples=301, dt=0.005)
        found_jumps = 0
        for seed in range(6):
            traj = mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=seed)
            found_jumps += len(traj.jumps)
            exc = np.einsum("ni,ij,nj->n", traj.states.conj(), n_tot,
                            traj.states).real
            assert np.all(np.diff(exc) < 1e-9)
        assert found_jumps > 0

    def test_ensemble_decay_within_errorbars(self):
        h, collapse, a = damped_mode()
        number = a.conj().T @ a
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=15.0, n_samples=31, dt=0.005)
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=800, master_seed=1,
                            observables={"n": number})
        target = 2.0 * np.exp(-0.25 * grid.times)
        dev = np.abs(ens.mean_observables["n"] - target)
        allowed = np.maximum(3.0 * ens.stderr["n"], 0.02)
        assert np.all(dev <= allowed)

    def test_conditional_branch_survival_and_population(self):
        # no-jump branch of the damped mode from |2>: survival e^(-2 gamma t),
        # conditional photon number pinned at 2
        gamma = 0.25
        h, collapse, a = damped_mode(gamma=gamma)
        number = a.conj().T @ a
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=10.0, n_samples=21, dt=0.005)
        branch = no_jump_branch(h, collapse, psi0, grid,
                                observables={"n": number})
        assert np.abs(branch.survival
                      - np.exp(-2.0 * gamma * grid.times)).max() < 1e-8
        assert np.abs(branch.observables["n"] - 2.0).max() < 1e-10

    def test_conditional_branch_finite_after_survival_underflows(self):
        # the survival e^(-2 gamma t) underflows to 0.0 from t = 1500 on;
        # the conditional state is still |2>
        gamma = 0.25
        h, collapse, a = damped_mode(gamma=gamma)
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=2000.0, n_samples=41)
        branch = no_jump_branch(h, collapse, psi0, grid,
                                observables={"n": a.conj().T @ a})
        assert np.abs(branch.observables["n"] - 2.0).max() < 1e-10
        assert np.all(np.isfinite(branch.states))
        assert branch.survival[-1] == 0.0
        exact = np.exp(-2.0 * gamma * grid.times)
        shown = exact > 1e-290
        assert np.allclose(branch.survival[shown], exact[shown], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("preset", ["fig2", "n3", "n4"])
    def test_unjumped_fraction_within_dkw_band_of_branch_survival(self, preset):
        # Decay never feeds the initial excitation sector, so a trajectory sits
        # there exactly until its first jump: the ensemble mean of the sector's
        # projector is S_n, the fraction not yet jumped, an empirical survival
        # function whose exact value is the branch's survival.  The DKW band with
        # Massart's constant holds max_t |S_n - S| <= sqrt(ln(2/alpha) / (2n))
        # with probability 1 - alpha; alpha = 1e-6 and each preset's own
        # trajectory count and seed were fixed before any run.
        alpha = 1e-6
        config = load_preset(preset).scenarios[0]
        model = build_reduced_model(config.model, max_exc=config.max_excitation)
        start = np.diag((model.n_tot == config.max_excitation).astype(np.complex128))
        ens = mcwf_ensemble(model.h, model.collapse, model.space.product_state(config.initial),
                            config.grid, n_traj=config.n_traj,
                            master_seed=config.master_seed, observables={"start": start})
        band = math.sqrt(math.log(2.0 / alpha) / (2 * config.n_traj))
        dev = np.abs(ens.mean_observables["start"] - ens.jump_free_branch().survival)
        assert dev.max() <= band

    def test_underflow_within_one_interval_raises(self):
        # e^(-2 gamma t) over one 1500-long sample interval is below the
        # smallest double: an error, not a row of NaN.  Every trajectory leaves
        # the jump-free run within that interval, so the ensemble runs, and an
        # ensemble's branch raises as the branch alone does
        h, collapse, a = damped_mode(gamma=0.25)
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        for n_samples in (2, 3):
            grid = TimeGrid(t_end=1500.0 * (n_samples - 1), n_samples=n_samples)
            with pytest.raises(IntegratorError, match="underflowed"):
                no_jump_branch(h, collapse, psi0, grid)
            ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=5, master_seed=1,
                                observables={"n": a.conj().T @ a})
            assert ens.jumps_per_channel.sum() == 10
            assert np.allclose(ens.mean_observables["n"], [2.0] + [0.0] * (n_samples - 1),
                               rtol=0.0, atol=1e-15)
            with pytest.raises(IntegratorError, match="underflowed"):
                ens.jump_free_branch()

    @pytest.mark.parametrize("draws, t_end, n_samples, ln2_times, absorbed", [
        # the shared run's first threshold; |1> then jumps at ln 2 / 0.25 more
        ((0.0,), 2000.0, 41, (53 / 0.5, 53 / 0.5 + 4), 2),
        # |1>'s sweep: the threshold after the first jump, at ln 2 / 0.5
        ((0.5, 0.5, 0.0), 4000.0, 81, (2, 2 + 53 / 0.25), 3),
    ], ids=["shared_run", "later_sweep"])
    def test_zero_draw_jumps_where_the_norm_reaches_the_least_uniform(
            self, monkeypatch, draws, t_end, n_samples, ln2_times, absorbed):
        # a draw of exactly 0.0 takes the threshold 2^-53, the least positive
        # value Generator.random() returns, which the squared norm e^{-γnt}
        # reaches at 53 ln 2 / (γn).  Generator.random() returns 0.0 with
        # probability 2^-53, so the draws are scripted, and 0.5 after them
        class Scripted:
            def __init__(self, seed):
                self.left = list(draws)

            def random(self, size=None):
                picked = [self.left.pop(0) if self.left else 0.5 for _ in range(size or 1)]
                return np.array(picked) if size else picked[0]

        monkeypatch.setattr(np.random, "default_rng", Scripted)
        h, collapse, a = damped_mode(gamma=0.25)
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=t_end, n_samples=n_samples)
        traj = mcwf_trajectory(h, collapse, psi0, grid, seed=1)
        assert [c for _, c in traj.jumps] == [0, 0]
        assert [t for t, _ in traj.jumps] == pytest.approx(
            [math.log(2) * t for t in ln2_times], rel=0.0, abs=1e-9)
        number = a.conj().T @ a
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=1, master_seed=1,
                            observables={"n": number})
        assert ens.jumps_per_channel.tolist() == [[2]]
        assert ens.absorbing_entry.tolist() == [absorbed]
        n_traj = np.einsum("si,ij,sj->s", traj.states.conj(), number, traj.states).real
        assert np.abs(ens.mean_observables["n"] - n_traj).max() < 1e-12
        assert n_traj[absorbed - 1] > 0.5 and n_traj[absorbed] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_end", [400.0, 1000.0])
    def test_norm_loss_where_no_channel_acts_raises(self, t_end):
        # |R|^2 = 1 - 1/72 + 1/576 per step at |dt H| = 1: no channel acts
        # on |1>, so its rows come from powers of R, which fall below the floor
        # by t = 300 and to 0.0 before t = 1000; the run's one check refuses both
        h = np.diag([-100.0, 100.0]).astype(np.complex128)
        psi0 = np.array([0.0, 1.0], dtype=np.complex128)
        grid = TimeGrid(t_end=t_end, n_samples=11, dt=0.01)
        with pytest.raises(IntegratorError, match="too coarse"):
            no_jump_branch(h, (), psi0, grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_end", [400.0, 1000.0])
    def test_norm_loss_in_an_absorbing_block_after_a_jump_raises(self, t_end):
        # |e> decays into |g>, on which no channel acts; at |dt H| = 1 the
        # scheme keeps 1 - 1/72 + 1/576 of |g>'s squared norm a step, so a row
        # that lands there falls below the floor about 281 after its jump, and
        # to 0.0 by about 607.  The sweep of |g> refuses it, whether its rows
        # are recorded, reduced on an observable or only added to ρ̄: |g> is
        # absorbing but not still (H is -100 there), so its rows are stepped,
        # and no warning escapes
        h = np.diag([-100.0, 100.0]).astype(np.complex128)
        collapse = [np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)]
        psi0 = np.array([1.0, 0.0], dtype=np.complex128)
        grid = TimeGrid(t_end=t_end, n_samples=41, dt=0.01)
        with pytest.raises(IntegratorError, match="too coarse"):
            mcwf_trajectory(h, collapse, psi0, grid, seed=1)
        with pytest.raises(IntegratorError, match="too coarse"):
            mcwf_ensemble(h, collapse, psi0, grid, n_traj=5, master_seed=1,
                          observables={"g": np.diag([0.0, 1.0])})
        assert not _build_machinery(h, collapse, psi0, grid).blocks[0].still
        with pytest.raises(IntegratorError, match=r"; dt = 0\.01 is too coarse"):
            mcwf_ensemble(h, collapse, psi0, grid, n_traj=5, master_seed=1, keep_rho=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_past_the_stability_limit_raises_naming_dt(self):
        # the exact jump-free flow never raises the squared norm.  At hop 300,
        # |dt λ| reaches 3.0, past the degree-4 scheme's limit of 2√2.  A
        # stride run there overflows to NaN, on which a crossing is bisected to a
        # zero step forever, so the jumping routes run in a process with a
        # timeout.  Every pure-state route refuses the step when its blocks are
        # built, naming its squared norm ‖R‖₂²; at hop 250 (2.5) every one runs
        grid = TimeGrid(t_end=20.0, n_samples=21, dt=0.005)
        dt_named = r"; dt = 0\.005 is too coarse for the spectrum of H$"
        script = textwrap.dedent("""\
            import warnings
            from conftest import two_site_model
            from jchsim.dynamics import TimeGrid, mcwf_ensemble, mcwf_trajectory
            from jchsim.errors import IntegratorError
            warnings.simplefilter("error", RuntimeWarning)    # none may escape
            _, model, psi0 = two_site_model(hop=300.0, gamma=0.05)
            grid = TimeGrid(t_end=20.0, n_samples=21, dt=0.005)
            for run in (lambda: mcwf_ensemble(model.h, model.collapse, psi0, grid,
                                              n_traj=20, master_seed=1),
                        lambda: mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=1)):
                try:
                    run()
                except IntegratorError as exc:
                    print(exc)
            """)
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
                              check=True, timeout=60)
        errors = done.stdout.splitlines()
        assert len(errors) == 2
        for error in errors:
            assert re.match(r"a step can multiply the jump-free squared norm by 2\.26"
                            + dt_named, error), error
        _, model, psi0 = two_site_model(hop=300.0, gamma=0.05)
        rho0 = np.outer(psi0, psi0.conj())
        with pytest.raises(IntegratorError, match="^a step can multiply the jump-free squared "
                                                  r"norm by 2\.26" + dt_named):
            no_jump_branch(model.h, model.collapse, psi0, grid)
        with pytest.raises(IntegratorError, match="^the master equation's stride or samples "
                                                  "are not finite" + dt_named):
            lindblad_evolve(model.h, model.collapse, rho0, grid)
        _, model, psi0 = two_site_model(hop=290.0, gamma=0.05)
        with pytest.raises(IntegratorError, match=r"by 1\.42" + dt_named):
            no_jump_branch(model.h, model.collapse, psi0, grid)
        # lossless, where every block absorbs: |dt λ| = 3.5
        with pytest.raises(IntegratorError, match=r"by 14\.6; dt = 0\.01 "):
            no_jump_branch(np.diag([-350.0, 350.0]), (), np.array([0.0, 1.0]),
                           TimeGrid(t_end=1.0, n_samples=11, dt=0.01))
        _, model, psi0 = two_site_model(hop=250.0, gamma=0.05)
        branch = no_jump_branch(model.h, model.collapse, psi0, grid)
        assert np.all(np.diff(branch.survival) < 0) and branch.survival[0] == pytest.approx(1.0)
        mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=20, master_seed=1)

    def test_overflowing_step_raises_without_a_warning(self):
        # at hop 1e80 the Taylor step overflows to inf and NaN; each route
        # refuses it when its blocks are built, and nothing warns before that
        _, model, psi0 = two_site_model(hop=1e80, gamma=0.05)
        grid = TimeGrid(t_end=20.0, n_samples=21, dt=0.005)
        message = (r"^a step can multiply the jump-free squared norm by inf; "
                   r"dt = 0\.005 is too coarse for the spectrum of H$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: mcwf_ensemble(model.h, model.collapse, psi0, grid,
                                              n_traj=20, master_seed=1),
                        lambda: mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=1),
                        lambda: no_jump_branch(model.h, model.collapse, psi0, grid)):
                with pytest.raises(IntegratorError, match=message):
                    run()

    @pytest.mark.parametrize("case, runs", [
        ("hop 250", True), ("hop 282", True), ("hop 283", False), ("hop 285", False),
        ("hop 290", False), ("lossless 2.82", True), ("lossless 2.84", False)])
    def test_ensemble_and_trajectory_alone_refuse_an_unstable_dt(self, case, runs):
        # two sites at dt 0.005: the largest ‖R_b‖₂² of a block's step is at most
        # 1 + 2.2e-16 up to hop 282, and 1.01, 1.11 and 1.42 at hop 283, 285 and
        # 290, where, run unchecked, every row's norm grows, no jump is resolved
        # and the ensemble and the trajectory return silently.  Lossless
        # diag(-E/2, E/2) has |dt λ| = dt E / 2 on both sides of the limit
        # 2√2 ≈ 2.828
        kind, value = case.split()
        if kind == "hop":
            _, model, psi0 = two_site_model(hop=float(value), gamma=0.05)
            h, collapse = model.h, model.collapse
            grid = TimeGrid(t_end=20.0, n_samples=21, dt=0.005)
        else:
            half = float(value) / 0.01
            h, collapse, psi0 = np.diag([-half, half]), (), np.array([0.0, 1.0])
            grid = TimeGrid(t_end=1.0, n_samples=11, dt=0.01)
        dt_named = rf"; dt = {re.escape(str(grid.dt))} is too coarse for the spectrum of H$"
        for run in (lambda: mcwf_ensemble(h, collapse, psi0, grid, n_traj=20, master_seed=1),
                    lambda: mcwf_trajectory(h, collapse, psi0, grid, seed=1)):
            if runs:
                run()
            else:
                with pytest.raises(IntegratorError, match=dt_named):
                    run()

    def test_lossless_ensemble_is_its_one_trajectory(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.0)
        grid = TimeGrid(t_end=50.0, n_samples=26, dt=0.005)
        op = np.diag(np.arange(model.dim, dtype=np.float64))
        ens = mcwf_ensemble(model.h, (), psi0, grid, n_traj=7, master_seed=1,
                            observables={"x": op}, keep_rho=True)
        branch = no_jump_branch(model.h, (), psi0, grid, observables={"x": op})
        assert np.array_equal(ens.mean_observables["x"], branch.observables["x"])
        assert not ens.stderr["x"].any()
        assert np.array_equal(dense_stack(ens.rho_blocks, model.dim),
                              np.einsum("ni,nj->nij", branch.states, branch.states.conj()))
        # no channel acts anywhere: every block absorbs from the first sample
        assert ens.jumps_per_channel.shape == (7, 0)
        assert ens.absorbing_entry.tolist() == [0] * 7

    def test_observable_of_wrong_shape_named_by_both_evolutions(self):
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        bad = {"bad": np.eye(3)}
        with pytest.raises(SizeError, match="observable 'bad' shape"):
            no_jump_branch(h, collapse, psi0, grid, observables=bad)
        with pytest.raises(SizeError, match="observable 'bad' shape"):
            mcwf_ensemble(h, collapse, psi0, grid, n_traj=1, master_seed=0,
                          observables=bad)

    def test_start_state_of_wrong_shape_or_norm_refused(self):
        h, collapse, _ = damped_mode()
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        runs = (lambda psi0: no_jump_branch(h, collapse, psi0, grid),
                lambda psi0: mcwf_trajectory(h, collapse, psi0, grid, seed=1),
                lambda psi0: mcwf_ensemble(h, collapse, psi0, grid, n_traj=1, master_seed=0))
        for run in runs:
            with pytest.raises(SizeError, match=r"^state shape \(3,\) does not match dim 4$"):
                run(np.array([0.0, 0.0, 1.0]))
            with pytest.raises(ConfigError) as err:
                run(np.array([0.0, 0.0, 1.0, 1.0]))
            assert err.value.problems == ["psi0: must have unit norm, got ||psi0||^2 = 2.0"]

    def test_loss_operator_and_hamiltonian_of_wrong_shape_named(self):
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=1.0, n_samples=3, dt=0.005)
        with pytest.raises(SizeError) as err:
            mcwf_ensemble(h, [collapse[0], np.eye(3)], psi0, grid, n_traj=1, master_seed=0)
        assert err.value.problems == ["collapse operator shape (3, 3) does not match dim 4"]
        with pytest.raises(SizeError) as err:
            lindblad_evolve(np.eye(3), collapse, np.outer(psi0, psi0), grid)
        assert err.value.problems == ["Hamiltonian shape (3, 3) does not match dim 4"]
        with pytest.raises(SizeError) as err:
            lindblad_evolve(h, [np.eye(5)], np.outer(psi0, psi0), grid)
        assert err.value.problems == ["collapse operator shape (5, 5) does not match dim 4"]

    @pytest.mark.parametrize("kwargs, problems", [
        (dict(n_traj=2.5), ["n_traj: need an integer >= 1, got 2.5"]),
        (dict(n_traj=True), ["n_traj: need an integer >= 1, got True"]),
        (dict(n_traj=0), ["n_traj: need an integer >= 1, got 0"]),
        (dict(master_seed=-1), ["master_seed: need an integer >= 0, got -1"]),
        (dict(master_seed=1.5), ["master_seed: need an integer >= 0, got 1.5"]),
        (dict(master_seed=(1, 2)), ["master_seed: need an integer >= 0, got (1, 2)"]),
        (dict(n_traj="3", master_seed=None), ["n_traj: need an integer >= 1, got '3'",
                                              "master_seed: need an integer >= 0, got None"]),
    ])
    def test_ensemble_names_a_bad_count_or_seed_before_building(self, monkeypatch,
                                                                 kwargs, problems):
        monkeypatch.setattr(dynamics, "_build_machinery",
                            lambda *args: pytest.fail("the blocks were built"))
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        with pytest.raises(ConfigError) as err:
            mcwf_ensemble(h, collapse, psi0, TimeGrid(t_end=1.0, n_samples=3),
                          **{"n_traj": 2, "master_seed": 1, **kwargs})
        assert err.value.problems == problems

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, (3, -1), (3, 1.5), [3, 1]])
    def test_trajectory_names_a_bad_seed_before_building(self, monkeypatch, seed):
        monkeypatch.setattr(dynamics, "_build_machinery",
                            lambda *args: pytest.fail("the blocks were built"))
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        with pytest.raises(ConfigError) as err:
            mcwf_trajectory(h, collapse, psi0, TimeGrid(t_end=1.0, n_samples=3), seed)
        assert err.value.problems == [
            f"seed: need an integer >= 0 or a tuple of them, got {seed!r}"]

    def test_whole_counts_and_seeds_run_as_their_ints(self):
        h, collapse, _ = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        grid = TimeGrid(t_end=10.0, n_samples=11)
        want = mcwf_ensemble(h, collapse, psi0, grid, n_traj=3, master_seed=5)
        got = mcwf_ensemble(h, collapse, psi0, grid, n_traj=3.0, master_seed=np.int64(5))
        assert np.array_equal(got.jumps_per_channel, want.jumps_per_channel)
        assert np.array_equal(got.absorbing_entry, want.absorbing_entry)
        jumps = mcwf_trajectory(h, collapse, psi0, grid, (5, 1)).jumps
        assert jumps and mcwf_trajectory(h, collapse, psi0, grid, (5.0, np.int64(1))).jumps == jumps
        assert (mcwf_trajectory(h, collapse, psi0, grid, 4.0).jumps
                == mcwf_trajectory(h, collapse, psi0, grid, 4).jumps)


def _branch_case(name):
    """h, collapse, psi0, grid and observables of a jump-free branch case."""
    rng = np.random.default_rng(5)
    if name in ("fig2", "n4"):
        config, model, psi0 = preset_problem(name)
        grid = config.grid
        if name == "n4":
            grid = TimeGrid.with_spacing(150.0, grid.spacing, dt=grid.dt)
        return model.h, model.collapse, psi0, grid, preset_projectors(config, model)
    if name == "closed":
        _, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        h, collapse = model.h, ()
    elif name == "mixing_channel":
        h, collapse, psi0 = _mixing_channel()
    else:
        h, collapse, psi0 = _two_sector_state()
    obs = {"diag": np.diag(np.arange(len(psi0), dtype=np.float64)),
           "dense": random_hermitian(rng, len(psi0))}
    return h, collapse, psi0, TimeGrid(t_end=100.0, n_samples=41), obs


class TestSharedBlocks:
    @pytest.mark.parametrize("name", ["fig2", "n4", "closed", "two_sectors"])
    def test_ensemble_branch_equals_no_jump_branch_bitwise(self, name):
        h, collapse, psi0, grid, obs = _branch_case(name)
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=2, master_seed=3,
                            observables=obs)
        got = ens.jump_free_branch()
        want = no_jump_branch(h, collapse, psi0, grid, observables=obs)
        assert got.survival.tobytes() == want.survival.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert list(got.observables) == list(want.observables) == list(obs)
        for key in obs:
            assert got.observables[key].tobytes() == want.observables[key].tobytes()

    def test_machinery_hidden_from_repr_and_observables_checked(self):
        # the branch reduces the ensemble's own observables, checked once
        # when the ensemble coerced them
        h, collapse, psi0, grid, obs = _branch_case("closed")
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=1, master_seed=3)
        assert "_machinery" not in repr(ens)
        assert ens.jump_free_branch().observables == {}
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=1, master_seed=3,
                            observables=obs)
        assert list(ens.jump_free_branch().observables) == list(obs)

    @pytest.mark.parametrize("name,supports", [
        # fig2: sectors of 1, 4 and 8 states; P20, P02, P11 live in the 8-state one
        ("fig2", [[0, 0, 0], [0, 0, 0], [2, 2, 4]]),
        # n4: sectors of 1, 8, 32, 88 and 192 states
        ("n4", [[0, 0]] * 4 + [[2, 16]]),
    ])
    def test_preset_projector_supports(self, name, supports):
        config, model, psi0 = preset_problem(name)
        mach = _build_machinery(model.h, model.collapse, psi0, config.grid)
        block_obs = _block_observables(mach.blocks, preset_projectors(config, model))
        assert [[len(sup) for sup, _ in entries] for entries in block_obs] == supports

    @pytest.mark.parametrize("name", ["fig2", "n4"])
    def test_support_reduction_matches_full_block(self, name):
        rng = np.random.default_rng(17)
        config, model, psi0 = preset_problem(name)
        mach = _build_machinery(model.h, model.collapse, psi0, config.grid)
        obs = preset_projectors(config, model)
        obs["dense"] = random_hermitian(rng, model.dim)
        block_obs = _block_observables(mach.blocks, obs)
        for b, blk in enumerate(mach.blocks):
            k = len(blk.index)
            rows = rng.normal(size=(9, k)) + 1j * rng.normal(size=(9, k))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            got = _reduce(block_obs[b], rows)
            for o, op in enumerate(obs.values()):
                full = _batched_expectation(rows, op[np.ix_(blk.index, blk.index)])
                assert np.abs(got[:, o] - full).max() <= 1e-15
                if not len(block_obs[b][o][0]):
                    assert not got[:, o].any()

    def test_blocks_without_support_are_never_reduced(self, monkeypatch):
        # fig2 keeps ρ̄, as its preset does; its projectors live in the 8-state
        # sector, so the 4-state sector and the vacuum, which only ρ̄ keeps busy,
        # are never reduced, and a trajectory's values there stay 0.0
        config, model, psi0 = preset_problem("fig2")
        grid = config.grid
        reduced, batches = [], []
        reduce, propagate = dynamics._reduce, dynamics._propagate

        def counted(entries, rows):
            reduced.append(rows.shape[1])
            return reduce(entries, rows)

        def kept(*args, **kwargs):
            batches.append(propagate(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(dynamics, "_reduce", counted)
        monkeypatch.setattr(dynamics, "_propagate", kept)
        mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=40, master_seed=1,
                      observables=preset_projectors(config, model), keep_rho=True)
        assert set(reduced) == {8}
        (batch,) = batches
        for values, record in zip(batch.values, _column_jumps(batch)):
            left = grid.times > record[0][0]      # the samples after the first jump
            assert left.any() and values[:, ~left].any()
            assert not values[:, left].any()


def _column_jumps(batch) -> list:
    """Each column's ``[(time, channel), ...]``, read off the batch's
    per-round records ``(columns, times, channels)``, in which a column's
    jumps come in time order."""
    jumps = [[] for _ in batch.absorbed]
    for cols, times, chans in batch.jumps:
        for j, t, c in zip(cols.tolist(), times.tolist(), chans.tolist()):
            jumps[j].append((t, c))
    return jumps


def _captured_batches(monkeypatch) -> list:
    """The ``_Batch`` of every ``_propagate`` call from here on."""
    batches, propagate = [], dynamics._propagate

    def kept(*args, **kwargs):
        batches.append(propagate(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(dynamics, "_propagate", kept)
    return batches


def _counted(monkeypatch, name: str) -> list:
    """The arguments of every call of ``dynamics.<name>`` from here on."""
    calls, function = [], getattr(dynamics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, counted)
    return calls


def _reentered_block_matches_replays(monkeypatch, name):
    """16 columns of a one-block case whose channels map the block into
    itself: each jump sends a column back into the block, to be taken by
    its next sweep, and each column is the trajectory ``mcwf_trajectory``
    replays for its seed."""
    h, collapse, psi0, grid, obs = _branch_case(name)
    mach = _build_machinery(h, collapse, psi0, grid)
    assert len(mach.blocks) == 1 and set(mach.blocks[0].targets) == {0}
    sweeps = _counted(monkeypatch, "_sweep")
    batches = _captured_batches(monkeypatch)
    ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=16, master_seed=3, observables=obs)
    (batch,) = batches
    jumps = _column_jumps(batch)
    n_jumps = ens.jumps_per_channel.sum(axis=1)
    assert n_jumps.max() >= 2
    # a column's k-th jump lands it in the block's k-th sweep
    assert len(sweeps) == n_jumps.max()
    per_traj = []
    for j in range(16):
        replay = mcwf_trajectory(h, collapse, psi0, grid, (3, j))
        assert [c for _, c in jumps[j]] == [c for _, c in replay.jumps]
        if replay.jumps:
            assert np.abs(np.subtract(jumps[j], replay.jumps)).max() < 1e-10
        per_traj.append([_batched_expectation(replay.states, op) for op in obs.values()])
    means = np.mean(per_traj, axis=0)
    for o, key in enumerate(obs):
        assert np.abs(ens.mean_observables[key] - means[o]).max() < 1e-12


class TestFirstJumps:
    def test_unjumped_columns_read_the_jump_free_run(self, monkeypatch):
        # fig2 from |2-, G>: every first jump leaves the 8-state start block.  Up to
        # the sample at which a trajectory joins its new block, its values are the
        # branch's P_cond, and ρ̄'s start block is the count of such trajectories
        # times ψ_c ψ_c†
        config, model, psi0 = preset_problem("fig2")
        grid = config.grid
        batches = _captured_batches(monkeypatch)
        ens = mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=60, master_seed=1,
                            observables=preset_projectors(config, model), keep_rho=True)
        (batch,) = batches
        branch = ens.jump_free_branch()
        cond = np.array(list(branch.observables.values()))          # (n_obs, n_samples)
        joined = np.array([np.searchsorted(grid.times, record[0][0])
                           for record in _column_jumps(batch)])
        assert 1 <= joined.min() and joined.max() < grid.n_samples
        for values, s_j in zip(batch.values, joined):
            assert np.abs(values[:, :s_j] - cond[:, :s_j]).max() <= 1e-15
        mach = ens._machinery
        start = mach.structure.start
        index = mach.blocks[start].index
        offsets = mach.structure.offsets
        entries = ens.rho_blocks.entries[:, offsets[start]:offsets[start + 1]]
        for s in range(grid.n_samples):
            left = np.count_nonzero(joined > s)
            psi = branch.states[s, index]
            want = left / 60 * np.outer(psi, psi.conj()).ravel()
            assert np.abs(entries[s] - want).max() <= 1e-15, s

    def test_first_jump_back_into_the_start_block_matches_replays(self, monkeypatch):
        # ψ0 spans one and two excitations, so the whole model is one block and
        # every jump lands back in it: a column joins it as a row after its first
        # jump, and is the trajectory mcwf_trajectory replays for its seed
        _reentered_block_matches_replays(monkeypatch, "two_sectors")

    @pytest.mark.parametrize("name", ["fig2", "two_sectors"])
    def test_no_column_is_a_start_block_row_before_its_first_jump(self, monkeypatch, name):
        h, collapse, psi0, grid, obs = _branch_case(name)
        start = _build_machinery(h, collapse, psi0, grid).structure.start
        seen = []
        sweep = dynamics._sweep

        def checked(mach, b, arrived, pending, batch, *rest):
            # every column a sweep of the start block takes has jumped by then
            if b == start:
                jumps = _column_jumps(batch)
                seen.extend(len(jumps[j]) for cols, _, _ in arrived for j in cols)
            return sweep(mach, b, arrived, pending, batch, *rest)

        monkeypatch.setattr(dynamics, "_sweep", checked)
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=30, master_seed=2,
                            observables=obs)
        assert ens.jumps_per_channel.sum() > 30
        assert min(seen, default=1) >= 1
        assert bool(seen) == (name == "two_sectors")

    def test_scenario_writes_each_jump_free_sample_once(self, monkeypatch):
        # the ensemble writes its run until every trajectory has left it; the
        # branch goes on from there, on the same run
        written = []
        advance = dynamics._FreeRun.advance

        def traced(run, *args):
            before = run.done
            advance(run, *args)
            written.append((run, before, run.done))

        monkeypatch.setattr(dynamics._FreeRun, "advance", traced)
        config = load_preset("fig2").with_overrides(n_traj=40).scenarios[0]
        result = run_scenario(config)
        n = config.grid.n_samples
        (run, first, stop), (again, resume, end) = written
        assert again is run and (first, resume, end) == (0, stop, n) and 1 < stop < n
        assert result.columns["survival"] is run.survival


class TestBlockSweeps:
    def test_mixing_channel_block_is_swept_again_and_matches_replays(self, monkeypatch):
        # one dense channel maps the model's one block into itself
        _reentered_block_matches_replays(monkeypatch, "mixing_channel")

    def test_blocks_are_swept_in_the_order_their_maps_give(self, monkeypatch):
        # dark_block: the excited state, block 0, decays into block 1, so block 0
        # is swept first; on the presets every loss lowers the sector, so the
        # sectors go from the top down.  Each block is swept once
        h, collapse, psi0 = dark_block_model()
        grid = TimeGrid(t_end=20.0, n_samples=21)
        assert dynamics._sweep_order(block_structure(h, collapse, psi0)) == [0, 1]
        sweeps = _counted(monkeypatch, "_sweep")
        ens = mcwf_ensemble(h, collapse, psi0, grid, n_traj=50, master_seed=1,
                            observables={"e": np.diag([1.0, 0.0, 0.0])})
        assert ens.jumps_per_channel.sum() > 0
        assert [args[1] for args in sweeps] == [1]
        for name in ("fig2", "n3", "n4"):
            config, model, psi0 = preset_problem(name)
            structure = block_structure(model.h, model.collapse, psi0)
            top = config.max_excitation
            assert dynamics._sweep_order(structure) == list(range(top, -1, -1))
            sweeps.clear()
            grid = TimeGrid(t_end=99 * config.grid.spacing, n_samples=100, dt=config.grid.dt)
            mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=40, master_seed=1,
                          observables=preset_projectors(config, model), keep_rho=True)
            assert [args[1] for args in sweeps] == list(range(top - 1, -1, -1)), name

    def test_later_jumps_are_resolved_in_one_pass_a_block(self, monkeypatch):
        # fig2 at 200 trajectories: 400 jumps, each block's crossings in one
        # pass, which carries every row to the end of its interval
        config, model, psi0 = preset_problem("fig2")
        passes = _counted(monkeypatch, "_jump_pass")
        ens = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=200,
                            master_seed=config.master_seed,
                            observables=preset_projectors(config, model))
        assert ens.jumps_per_channel.sum() == 400
        assert [args[1] for args in passes] == [2, 1]


def _vacuum_ensemble(name, n_traj, **kwargs):
    """A preset's ensemble with a projector on its vacuum, the one still
    block, and the vacuum's block number."""
    config, model, psi0 = preset_problem(name)
    vacuum = np.diag((model.n_tot == 0).astype(float))
    ens = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=n_traj,
                        master_seed=config.master_seed, observables={"vac": vacuum}, **kwargs)
    still = [b for b, blk in enumerate(ens._machinery.blocks) if blk.still]
    assert len(still) == 1 and ens._machinery.blocks[still[0]].index.tolist() == [0]
    return config, ens, still[0]


class TestStillBlocks:
    # the vacuum: H is 0 there in the cavity's rotating frame and no channel
    # acts, so its generator vanishes and its step is exactly I
    @pytest.mark.parametrize("name", ["fig2", "n3"])
    def test_still_block_is_reduced_once_per_arrival_sample(self, monkeypatch, name):
        # the projector's support is the vacuum alone, so only the vacuum's
        # sweep reduces, and it does so at each distinct arrival sample
        reductions = _counted(monkeypatch, "_reduce")
        config, ens, _ = _vacuum_ensemble(name, 200)
        entry = ens.absorbing_entry
        arrivals = np.unique(entry[entry < config.grid.n_samples])
        assert 1 < len(arrivals) < config.grid.n_samples - arrivals[0]
        assert len(reductions) == len(arrivals)
        assert all(rows.shape[1] == 1 for _, rows in reductions)

    @pytest.mark.parametrize("name", ["fig2", "n3"])
    def test_still_block_writes_the_absorbed_count(self, name):
        # each row in the vacuum adds 1/n to ρ̄'s 1×1 slice and to the
        # projector's mean, from its absorbing entry on; between two arrival
        # samples the slice keeps its bits
        n_traj = 120
        config, ens, vac = _vacuum_ensemble(name, n_traj, keep_rho=True)
        offsets = ens._machinery.structure.offsets
        slice_ = ens.rho_blocks.entries[:, offsets[vac]]
        entry = ens.absorbing_entry
        absorbed = (entry[None, :] <= np.arange(config.grid.n_samples)[:, None]).sum(axis=1)
        assert absorbed[-1] == n_traj
        assert np.abs(slice_ * n_traj - absorbed).max() <= 1e-12
        assert np.abs(ens.mean_observables["vac"] - absorbed / n_traj).max() <= 1e-12
        still = np.flatnonzero(np.diff(absorbed) == 0) + 1
        assert len(still) and (slice_[still] == slice_[still - 1]).all()

    def test_recorded_rows_are_constant_from_the_absorbing_entry_on(self):
        config, model, psi0 = preset_problem("fig2")
        grid = config.grid
        for j in range(3):
            traj = mcwf_trajectory(model.h, model.collapse, psi0, grid, (config.master_seed, j))
            entry = np.searchsorted(grid.times, traj.jumps[-1][0])
            assert 1 < entry < grid.n_samples - 1
            assert (traj.states[entry:] == traj.states[entry]).all()

    @pytest.mark.parametrize("name", ["fig2", "n4"])
    def test_no_descent_runs_on_the_still_block(self, monkeypatch, name):
        # a row that jumps into the vacuum joins its arrivals at the end of
        # its interval, without a step or a descent there
        descents = _counted(monkeypatch, "_descend")
        _, ens, vac = _vacuum_ensemble(name, 40)
        assert (ens.absorbing_entry < ens._machinery.grid.n_samples).all()
        vacuum_pows = ens._machinery.blocks[vac].r_pows
        assert descents and all(args[0] is not vacuum_pows for args in descents)

    def test_passes_are_sized_on_the_blocks_they_can_reach(self, monkeypatch):
        # n3 (blocks of 1, 6, 18 and 38 states) at 2 000 trajectories: a pass
        # from a lower block takes as many rows on the blocks it can reach as
        # fit in a chunk on the 38-state block, which batch_bytes counts
        config, model, psi0 = preset_problem("n3")
        n_traj = 2000
        passes = _counted(monkeypatch, "_jump_pass")
        ens = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=n_traj,
                            master_seed=config.master_seed)
        dims = [len(blk.index) for blk in ens._machinery.blocks]
        assert dims == [1, 6, 18, 38]
        row_bytes = dynamics._pass_row_bytes
        term = min(n_traj, dynamics._pass_rows(38)) * row_bytes(38)
        per_block = {}
        for _, b, cols, *_ in passes:
            # every loss lowers the sector, so b is the largest block its rows reach
            assert len(cols) * row_bytes(dims[b]) <= term
            per_block.setdefault(b, []).append(len(cols))
        for b, sizes in per_block.items():
            step = term // row_bytes(dims[b])
            assert sizes == [step] * (len(sizes) - 1) + [sizes[-1]] and sizes[-1] <= step
        assert sorted(per_block) == [1, 2, 3]
        assert len(passes) == 7


@functools.lru_cache(maxsize=None)
def oracle_at_blas_threads(threads):
    """``lindblad_evolve`` on two sites at n_max = 4 from |4-, G> (blocks of 1, 4,
    8, 12 and 16 states), run twice in a fresh process at ``threads`` BLAS threads."""
    script = textwrap.dedent("""\
        import sys
        import numpy as np
        from jchsim.dynamics import TimeGrid, lindblad_evolve
        from jchsim.model import ModelParams, build_reduced_model
        model = build_reduced_model(ModelParams(n_sites=2, hop=0.03, gamma=0.05, n_max=4),
                                    max_exc=4)
        psi0 = model.space.product_state(("4-", "G"))
        runs = [lindblad_evolve(model.h, model.collapse, np.outer(psi0, psi0.conj()),
                                TimeGrid(t_end=5.0, n_samples=11, dt=0.005))
                for _ in range(2)]
        np.save(sys.stdout.buffer, np.array(runs))
        """)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=True, timeout=60)
    return np.load(io.BytesIO(done.stdout))


class TestDeterminism:
    def test_ensemble_reruns_byte_identical(self):
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        grid = TimeGrid(t_end=50.0, n_samples=26, dt=0.005)
        op = np.diag(np.arange(model.dim, dtype=np.float64))
        runs = [mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=60,
                              master_seed=42, observables={"x": op})
                for _ in range(2)]
        assert runs[0].mean_observables["x"].tobytes() == \
            runs[1].mean_observables["x"].tobytes()

    def test_ensemble_is_mean_of_trajectory_replays(self):
        # trajectory j of the ensemble is mcwf_trajectory(seed=(master_seed, j)),
        # so the result cannot depend on how trajectories are grouped
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        grid = TimeGrid(t_end=50.0, n_samples=26, dt=0.005)
        op = np.diag(np.arange(model.dim, dtype=np.float64))
        ens = mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=30,
                            master_seed=5, observables={"x": op})
        replays = [mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=(5, j))
                   for j in range(30)]
        per_traj = [np.einsum("ni,ij,nj->n", r.states.conj(), op, r.states).real
                    for r in replays]
        assert sum(len(r.jumps) for r in replays) > 0
        assert np.abs(ens.mean_observables["x"] - np.mean(per_traj, axis=0)).max() < 1e-12

    @pytest.mark.parametrize("name", ["fig2", "n3", "n4"])
    def test_results_do_not_depend_on_batch_composition(self, name):
        # the first 7 trajectories of a 64-column batch are those of a 7-column
        # batch and of 7 one-column replays
        config, model, psi0 = preset_problem(name)
        grid, seed = config.grid, config.master_seed
        obs = preset_projectors(config, model)
        small, large = (mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=n,
                                      master_seed=seed, observables=obs) for n in (7, 64))
        assert np.array_equal(large.jumps_per_channel[:7], small.jumps_per_channel)
        assert np.array_equal(large.absorbing_entry[:7], small.absorbing_entry)
        batch = dynamics._propagate(large._machinery, 64, lambda j: (seed, j))
        jumps = _column_jumps(batch)
        per_traj = []
        for j in range(7):
            replay = mcwf_trajectory(model.h, model.collapse, psi0, grid, (seed, j))
            assert [c for _, c in jumps[j]] == [c for _, c in replay.jumps]
            assert np.abs(np.subtract(jumps[j], replay.jumps)).max() < 1e-10
            per_traj.append([_batched_expectation(replay.states, op) for op in obs.values()])
        assert sum(len(record) for record in jumps[:7]) == 7 * config.max_excitation
        means = np.mean(per_traj, axis=0)
        for o, key in enumerate(obs):
            assert np.abs(small.mean_observables[key] - means[o]).max() < 1e-12

    def test_trajectory_seed_stream_is_stable(self):
        # the same (master seed, index) pair always reproduces a trajectory,
        # independently of which other trajectories run around it
        params, model, psi0 = two_site_model(hop=0.03, gamma=0.05)
        grid = TimeGrid(t_end=50.0, n_samples=26, dt=0.005)
        alone = mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=(8, 3))
        again = mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=(8, 3))
        assert np.array_equal(alone.states, again.states)
        assert alone.jumps == again.jumps

    def test_oracle_reruns_bitwise_at_each_blas_thread_count(self):
        # 481 coordinates of ρ, products large enough for the BLAS to split
        one, two = (oracle_at_blas_threads(threads) for threads in ("1", "2"))
        for first, again in (one, two):
            assert np.array_equal(first, again)
        assert np.abs(one[0] - two[0]).max() < 1e-14

    @pytest.mark.xfail(strict=True, reason=(
        "OpenBLAS sums a product it splits over threads in an order that depends "
        "on the thread count: a 481² dgemm differs in its last bits at 1 and 2 "
        "threads on a 2-core machine, and so does a complex zgemm, so the oracle "
        "agrees across thread counts only to roundoff"))
    def test_oracle_independent_of_blas_threads(self):
        one, two = (oracle_at_blas_threads(threads) for threads in ("1", "2"))
        assert np.array_equal(one[0], two[0])


class TestMemoryGuards:
    def test_trajectory_rows_over_budget_raise_before_allocating(self, monkeypatch):
        # 10⁶ trajectories of 41 samples of one observable on a 4-dim model of
        # four one-state blocks: 10⁶ · (41 · 8 + (4 + 6 · 1) · 16 + 1 280 + 3 · 24)
        # bytes of rows, live states with the sweep's copies, its held crossing
        # rows and the waiting arrivals, objects and jump records; the jump-free
        # run's 41 states and survivals, 41 · (4 · 16 + 8); and one chunk of the
        # jump pass, 6 241 rows of 10 · 16 + 512 bytes
        h, collapse, a = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0

        def never(*args, **kwargs):
            raise AssertionError("the batch ran")

        # the batch's own guard, in _propagate, raises before the jump-free run exists
        monkeypatch.setattr(dynamics, "_FreeRun", never)
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=r"the ensemble of 1000000 trajectories: "
                                                r"the jump-free run, observable rows, live "
                                                r"states needs 1844196904 bytes"):
                mcwf_ensemble(h, collapse, psi0, TimeGrid(t_end=10.0, n_samples=41),
                              n_traj=10**6, master_seed=0, observables={"n": a.conj().T @ a})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing per trajectory exists by then: no seed, Generator or counted array
        assert peak < 2**18

    def test_model_and_projector_over_budget_raise_before_allocating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built")

        space = excitation_basis(ModelParams(n_sites=2, n_max=4), max_exc=4)
        monkeypatch.setattr(model_module, "excitation_basis", never)
        monkeypatch.setattr(ReducedSpace, "product_state", never)
        # two damped sites at n_max = 45: H and two loss operators on 4 141 states
        with pytest.raises(SizeError, match=r"^H and 2 loss operators on 4141 states needs "
                                            r"823098288 bytes, above the budget 268435456$"):
            build_reduced_model(ModelParams(n_sites=2, n_max=45, hop=0.03, gamma=0.05), 45)
        # one projector on 41 states, 26 896 bytes, under a budget a byte short
        monkeypatch.setattr(linalg, "MEMORY_CAP", 41 ** 2 * 16 - 1)
        with pytest.raises(SizeError, match=r"^projector P\(4-,G\) on 41 states needs 26896 "):
            ProjectorSpec(labels=("4-", "G")).operator(space.params, space)

    def test_accepted_batch_peaks_below_its_count(self, monkeypatch):
        # 10 000 trajectories of a damped mode from two photons: each holds a
        # Generator and its seed tuple, with a crossing row's draw about 1.1 KB
        # of Python objects, against 64 bytes of state, 96 of the sweep's copies, held
        # crossing rows and waiting arrivals and 24 of observable rows; the
        # jump-free run keeps 3 states of 4 amplitudes and their survivals,
        # and the jump pass takes chunks of 6 241 rows of 672 bytes
        h, collapse, a = damped_mode()
        psi0 = np.zeros(4, dtype=np.complex128)
        psi0[2] = 1.0
        counts = []
        guard = dynamics.check_budget
        monkeypatch.setattr(dynamics, "check_budget",
                            lambda n_bytes, what: (counts.append(n_bytes), guard(n_bytes, what)))
        tracemalloc.start()
        try:
            ens = mcwf_ensemble(h, collapse, psi0, TimeGrid(t_end=0.4, n_samples=3),
                                n_traj=10_000, master_seed=0, observables={"n": a.conj().T @ a})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ens.jumps_per_channel.sum(axis=1) == 2).any()
        assert counts == [10_000 * (3 * 8 + (4 + 6 * 1) * 16 + 1280 + 3 * 24)
                          + 3 * (4 * 16 + 8) + 6241 * (10 * 16 + 512)]
        assert peak < counts[0]

        # n3 and n4 over their first 40 samples, where the first jumps out of
        # their top blocks of 38 and 192 states are resolved in one pass, in
        # chunks of 636 and 134 rows, and rows of the lower sectors cross and
        # are resolved in one pass a sector after its sweep: the rows, their
        # products, the copies that stay, the held crossing rows and the
        # arrivals waiting for the next sector.  The batch's own peak, above
        # what its blocks already hold, and each pass's, above the arrivals it
        # hands on
        peaks, passes, highs = [], [], []
        propagate, jump_pass = dynamics._propagate, dynamics._jump_pass

        def traced(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            highs.clear()
            batch = propagate(*args, **kwargs)
            peaks.append(max([tracemalloc.get_traced_memory()[1]] + highs) - start)
            return batch

        def traced_pass(*args):
            highs.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            jump_pass(*args)
            now, peak = tracemalloc.get_traced_memory()
            passes.append(peak - now)
            highs.append(peak)

        monkeypatch.setattr(dynamics, "_propagate", traced)
        monkeypatch.setattr(dynamics, "_jump_pass", traced_pass)
        for name, n_traj, dims, chunk in (("n3", 600, [1, 6, 18, 38], 600),
                                          ("n4", 600, [1, 8, 32, 88, 192], 134)):
            config, model, psi0 = preset_problem(name)
            grid = TimeGrid(t_end=39 * config.grid.spacing, n_samples=40, dt=config.grid.dt)
            counts.clear()
            passes.clear()
            tracemalloc.start()
            try:
                ens = mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=n_traj,
                                    master_seed=1, observables=preset_projectors(config, model))
            finally:
                tracemalloc.stop()
            assert ens.jumps_per_channel.sum() > n_traj
            k = max(dims)
            first_pass = chunk * (10 * k * 16 + 512)
            assert counts == [n_traj * (2 * 40 * 8 + (sum(dims) + 6 * k) * 16 + 1280
                                        + (len(dims) - 1) * 24)
                              + 40 * (sum(dims) * 16 + 8) + first_pass]
            assert peaks[-1] < counts[0], name
            assert len(passes) > 1 and max(passes) < first_pass, name

    def test_jump_free_branch_peaks_below_its_count(self, monkeypatch):
        # the recorded states and survival, 560 · (dim · 16 + 8) bytes, and the
        # reduction's temporaries, counted on the largest block, where the
        # supports of the preset projectors hold at most 4, 8 and 16 states;
        # the reduction reads each support as basis columns of the recorded
        # states, so the start block is never copied out of them.  A fresh
        # branch counts as a batch of one, with one row of the jump pass
        counts = []
        guard = dynamics.check_budget
        monkeypatch.setattr(dynamics, "check_budget",
                            lambda n_bytes, what: (counts.append(n_bytes), guard(n_bytes, what)))
        for name, dims in (("fig2", [1, 4, 8]), ("n3", [1, 6, 18, 38]),
                           ("n4", [1, 8, 32, 88, 192])):
            config, model, psi0 = preset_problem(name)
            observables = preset_projectors(config, model)
            ens = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=2,
                                master_seed=1, observables=observables)
            n_obs, k = len(observables), max(dims)
            reduction = 560 * (3 * k * 16 + 16 + 2 * n_obs * 8)
            record = (560 * (sum(dims) * 16 + 8) + reduction + (sum(dims) + 6 * k) * 16
                      + 1280 + (len(dims) - 1) * 24 + 10 * k * 16 + 512)
            # the ensemble's branch writes on the ensemble's run: it adds the reduction;
            # a branch on the same blocks with a run of its own counts that run too
            for call, count in ((ens.jump_free_branch, reduction),
                                (lambda: dynamics._jump_free_branch(ens._machinery), record)):
                counts.clear()
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert counts == [count]
                assert peak <= counts[0], name

    def test_keep_rho_over_budget_raises_before_allocating(self):
        params = ModelParams(n_sites=4, hop=0.03, gamma=0.05, n_max=4)
        model = build_reduced_model(params, max_exc=4)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(("4-", "G", "G", "G"), params))
        grid = TimeGrid(t_end=1500.0, n_samples=601, dt=0.005)
        # blocks of 1, 8, 32, 88 and 192 states: (601 + 1) · 45 697 · 16 bytes for
        # ρ̄'s entries, rows and columns, 2 · (321 + 6 · 192) · 16 for the live
        # states, the sweep's copies, held crossing rows and waiting arrivals,
        # 2 · (1 280 + 4 · 24) for the trajectories' objects and jump records,
        # 601 · (321 · 16 + 8) for the jump-free run and 2 · (10 · 192 · 16 + 512)
        # for the jump pass
        with pytest.raises(SizeError, match=r"live states, ρ̄'s block entries over 601 samples "
                                            r"needs 443357400 bytes"):
            mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=2,
                          master_seed=0, keep_rho=True)

    def test_record_paths_and_negativity_raise_before_allocating(self, monkeypatch):
        # fig2: a recorded run keeps 560 states of 13 amplitudes and a survival
        # a sample, 560 · (13 · 16 + 8) bytes, its live state and the sweep's
        # copies, (13 + 6 · 8) · 16, its objects and a jump record for each of
        # two sectors, 1 280 + 2 · 24, and one row of the jump pass,
        # 10 · 8 · 16 + 512; an ensemble's branch writes on the ensemble's
        # run and adds the reduction of its three projectors alone,
        # 560 · (3 · 8 · 16 + 16 + 2 · 3 · 8);
        # ρ̄'s partial transpose has blocks of at most 9 states, held twice with
        # their eigenvalues: 560 · (2 · 9² + 9) · 16 bytes
        config, model, psi0 = preset_problem("fig2")
        grid = config.grid
        ens = mcwf_ensemble(model.h, model.collapse, psi0, grid, n_traj=4, master_seed=1,
                            observables=preset_projectors(config, model), keep_rho=True)

        def never(*args, **kwargs):
            raise AssertionError("allocated past the guard")

        monkeypatch.setattr(dynamics, "_FreeRun", never)
        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        record = 560 * (13 * 16 + 8) + (13 + 6 * 8) * 16 + 1280 + 2 * 24 + 10 * 8 * 16 + 512
        calls = [
            (560 * (3 * 8 * 16 + 16 + 2 * 3 * 8), "the jump-free branch: the reduction",
             ens.jump_free_branch),
            (record, "the jump-free branch",
             lambda: no_jump_branch(model.h, model.collapse, psi0, grid)),
            (record, "the trajectory",
             lambda: mcwf_trajectory(model.h, model.collapse, psi0, grid, seed=3)),
            (560 * (2 * 9 ** 2 + 9) * 16,
             "the partial transpose's largest block, 9 states over 560 samples,",
             lambda: block_negativity(ens.rho_blocks, model.space, 1)),
        ]
        for n_bytes, what, call in calls:
            # a budget one byte short of the count
            monkeypatch.setattr(linalg, "MEMORY_CAP", n_bytes - 1)
            tracemalloc.start()
            try:
                with pytest.raises(SizeError) as err:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(err.value).startswith(what)
            assert str(err.value).endswith(f" needs {n_bytes} bytes, above the budget "
                                           f"{n_bytes - 1}")
            assert peak < n_bytes

    def test_kept_rho_stays_below_one_dense_stack(self):
        # n3's ρ̄ is 560 samples of 1 805 block entries, 16.2 MB; one dense
        # (560, 63, 63) stack alone would be 35.6 MB
        config = load_preset("n3").scenarios[0]
        model = build_reduced_model(config.model, config.max_excitation)
        psi0 = model.space.product_state(config.initial)
        tracemalloc.start()
        try:
            ens = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=2,
                                master_seed=1, keep_rho=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = config.grid.n_samples
        assert ens.rho_blocks.entries.shape == (n, 1805)
        assert peak < n * model.dim ** 2 * 16

    def test_lindblad_peak_stays_under_its_count(self, monkeypatch):
        # blocks of 1, 4, 8, 12 and 16 states: a real generator on 481 coordinates
        # of ρ (1.85 MB); _taylor4 and matrix_power hold four of them at their peaks
        counted = []
        monkeypatch.setattr(dynamics, "check_budget", lambda n_bytes, what: counted.append(n_bytes))
        params = ModelParams(n_sites=2, hop=0.03, gamma=0.05, n_max=4)
        model = build_reduced_model(params, max_exc=4)
        psi0 = model.space.product_state(("4-", "G"))
        rho0 = np.outer(psi0, psi0.conj())
        # seven steps a sample: matrix_power keeps its running product and square
        grid = TimeGrid(t_end=0.35, n_samples=11, dt=0.005)
        tracemalloc.start()
        try:
            lindblad_evolve(model.h, model.collapse, rho0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted == [4 * 481 ** 2 * 8 + 11 * (481 * 8 + 41 ** 2 * 16)]
        assert 3 * 481 ** 2 * 8 < peak <= counted[0]
