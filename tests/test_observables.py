"""Entanglement measures, projector algebra, and peak classification."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jchsim
from jchsim import observables as observables_module
from jchsim.dynamics import batch_bytes, lindblad_evolve, mcwf_ensemble, rho_bytes
from jchsim.errors import ConfigError, SizeError
from jchsim.linalg import BlockDensity, partial_transpose
from jchsim.model import (ModelParams, build_reduced_model, excitation_basis,
                          prepare_product_polariton_state, sector_dims)
from jchsim.observables import (DEFAULT_BURN_IN, PROJECTOR_PRESETS,
                                ProjectorSpec, block_negativity, blockade_beat_period,
                                classify_series, find_peaks, negativity,
                                negativity_series, recommended_spacing,
                                reduced_bipartition, transpose_block_bound, transpose_bytes)
from jchsim.presets import load_preset
from jchsim.runner import run_scenario

from conftest import (dense_stack, oracle_negativity, random_density_matrix, random_unitary,
                      two_site_model)


def bell_pair() -> np.ndarray:
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


class TestNegativity:
    def test_bell_pair_is_half(self):
        assert negativity(bell_pair(), (2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_is_exactly_zero(self):
        rho = np.zeros((4, 4), dtype=np.complex128)
        rho[0, 0] = 1.0
        value = negativity(rho, (2, 2))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0   # not -0.0

    def test_maximally_entangled_qutrits(self):
        psi = np.zeros(9, dtype=np.complex128)
        for k in range(3):
            psi[4 * k] = 1.0 / math.sqrt(3.0)
        assert negativity(np.outer(psi, psi.conj()), (3, 3)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_trace_norm_identity(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, 6)
            eigs = np.linalg.eigvalsh(partial_transpose(rho, (2, 3), which=1))
            from_trace_norm = 0.5 * (np.abs(eigs).sum() - 1.0)
            assert negativity(rho, (2, 3)) == pytest.approx(
                max(from_trace_norm, 0.0), abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng, 6)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = u @ rho @ u.conj().T
            assert negativity(rotated, (2, 3)) == pytest.approx(
                negativity(rho, (2, 3)), abs=1e-9)

    def test_symmetric_under_factor_swap(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng, 6)
            perm = np.arange(6).reshape(2, 3).T.reshape(-1)
            swapped = rho[np.ix_(perm, perm)]
            assert negativity(swapped, (3, 2)) == pytest.approx(
                negativity(rho, (2, 3)), abs=1e-9)

    def test_separable_mixture_stays_ppt(self, rng):
        # convex mixtures of product states never show negativity
        rho = np.zeros((6, 6), dtype=np.complex128)
        for _ in range(5):
            a = random_unitary(rng, 2)[:, 0]
            b = random_unitary(rng, 3)[:, 0]
            vec = np.kron(a, b)
            rho += rng.uniform(0.1, 1.0) * np.outer(vec, vec.conj())
        rho /= np.trace(rho).real
        assert negativity(rho, (2, 3)) == pytest.approx(0.0, abs=1e-12)

    @given(theta=st.floats(0.0, math.pi / 2))
    @settings(max_examples=30)
    def test_pure_two_level_closed_form(self, theta):
        # cos·|00> + sin·|11>  ->  N = |cos·sin|
        psi = np.zeros(4, dtype=np.complex128)
        psi[0], psi[3] = math.cos(theta), math.sin(theta)
        expected = abs(math.cos(theta) * math.sin(theta))
        assert negativity(np.outer(psi, psi.conj()), (2, 2)) == \
            pytest.approx(expected, abs=1e-12)

    def test_negativity_series_maps_over_stack(self, rng):
        stack = np.array([random_density_matrix(rng, 4) for _ in range(3)])
        series = negativity_series(stack, (2, 2))
        assert series == pytest.approx([negativity(r, (2, 2)) for r in stack])

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2, 4, 4)])
    def test_negativity_series_refuses_what_is_not_a_stack(self, shape):
        with pytest.raises(SizeError, match=rf"^expected an \(n, d, d\) stack, got shape "
                                            rf"{re.escape(str(shape))}$"):
            negativity_series(np.zeros(shape), (2, 2))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (6, 6)])
    def test_series_equals_one_matrix_at_a_time_bitwise(self, rng, dims):
        # Hermitian stacks whose partial transposes have from none to about
        # half of their eigenvalues negative, so every prefix length occurs
        d = dims[0] * dims[1]
        m = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
        stack = m + m.conj().transpose(0, 2, 1)
        stack[:5] = np.array([random_density_matrix(rng, d) for _ in range(5)])
        stack[5] = np.eye(d) / d
        expected = []
        for rho in stack:
            eigs = np.linalg.eigvalsh(partial_transpose(rho, dims, which=1))
            expected.append(float(-eigs[eigs < 0.0].sum()) + 0.0)
        assert negativity_series(stack, dims).tobytes() == np.array(expected).tobytes()

    def test_dimension_validation(self):
        with pytest.raises(SizeError):
            negativity(bell_pair(), (2, 3))
        with pytest.raises(SizeError):
            negativity(bell_pair(), (2, 2, 1))


def dense_negativity(space, rhos, cut: int) -> np.ndarray:
    """The product-space value: embed, regroup at ``cut``, transpose, ``eigvalsh``."""
    sd, n_sites = space.params.site_dim, space.params.n_sites
    return negativity_series(space.embed_density(rhos), (sd ** cut, sd ** (n_sites - cut)))


def sector_density(rng, space) -> np.ndarray:
    """Random density matrix on ``space`` that commutes with the total excitation."""
    rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for sector in np.unique(space.n_tot):
        idx = np.flatnonzero(space.n_tot == sector)
        rho[np.ix_(idx, idx)] = random_density_matrix(rng, len(idx)) * rng.uniform(0.1, 1.0)
    return rho / np.trace(rho).real


def block_sizes(monkeypatch) -> list:
    """The size of each block ``block_negativity`` diagonalizes from now on."""
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda stack: sizes.append(stack.shape[-1]) or eigvalsh(stack))
    return sizes


@pytest.fixture(scope="module")
def three_site_space():
    return excitation_basis(ModelParams(n_sites=3, hop=0.03, n_max=2), max_exc=2)


class TestBlockNegativity:
    """``block_negativity`` against the product-space ``negativity_series``."""

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3"])
    def test_scenario_averaged_state(self, monkeypatch, preset):
        for config in load_preset(preset).with_overrides(n_traj=3).scenarios:
            run = run_scenario(config)
            space = build_reduced_model(config.model, config.max_excitation).space
            dense = dense_stack(run.ensemble.rho_blocks, space.dim)
            expected = dense_negativity(space, dense, config.bipartition_cut)
            assert np.abs(run.columns["negativity"] - expected).max() <= 1e-12
            assert expected.max() > 0.01
            # ρ̄'s block entries read as their dense stack, bitwise
            assert (run.columns["negativity"].tobytes()
                    == block_negativity(dense, space, config.bipartition_cut).tobytes())
            if preset == "fig1":
                # lossless: some entries inside the block stay zero at every
                # sample, and the q = 0 class of 9 falls apart into two linked
                # parts; it is still one block
                assert not (run.ensemble.rho_blocks.entries != 0).any(axis=0).all()
                with monkeypatch.context() as patch:
                    sizes = block_sizes(patch)
                    block_negativity(run.ensemble.rho_blocks, space, config.bipartition_cut)
                assert sorted(sizes) == [2, 2, 6, 6, 9]

    def test_sweep_point_stack(self):
        config = load_preset("fig4").sweep
        params = config.model_for(0.04, 0.04)
        model = build_reduced_model(params, max_exc=2)
        psi0 = model.space.reduce_vector(prepare_product_polariton_state(("2-", "G"), params))
        rhos = lindblad_evolve(model.h, model.collapse, np.outer(psi0, psi0.conj()),
                               config.grid_for(params))
        expected = dense_negativity(model.space, rhos, 1)
        assert np.abs(block_negativity(rhos, model.space, 1) - expected).max() <= 1e-12
        assert expected.max() > 0.01

    @pytest.mark.parametrize("cut", [1, 2])
    def test_three_site_averaged_state(self, cut):
        config = load_preset("n3").scenarios[0]
        model = build_reduced_model(config.model, config.max_excitation)
        psi0 = model.space.reduce_vector(
            prepare_product_polariton_state(config.initial, config.model))
        rho_blocks = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=4,
                                   master_seed=1, keep_rho=True).rho_blocks
        # the product space has 512 dimensions: compare the early samples,
        # where ρ̄ is entangled, and every 112th
        picked = np.r_[0:10, 112::112]
        dense = dense_stack(rho_blocks, model.dim)
        expected = dense_negativity(model.space, dense[picked], cut)
        got = block_negativity(rho_blocks, model.space, cut)
        assert got.tobytes() == block_negativity(dense, model.space, cut).tobytes()
        assert np.abs(got[picked] - expected).max() <= 1e-12
        assert expected.max() > 1e-3

    def test_random_block_entries_with_an_empty_block(self, rng, three_site_space):
        space = three_site_space
        rows, cols = np.nonzero(space.n_tot[:, None] == space.n_tot[None, :])
        rhos = np.array([sector_density(rng, space) for _ in range(3)])
        one = np.flatnonzero(space.n_tot == 1)
        rhos[:, one[:, None], one] = 0.0
        blocks = BlockDensity(rhos[:, rows, cols], rows, cols)
        assert np.array_equal(dense_stack(blocks, space.dim), rhos)
        for cut in (1, 2):
            got = block_negativity(blocks, space, cut)
            assert got.tobytes() == block_negativity(rhos, space, cut).tobytes()
            assert np.abs(got - dense_negativity(space, rhos, cut)).max() <= 1e-12

    def test_load_time_term_bounds_rho_and_its_negativity(self):
        # ScenarioConfig counts n3's ρ̄ as 561 · 1 805 entries on its sectors, 16.2 MB,
        # and the partial transpose's largest block, at most 49 states, as 43.5 MB
        config = load_preset("n3").scenarios[0]
        model = build_reduced_model(config.model, config.max_excitation)
        psi0 = model.space.product_state(config.initial)
        tracemalloc.start()
        try:
            rho = mcwf_ensemble(model.h, model.collapse, psi0, config.grid, n_traj=2,
                                master_seed=1, keep_rho=True).rho_blocks
            block_negativity(rho, model.space, config.bipartition_cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, sectors = config.grid.n_samples, sector_dims(3, 3)
        assert transpose_block_bound(3, 3, config.bipartition_cut) == 49
        assert peak <= (rho_bytes(n, sectors) + transpose_bytes(n, 49)
                        + batch_bytes(2, 0, n, sectors))

    @pytest.mark.parametrize("n_sites,max_exc,cut,largest", [
        (2, 2, 1, 9), (3, 3, 1, 49), (3, 3, 2, 49), (4, 4, 1, 257), (6, 2, 3, 361)])
    def test_transpose_block_bound_is_the_largest_block(self, monkeypatch, n_sites, max_exc,
                                                        cut, largest):
        # a state with every entry of every sector block nonzero has the
        # largest partial-transpose blocks any such state can have: one per
        # excitation imbalance q, of Σ_a L_a·R_(a−q) states
        space = excitation_basis(ModelParams(n_sites=n_sites, n_max=max_exc), max_exc)
        rows, cols = np.nonzero(space.n_tot[:, None] == space.n_tot[None, :])
        seen, sizes = [], block_sizes(monkeypatch)
        monkeypatch.setattr(observables_module, "transpose_bytes",
                            lambda n, block: seen.append(block) or 0)
        block_negativity(BlockDensity(np.ones((1, len(rows))), rows, cols), space, cut)
        assert seen == [largest] == [transpose_block_bound(n_sites, max_exc, cut)]
        left, right = sector_dims(cut, max_exc), sector_dims(n_sites - cut, max_exc)
        classes = [sum(left[a] * right[a - q] for a in range(len(left)) if 0 <= a - q < len(right))
                   for q in range(-max_exc, max_exc + 1)]
        assert sorted(sizes) == sorted(k for k in classes if k)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_random_excitation_commuting_states(self, rng, three_site_space, cut):
        space = three_site_space
        rhos = np.array([sector_density(rng, space) for _ in range(4)])
        expected = dense_negativity(space, rhos, cut)
        assert np.abs(block_negativity(rhos, space, cut) - expected).max() <= 1e-12
        assert expected.min() > 0.0

    def test_random_dense_state(self, rng, three_site_space):
        # a dense state does not keep the total excitation: it is refused
        space = three_site_space
        for cut in (1, 2):
            with pytest.raises(ConfigError, match=r"^rho: entry \(\d+, \d+\) links excitation "
                                                  r"sectors \d and \d; "):
                block_negativity(random_density_matrix(rng, space.dim)[None], space, cut)

    def test_state_linking_sectors_is_refused(self, rng, three_site_space):
        space = three_site_space
        one, two = np.flatnonzero(space.n_tot == 1)[0], np.flatnonzero(space.n_tot == 2)[0]
        rhos = np.array([sector_density(rng, space) for _ in range(2)])
        rhos[1, one, two] = rhos[1, two, one] = 0.01
        for cut in (1, 2):
            with pytest.raises(ConfigError, match=rf"^rho: entry \({one}, {two}\) links "
                                                  r"excitation sectors 1 and 2; "):
                block_negativity(rhos, space, cut)

    def test_samples_with_different_patterns(self, rng, three_site_space):
        space = three_site_space
        mixed = sector_density(rng, space)
        rhos = np.array([mixed, np.diag(np.diag(mixed)), np.zeros_like(mixed), mixed])
        for cut in (1, 2):
            expected = dense_negativity(space, rhos, cut)
            got = block_negativity(rhos, space, cut)
            assert np.abs(got - expected).max() <= 1e-12
            assert got[1] == got[2] == 0.0
            assert got[0] == got[3] == block_negativity(rhos[:1], space, cut)[0]
            # a sample that links sectors is refused, whatever the others hold
            dense = random_density_matrix(rng, space.dim)[None]
            with pytest.raises(ConfigError, match=r"^rho: "):
                block_negativity(np.concatenate([rhos, dense]), space, cut)

    def test_zero_stack_and_validation(self, three_site_space):
        space = three_site_space
        zeros = np.zeros((2, space.dim, space.dim))
        assert block_negativity(zeros, space, 1).tolist() == [0.0, 0.0]
        with pytest.raises(SizeError):
            block_negativity(zeros, space, 0)
        with pytest.raises(SizeError):
            block_negativity(zeros, space, 3)
        with pytest.raises(SizeError):
            block_negativity(zeros[0], space, 1)


@pytest.fixture(scope="module")
def two_site():
    params = ModelParams(n_sites=2, hop=0.03, n_max=2)
    space = excitation_basis(params, max_exc=2)
    return params, space


class TestProjectors:

    def test_presets_are_projectors(self, two_site):
        params, space = two_site
        for preset in ("P20", "P02", "P11"):
            p = ProjectorSpec(preset=preset).operator(params, space)
            assert np.abs(p - p.conj().T).max() < 1e-12
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.trace(p).real == pytest.approx(1.0)

    def test_presets_mutually_orthogonal(self, two_site):
        params, space = two_site
        ops = [ProjectorSpec(preset=n).operator(params, space)
               for n in ("P20", "P02", "P11")]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(ops[i] @ ops[j]).max() < 1e-12

    def test_symmetrize_sums_permutations(self, two_site):
        params, space = two_site
        sym = ProjectorSpec(labels=("2-", "G"), symmetrize=True).operator(params, space)
        p20 = ProjectorSpec(preset="P20").operator(params, space)
        p02 = ProjectorSpec(preset="P02").operator(params, space)
        assert np.abs(sym - (p20 + p02)).max() < 1e-12

    def test_population_of_prepared_state(self, two_site):
        params, space = two_site
        psi = space.reduce_vector(
            prepare_product_polariton_state(("2-", "G"), params))
        p20, p11, p02 = (ProjectorSpec(preset=name).operator(params, space)
                         for name in ("P20", "P11", "P02"))
        assert np.vdot(psi, p20 @ psi).real == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(psi, p11 @ psi).real == pytest.approx(0.0, abs=1e-12)
        rho = np.outer(psi, psi.conj())
        assert np.trace(p02 @ rho).real == pytest.approx(0.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ProjectorSpec()                                   # neither
        with pytest.raises(ConfigError):
            ProjectorSpec(labels=("G",), preset="P11")        # both
        with pytest.raises(ConfigError):
            ProjectorSpec(preset="P99")
        with pytest.raises(ConfigError):
            ProjectorSpec(labels=("2?",))
        params = ModelParams(n_sites=2, n_max=2)
        with pytest.raises(SizeError):
            ProjectorSpec(preset="P111").operator(
                params, build_reduced_model(params, max_exc=2).space)

    def test_names(self):
        assert ProjectorSpec(preset="P11").name == "P11"
        assert ProjectorSpec(labels=("2-", "G")).name == "P(2-,G)"
        assert ProjectorSpec(labels=("2-", "G"), symmetrize=True).name == "P(2-,G)+perm"
        for preset, labels in PROJECTOR_PRESETS.items():
            assert ProjectorSpec(preset=preset).resolved_labels == labels


class TestBipartition:
    def test_two_sites_passthrough(self, rng):
        rho = random_density_matrix(rng, 9)
        out, dims = reduced_bipartition(rho, (3, 3), cut=1)
        assert out is rho or np.array_equal(out, rho)
        assert dims == (3, 3)

    def test_three_sites_regroups(self, rng):
        rho = random_density_matrix(rng, 8)
        _, left_cut = reduced_bipartition(rho, (2, 2, 2), cut=1)
        _, right_cut = reduced_bipartition(rho, (2, 2, 2), cut=2)
        assert left_cut == (2, 4)
        assert right_cut == (4, 2)

    def test_cut_position_consistent_for_symmetric_state(self):
        # W state is permutation-symmetric: both cuts give equal negativity
        psi = np.zeros(8, dtype=np.complex128)
        for idx in (1, 2, 4):
            psi[idx] = 1.0 / math.sqrt(3.0)
        rho = np.outer(psi, psi.conj())
        values = []
        for cut in (1, 2):
            mat, dims = reduced_bipartition(rho, (2, 2, 2), cut)
            values.append(negativity(mat, dims))
        assert values[0] == pytest.approx(values[1], abs=1e-12)
        assert values[0] > 0.4

    def test_validation(self, rng):
        rho = random_density_matrix(rng, 8)
        with pytest.raises(SizeError):
            reduced_bipartition(rho, (2, 2, 2), cut=0)
        with pytest.raises(SizeError):
            reduced_bipartition(rho, (2, 2, 2), cut=3)
        with pytest.raises(SizeError):
            reduced_bipartition(rho, (2, 2), cut=1)


class TestBeatPeriod:
    def test_resonant_value(self):
        params = ModelParams(n_sites=2, n_max=2)
        expected = 2.0 * math.pi / (2.0 - math.sqrt(2.0))
        assert blockade_beat_period(params) == pytest.approx(expected)

    def test_period_grows_with_detuning(self):
        periods = [blockade_beat_period(ModelParams(n_sites=2, omega_a=d, n_max=2))
                   for d in (0.0, 0.5, 0.9)]
        assert periods[0] < periods[1] < periods[2]

    def test_single_photon_cutoff_has_no_beat(self):
        assert blockade_beat_period(ModelParams(n_sites=2, n_max=1)) is None

    def test_vanishing_mismatch_has_no_beat(self):
        # far detuned, |n−> is nearly the bare n-photon state: E2 + E0 − 2E1
        # is about 2g⁴/δ³, and the computed value lies below 1e-12 at δ = 1e6
        assert blockade_beat_period(ModelParams(n_sites=2, omega_a=1e6, n_max=2)) is None

    def test_recommended_spacing_on_step_lattice(self):
        for delta in (0.0, 0.5, 0.9):
            params = ModelParams(n_sites=2, omega_a=delta, n_max=2)
            spacing = recommended_spacing(params)
            assert spacing / 0.005 == pytest.approx(round(spacing / 0.005))
            assert spacing == pytest.approx(blockade_beat_period(params) / 4.0,
                                            rel=0.01)

    def test_recommended_spacing_fallback(self):
        assert recommended_spacing(ModelParams(n_sites=2, n_max=1)) == \
            pytest.approx(2.5)


def gaussian(t, center, width, height=1.0):
    return height * np.exp(-0.5 * ((t - center) / width) ** 2)


class TestPeakFinding:
    def test_runtime_never_imports_scipy(self, tmp_path):
        # scipy is a test dependency only; importing scipy.signal alone takes about 1 s
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import jchsim\n"
            "from jchsim.cli import main\n"
            "t = np.linspace(0.0, 100.0, 401)\n"
            "jchsim.classify_series(np.exp(-0.5 * ((t - 40.0) / 8.0) ** 2), t)\n"
            "assert main(['run', '--preset', 'fig1', '--out', sys.argv[1]]) == 0\n"
            "print('scipy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(jchsim.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             capture_output=True, text=True, check=True, env=env,
                             timeout=120)
        assert out.stdout.splitlines()[-1] == "False"
        assert len(list(tmp_path.glob("fig1_*.csv"))) == 2

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 80),
           kind=st.sampled_from(["plateaus", "noise", "noise"]),
           threshold=st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0.0, 0.5)))
    @settings(max_examples=150)
    def test_matches_scipy_find_peaks(self, seed, size, kind, threshold):
        from scipy import signal
        rng = np.random.default_rng(seed)
        y = rng.random(size)
        if kind == "plateaus":
            # runs of equal samples, at the ends too, and prominences on the threshold
            y = np.round(4.0 * y) / 4.0
        t = np.arange(size, dtype=float)
        report = find_peaks(y, t, threshold)
        if y.max() > 0:
            idx, props = signal.find_peaks(y, prominence=threshold * y.max())
            assert report.peak_times.tolist() == idx.tolist()
            assert report.prominences.tobytes() == props["prominences"].tobytes()
        else:
            assert report.classification.kind == "NoPeak"

    def test_single_gaussian(self):
        t = np.linspace(0.0, 100.0, 401)
        report = find_peaks(gaussian(t, 40.0, 8.0), t)
        assert report.classification.kind == "SinglePeak"
        assert report.peak_times[0] == pytest.approx(40.0, abs=0.5)
        assert report.global_max == pytest.approx(1.0, abs=1e-6)

    def test_two_gaussians(self):
        t = np.linspace(0.0, 100.0, 401)
        y = gaussian(t, 30.0, 5.0) + gaussian(t, 70.0, 5.0, height=0.8)
        report = find_peaks(y, t)
        assert report.classification.kind == "MultiPeak"
        assert report.classification.count == 2

    def test_small_ripples_below_prominence_ignored(self):
        t = np.linspace(0.0, 100.0, 2001)
        y = gaussian(t, 50.0, 15.0) + 0.005 * (1.0 + np.sin(2.0 * np.pi * t / 3.0))
        report = find_peaks(y, t)
        assert report.classification.kind == "SinglePeak"

    def test_zero_series_is_no_peak(self):
        t = np.linspace(0.0, 10.0, 50)
        report = find_peaks(np.zeros_like(t), t)
        assert report.classification.kind == "NoPeak"
        assert report.classification.count == 0
        assert str(report.classification) == "NoPeak"

    def test_negative_series_rejected(self):
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ConfigError):
            find_peaks(np.sin(t), t)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SizeError):
            find_peaks(np.zeros(5), np.zeros(6))


class TestClassifySeries:
    def test_burn_in_hides_early_transient(self):
        t = np.linspace(0.0, 100.0, 401)
        y = gaussian(t, 0.3, 0.1, height=0.5) + gaussian(t, 50.0, 10.0)
        report = classify_series(y, t, t_min=2.0)
        assert report.classification.kind == "SinglePeak"

    def test_overdamped_monotone_decay_counts_as_boundary_single(self):
        t = np.linspace(0.0, 100.0, 401)
        y = np.exp(-t / 10.0)
        report = classify_series(y, t, t_min=DEFAULT_BURN_IN)
        assert report.classification.kind == "SinglePeak"
        assert report.boundary_peak
        assert report.peak_times[0] == pytest.approx(1.0, abs=0.3)

    def test_beat_notch_removes_known_fast_line(self):
        beat = 2.0 * math.pi / (2.0 - math.sqrt(2.0))
        t = np.arange(0.0, 150.0, beat / 4.0)
        envelope = gaussian(t, 60.0, 18.0)
        wiggly = envelope * (0.6 + 0.4 * np.cos(2.0 * np.pi * t / beat))
        raw = classify_series(wiggly, t)
        notched = classify_series(wiggly, t, beat_period=beat)
        assert raw.classification.kind == "MultiPeak"
        assert notched.classification.kind == "SinglePeak"
        assert notched.beat_filtered

    @pytest.mark.parametrize("t", [np.array([0.0, 5.0]), np.zeros(5)],
                             ids=["two_samples", "no_spacing"])
    def test_notch_skipped_without_two_taps_to_average(self, t):
        y = np.linspace(1.0, 0.0, len(t))
        report = classify_series(y, t, t_min=0.0, beat_period=2.0)
        assert not report.beat_filtered
        assert report.peak_times.tolist() == [0.0] and report.boundary_peak

    def test_notch_skipped_when_period_off_grid(self):
        t = np.linspace(0.0, 150.0, 301)
        y = gaussian(t, 60.0, 18.0)
        report = classify_series(y, t, beat_period=0.31)
        assert not report.beat_filtered
        assert report.classification.kind == "SinglePeak"

    def test_slow_double_revival_survives_notch(self):
        beat = 2.0 * math.pi / (2.0 - math.sqrt(2.0))
        t = np.arange(0.0, 150.0, beat / 4.0)
        y = gaussian(t, 35.0, 9.0) + gaussian(t, 100.0, 9.0, height=0.9)
        report = classify_series(y, t, beat_period=beat)
        assert report.classification.kind == "MultiPeak"


class TestClassifierOnModelDynamics:
    """End-to-end: exact density-matrix evolution feeding the classifier."""

    @pytest.mark.parametrize("gamma,expected_multi", [(0.02, True), (0.06, False)])
    def test_damping_splits_revival_regimes(self, gamma, expected_multi):
        params, model, psi0 = two_site_model(hop=0.06, gamma=gamma)
        grid, series = oracle_negativity(params, model, psi0, t_end=150.0)
        report = classify_series(series, grid.times,
                                 beat_period=blockade_beat_period(params))
        assert (report.classification.kind == "MultiPeak") == expected_multi
        if expected_multi:
            assert report.classification.count >= 2
        else:
            assert report.classification.kind == "SinglePeak"
