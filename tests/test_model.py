"""Model layer: labels, dressed states, operator mapping, reduced spaces."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jchsim import linalg
from jchsim.errors import ConfigError, SizeError, TruncationError
from jchsim.model import (GROUND, MINUS, ModelParams, PolaritonLabel, basis_bytes,
                          build_reduced_model, checked_labels, creation_in_polariton_basis,
                          dressed_basis_matrix, dressed_state, excitation_basis, excitation_dim,
                          hopping_coefficients, mixing_angle, polariton_energy,
                          prepare_product_polariton_state, sector_dims, site_operators,
                          transform_to_dressed_basis)
from jchsim.observables import ProjectorSpec
from jchsim.presets import PRESET_NAMES, load_preset

from conftest import (build_full_hamiltonian, collapse_operators, embed, restrict,
                      total_excitation_operator)

detunings = st.floats(-3.0, 3.0, allow_nan=False)

# (ModelParams keywords, max_exc): uniform and site-dependent couplings,
# detuned both ways, undamped sites, max_exc below n_max
REDUCED_CASES = [
    pytest.param(dict(n_sites=1, n_max=3, omega_a=0.4, g=1.2, gamma=0.07), 2,
                 id="one-site"),
    pytest.param(dict(n_sites=2, n_max=2, hop=0.03, gamma=0.05), 2, id="two-sites-uniform"),
    pytest.param(dict(n_sites=2, n_max=3, omega_a=-0.6, g=(0.9, 1.3), hop=0.04,
                      gamma=(0.0, 0.08)), 2, id="two-sites"),
    pytest.param(dict(n_sites=3, n_max=2, omega_a=0.3, g=(1.0, 0.8, 1.1),
                      hop=(0.05, -0.02), gamma=(0.1, 0.0, 0.03)), 1, id="three-sites-one-excitation"),
    pytest.param(dict(n_sites=3, n_max=3, omega_a=-0.2, g=(1.1, 0.7, 1.0),
                      hop=(0.02, 0.06), gamma=(0.04, 0.09, 0.02)), 2, id="three-sites"),
]


class TestLabels:
    @pytest.mark.parametrize("text,n,branch", [
        ("G", 0, "g"), ("g", 0, "g"), ("0", 0, "g"),
        ("1-", 1, "-"), ("2-", 2, "-"), ("3+", 3, "+"),
    ])
    def test_parse_roundtrip(self, text, n, branch):
        label = PolaritonLabel.parse(text)
        assert label.n == n
        if branch == "g":
            assert str(label) == "G"
        else:
            assert str(label) == f"{n}{branch}"
        assert PolaritonLabel.parse(str(label)) == label

    @pytest.mark.parametrize("bad", ["", "x", "1*", "-2", "+"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            PolaritonLabel.parse(bad)

    def test_ground_iff_zero(self):
        with pytest.raises(ConfigError):
            PolaritonLabel(0, "-")
        with pytest.raises(ConfigError):
            PolaritonLabel(1, "g")


class TestDressedStates:
    def test_mixing_angle_zero_detuning(self):
        assert mixing_angle(1, 0.0) == pytest.approx(math.pi / 4)
        assert mixing_angle(2, 0.0) == pytest.approx(math.pi / 4)

    @given(st.integers(1, 4), detunings)
    def test_mixing_angle_in_open_interval(self, n, delta):
        theta = mixing_angle(n, delta)
        assert 0.0 < theta < math.pi / 2

    def test_energies_at_zero_detuning(self):
        params = ModelParams(n_sites=1, n_max=2)
        e1 = polariton_energy(PolaritonLabel.minus(1), params)
        e2 = polariton_energy(PolaritonLabel.minus(2), params)
        assert e1 == pytest.approx(-1.0)
        assert e2 == pytest.approx(-math.sqrt(2.0))
        mismatch = e2 - 2.0 * e1
        assert mismatch == pytest.approx(2.0 - math.sqrt(2.0))

    @given(detunings, st.integers(1, 3))
    def test_dressed_states_are_site_eigenvectors(self, delta, n):
        params = ModelParams(n_sites=1, omega_a=delta, n_max=3)
        h = build_full_hamiltonian(params)
        for label in (PolaritonLabel.minus(n), PolaritonLabel.plus(n)):
            v = dressed_state(label, params)
            e = polariton_energy(label, params)
            assert np.allclose(h @ v, e * v, atol=1e-10)

    def test_dressed_basis_is_unitary(self):
        params = ModelParams(n_sites=1, omega_a=0.7, n_max=3)
        u = dressed_basis_matrix(params)
        assert np.allclose(u.conj().T @ u, np.eye(params.site_dim), atol=1e-12)

    def test_energy_beyond_cutoff_raises(self):
        params = ModelParams(n_sites=1, n_max=1)
        with pytest.raises(TruncationError):
            polariton_energy(PolaritonLabel.minus(2), params)

    def test_energy_is_in_the_cavity_frame(self):
        # no photon energy: |1-> at zero detuning lies g below the vacuum
        params = ModelParams(n_sites=1, g=1.3)
        assert polariton_energy(PolaritonLabel.minus(1), params) == -1.3


class TestCavityFrame:
    def test_cavity_frequency_is_not_an_input(self):
        # energies are in the frame rotating at the cavity frequency, which
        # leaves every table unchanged: omega_c is a constant, not a field
        assert ModelParams.omega_c == 0.0
        assert "omega_c" not in {f.name for f in dataclasses.fields(ModelParams)}
        assert ModelParams(n_sites=2).omega_c == 0.0
        with pytest.raises(TypeError):
            ModelParams(n_sites=2, omega_c=0.1)

    @pytest.mark.parametrize("kwargs,max_exc", REDUCED_CASES)
    def test_diagonal_is_the_detuning_per_excited_atom(self, kwargs, max_exc):
        params = ModelParams(**kwargs)
        model = build_reduced_model(params, max_exc=max_exc)
        excited = model.space.states[..., 1].sum(axis=1)
        assert np.array_equal(model.h.diagonal(), params.omega_a * excited)


class TestOperatorMapping:
    def test_ladder_coefficients_zero_detuning_targets(self):
        co = hopping_coefficients(2, 0.0)
        assert co.k_plus == pytest.approx(0.2071, abs=1e-3)
        assert co.c_plus == pytest.approx(1.2071, abs=1e-3)
        assert co.c_minus == pytest.approx(1.2071, abs=1e-3)
        first = hopping_coefficients(1, 0.0)
        assert first.k_plus == 0.0 == first.k_minus

    @given(st.tuples(detunings, detunings).filter(
        lambda p: abs(p[1]) - abs(p[0]) > 1e-6))
    def test_branch_preserving_coefficients_grow_with_detuning(self, pair):
        lo, hi = pair
        for n in (1, 2):
            assert (hopping_coefficients(n, abs(hi)).c_minus
                    > hopping_coefficients(n, abs(lo)).c_minus)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.0, 0.9, 2.0])
    def test_creation_operator_matches_change_of_basis(self, n_max, delta):
        params = ModelParams(n_sites=1, omega_a=delta, n_max=n_max)
        rebuilt = creation_in_polariton_basis(params)
        oracle = transform_to_dressed_basis(site_operators(n_max).a_dag, params)
        trunc = params.site_dim - 1
        mask = np.ones_like(oracle, dtype=bool)
        mask[trunc, :] = mask[:, trunc] = False
        assert np.abs((rebuilt - oracle) * mask).max() <= 1e-10


class TestFullModel:
    def test_hamiltonian_hermitian_and_conserves_excitation(self):
        params = ModelParams(n_sites=2, hop=0.05, n_max=2)
        h = build_full_hamiltonian(params)
        n_tot = total_excitation_operator(params)
        assert np.allclose(h, h.conj().T)
        assert np.abs(h @ n_tot - n_tot @ h).max() < 1e-12

    def test_collapse_operators_lower_excitation_by_one(self):
        params = ModelParams(n_sites=2, hop=0.05, gamma=0.1, n_max=2)
        n_tot = total_excitation_operator(params)
        for op in collapse_operators(params):
            assert np.allclose(n_tot @ op - op @ n_tot, -op, atol=1e-12)

    def test_collapse_rates_scale_with_gamma(self):
        params = ModelParams(n_sites=2, hop=0.05, gamma=(0.04, 0.09), n_max=1)
        ops = collapse_operators(params)
        assert len(ops) == 2
        ratio = np.abs(ops[1]).max() / np.abs(ops[0]).max()
        assert ratio == pytest.approx(math.sqrt(0.09 / 0.04))


class TestReducedSpace:
    @pytest.mark.parametrize("n_sites,n_max,expected_dim", [
        (2, 2, 13), (3, 3, 63), (4, 4, 321), (8, 2, 145),
    ])
    def test_sector_sum_dimensions(self, n_sites, n_max, expected_dim):
        params = ModelParams(n_sites=n_sites, hop=0.03, gamma=0.05, n_max=n_max)
        space = excitation_basis(params, max_exc=n_max)
        assert space.dim == expected_dim == excitation_dim(n_sites, n_max)
        assert np.array_equal(space.index_of(space.states), np.arange(space.dim))
        outside = np.zeros((1, n_sites, 2), dtype=np.int64)
        outside[0, 0] = (n_max, 1)
        with pytest.raises(SizeError):
            space.index_of(outside)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
    @pytest.mark.parametrize("max_exc", [0, 1, 2, 4])
    def test_dimension_counted_without_the_basis(self, n_sites, max_exc):
        space = excitation_basis(ModelParams(n_sites=n_sites, n_max=4), max_exc)
        assert excitation_dim(n_sites, max_exc) == space.dim

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
    @pytest.mark.parametrize("max_exc", [0, 1, 2, 4])
    def test_sectors_counted_without_the_basis(self, n_sites, max_exc):
        space = excitation_basis(ModelParams(n_sites=n_sites, n_max=4), max_exc)
        assert sector_dims(n_sites, max_exc) == np.bincount(
            space.n_tot, minlength=max_exc + 1).tolist()

    @pytest.mark.parametrize("n_sites,max_exc", [(1, 3), (2, 45), (3, 3), (4, 4), (5, 8),
                                                 (6, 2), (8, 3)])
    def test_basis_peak_stays_under_its_count(self, n_sites, max_exc):
        params = ModelParams(n_sites=n_sites, n_max=max_exc)
        tracemalloc.start()
        try:
            excitation_basis(params, max_exc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= basis_bytes(params, max_exc)
        if peak > 2**20:
            assert basis_bytes(params, max_exc) < 1.5 * peak

    def test_basis_over_budget_refused_before_enumerating(self, monkeypatch):
        # six sites at n_max = 12: 369 305 states, 238 862 192 bytes at the peak
        params = ModelParams(n_sites=6, n_max=12)
        assert basis_bytes(params, 12) == 238862192
        monkeypatch.setattr(linalg, "MEMORY_CAP", 238862192 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=r"^the basis of 6 sites with at most 12 "
                                                r"excitations needs 238862192 bytes"):
                excitation_basis(params, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_basis_cost_does_not_follow_the_photon_cutoff(self):
        # a site_dim-long array here would take 16 GB
        space = excitation_basis(ModelParams(n_sites=1, n_max=10**9), max_exc=1)
        assert space.states.tolist() == [[[0, 0]], [[1, 0]], [[0, 1]]]
        assert space.full_indices.tolist() == [0, 1, 10**9 + 1]

    def test_product_indices_stay_inside_int64(self):
        # 31 sites at n_max = 1 span 4**31 = 2**62 product states; 32 sites
        # would wrap the int64 indices, so the basis refuses them
        space = excitation_basis(ModelParams(n_sites=31, n_max=1), max_exc=1)
        assert space.dim == 63
        assert (np.diff(space.full_indices) > 0).all()
        assert space.full_indices[-1] == 2 * 4**30
        with pytest.raises(SizeError, match="int64"):
            excitation_basis(ModelParams(n_sites=32, n_max=1), max_exc=1)

    def test_reduce_embed_roundtrip(self):
        params = ModelParams(n_sites=2, hop=0.03, gamma=0.05, n_max=2)
        space = excitation_basis(params, max_exc=2)
        rng = np.random.default_rng(7)
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        assert np.allclose(space.reduce_vector(embed(v, space)), v)

    def test_embed_density_preserves_trace(self):
        params = ModelParams(n_sites=2, hop=0.03, gamma=0.05, n_max=2)
        space = excitation_basis(params, max_exc=2)
        rng = np.random.default_rng(8)
        m = rng.normal(size=(space.dim, space.dim)) * 1j + rng.normal(
            size=(space.dim, space.dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        full = space.embed_density(rho)
        assert full.shape == (params.dim, params.dim)
        assert np.trace(full).real == pytest.approx(1.0)
        stack = space.embed_density(np.stack([rho, 2.0 * rho, rho.conj()]))
        assert stack.shape == (3, params.dim, params.dim)
        assert np.array_equal(stack, [full, 2.0 * full, full.conj()])

    def test_embed_density_counts_the_leading_axes(self):
        # one 36-dim product-space matrix takes 20 736 bytes; a stack of 12 945
        # fits the budget, and one more is refused before its allocation
        space = excitation_basis(ModelParams(n_sites=2, n_max=2), max_exc=2)
        rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
        assert space.embed_density(rho).nbytes == 20736
        with pytest.raises(SizeError, match=r"a \(12946, 36, 36\) product-space stack "
                                            "needs 268448256 bytes, above the budget"):
            space.embed_density(np.broadcast_to(rho, (12946,) + rho.shape))

    @pytest.mark.parametrize("kwargs,max_exc", REDUCED_CASES)
    def test_reduced_hamiltonian_matches_projected_full(self, kwargs, max_exc):
        params = ModelParams(**kwargs)
        model = build_reduced_model(params, max_exc=max_exc)
        h_full = build_full_hamiltonian(params)
        assert np.allclose(model.h, restrict(h_full, model.space))
        n_full = restrict(total_excitation_operator(params), model.space)
        assert np.allclose(model.space.n_tot, n_full.diagonal(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kwargs,max_exc", REDUCED_CASES)
    def test_reduced_collapse_matches_projected_full(self, kwargs, max_exc):
        params = ModelParams(**kwargs)
        model = build_reduced_model(params, max_exc=max_exc)
        full_ops = collapse_operators(params)
        assert len(model.collapse) == len(full_ops)
        for reduced, full in zip(model.collapse, full_ops):
            assert np.allclose(reduced, restrict(full, model.space))

    def test_collapse_maps_stay_inside_reduced_space(self):
        # applying the full-space loss to any embedded basis vector must
        # land back inside the span of the kept excitation sectors
        params = ModelParams(n_sites=2, hop=0.03, gamma=0.05, n_max=2)
        model = build_reduced_model(params, max_exc=2)
        full_ops = collapse_operators(params)
        for k in range(model.space.dim):
            v = np.zeros(model.space.dim, dtype=np.complex128)
            v[k] = 1.0
            full_v = embed(v, model.space)
            for full in full_ops:
                image = full @ full_v
                back = embed(model.space.reduce_vector(image), model.space)
                assert np.allclose(back, image, atol=1e-12)


def _preset_states():
    """(params, max_exc, labels) of every preset ψ0 and projector ordering."""
    for name in PRESET_NAMES:
        bundle = load_preset(name)
        if bundle.sweep is not None:
            sweep = bundle.sweep
            hop = sweep.j_values[0]
            configs = [(sweep.model_for(hop, hop), 2, ("2-", "G"),
                        [ProjectorSpec(preset="P11")])]
        else:
            configs = [(cfg.model, cfg.max_excitation, cfg.initial, cfg.observables)
                       for cfg in bundle.scenarios]
        for params, max_exc, initial, specs in configs:
            yield name, params, max_exc, initial
            for spec in specs:
                labels = spec.resolved_labels
                for ordering in (sorted(set(itertools.permutations(labels)))
                                 if spec.symmetrize else [labels]):
                    yield name, params, max_exc, ordering


class TestInitialStates:
    def test_reduced_product_state_is_the_sliced_product_vector_bitwise(self):
        seen = set()
        for name, params, max_exc, labels in _preset_states():
            space = excitation_basis(params, max_exc)
            ref = space.reduce_vector(prepare_product_polariton_state(labels, params))
            assert space.product_state(labels).tobytes() == ref.tobytes(), (name, labels)
            seen.add(name)
        assert seen == set(PRESET_NAMES)

    def test_reduced_product_state_truncation(self):
        space = excitation_basis(ModelParams(n_sites=2, n_max=1), max_exc=1)
        with pytest.raises(TruncationError, match="cutoff"):
            space.product_state(("2-", "G"))        # beyond the photon cutoff
        space = excitation_basis(ModelParams(n_sites=2, n_max=2), max_exc=1)
        with pytest.raises(TruncationError, match="excitations"):
            space.product_state(("1-", "1+"))       # beyond the basis's budget
        with pytest.raises(SizeError):
            space.product_state(("1-",))

    def test_product_state_is_normalized_and_projects(self):
        params = ModelParams(n_sites=2, hop=0.03, n_max=2)
        psi = prepare_product_polariton_state(("2-", "G"), params)
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        other = prepare_product_polariton_state(("1-", "1-"), params)
        assert abs(np.vdot(psi, other)) < 1e-12

    def test_product_state_over_the_budget_refused(self):
        # 10 sites of 6 states: 6**10 amplitudes of 16 bytes (9 sites, 161 MB, would fit)
        with pytest.raises(SizeError, match="a 60466176-dim product state needs "
                                            "967458816 bytes, above the budget"):
            prepare_product_polariton_state(["G"] * 10, ModelParams(n_sites=10, n_max=2))

    def test_cutoff_violation_raises(self):
        params = ModelParams(n_sites=2, hop=0.03, n_max=1)
        with pytest.raises(TruncationError):
            prepare_product_polariton_state(("2-", "G"), params)


class TestInputRules:
    """One case for each model rule that no other test reaches."""

    def test_rate_list_of_the_wrong_length_refused(self):
        with pytest.raises(ConfigError) as err:
            ModelParams(n_sites=3, gamma=[0.1, 0.2])
        assert err.value.problems == ["gamma: expected 3 entries, got 2"]

    @pytest.mark.parametrize("n, branch", [(0, MINUS), (2, GROUND)])
    def test_label_whose_count_and_branch_disagree_refused(self, n, branch):
        with pytest.raises(ConfigError) as err:
            PolaritonLabel(n, branch)
        assert err.value.problems == [f"label ({n}, {branch}): n = 0 iff branch is ground"]

    def test_dressed_state_beyond_the_cutoff_refused(self):
        with pytest.raises(TruncationError, match=r"^\|3-> needs 3 photons, cutoff is 2$"):
            dressed_state(PolaritonLabel.minus(3), ModelParams(n_sites=1, n_max=2))

    def test_every_unparseable_label_named(self):
        with pytest.raises(ConfigError) as err:
            checked_labels(["x", "2-", "1*"], ModelParams(n_sites=3, n_max=2), field="initial")
        assert [p.split(" (")[0] for p in err.value.problems] == [
            "initial: bad label 'x'", "initial: bad label '1*'"]

    def test_vector_of_the_wrong_shape_or_outside_the_basis_refused(self):
        params = ModelParams(n_sites=2, n_max=2)
        space = excitation_basis(params, max_exc=1)
        with pytest.raises(SizeError, match=r"^vector shape \(9,\) does not match full dim 36$"):
            space.reduce_vector(np.zeros(9, dtype=np.complex128))
        outside = prepare_product_polariton_state(("2-", "G"), params)
        with pytest.raises(TruncationError, match=r"^state has weight 1\.000e\+00 outside "
                                                  "the excitation subspace$"):
            space.reduce_vector(outside)
