"""Input rules and linear algebra: invariants as property tests."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jchsim.config import CriticalitySweepConfig, scenario_from_mapping, sweep_from_mapping
from jchsim.dynamics import TimeGrid
from jchsim.errors import ConfigError, NotHermitianError, SizeError
from jchsim.linalg import as_complex_matrix, min_labels, partial_transpose, require_hermitian
from jchsim.model import (ModelParams, PolaritonLabel, excitation_basis,
                          hopping_coefficients, mixing_angle, site_operators)
from jchsim.observables import (block_negativity, classify_series, recommended_spacing,
                                reduced_bipartition)
from jchsim.presets import load_preset

from conftest import random_density_matrix

dims_pairs = st.tuples(st.integers(2, 4), st.integers(2, 4))
seeds = st.integers(0, 2**32 - 1)


class TestHermitian:
    def test_require_hermitian_accepts_and_rejects(self):
        require_hermitian(np.diag([1.0, 2.0]))
        with pytest.raises(NotHermitianError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [1, 2, 35, 36, 925])
    def test_deviation_is_the_full_maximum(self, dim):
        # the blocks of rows cover the matrix: the worst entry is found wherever it is
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + a.conj().T
        for i, j in [(0, dim - 1), (dim - 1, 0), (dim // 2, dim // 3)]:
            bad = a.copy()
            bad[i, j] += 1e-3 * (1 + 1j)
            want = np.max(np.abs(bad - bad.conj().T))
            with pytest.raises(NotHermitianError, match=f"by {want:.3e} "):
                require_hermitian(bad)
        assert require_hermitian(a) is not None

    def test_no_dim_squared_temporaries(self):
        # a 925-dim complex matrix takes 13.7 MB; the check holds under a quarter
        rng = np.random.default_rng(3)
        a = rng.normal(size=(925, 925)) + 1j * rng.normal(size=(925, 925))
        a = np.ascontiguousarray(a + a.conj().T)
        tracemalloc.start()
        try:
            require_hermitian(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4

    def test_as_complex_matrix_rejects_nonsquare(self):
        with pytest.raises(SizeError):
            as_complex_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                     complex(1.0, -math.inf)])
    def test_as_complex_matrix_rejects_non_finite_entries(self, bad):
        m = np.eye(3, dtype=np.complex128)
        m[2, 1] = bad
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            as_complex_matrix(m)

    def test_as_complex_matrix_takes_the_empty_matrix(self):
        assert as_complex_matrix(np.zeros((0, 0))).shape == (0, 0)

    def test_finiteness_check_forms_no_matrix_sized_temporary(self):
        # n4's 321 states: a finiteness mask of the floats would be 206 KB
        a = np.ones((321, 321), dtype=np.complex128)
        tracemalloc.start()
        try:
            assert as_complex_matrix(a) is a
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 321 ** 2


class TestMinLabels:
    def test_components_labelled_by_their_smallest_node(self):
        # links 5-1, 1-3 and 4-0, given in an order that needs several passes
        i, j = np.array([5, 1, 4]), np.array([1, 3, 0])
        assert min_labels(np.arange(7), i, j).tolist() == [0, 1, 2, 1, 0, 1, 6]

    def test_given_classes_are_kept_and_merged(self):
        # {0, 2} and {3, 5} already merged; one link joins 5 to 4
        labels = np.array([0, 1, 0, 3, 4, 3])
        merged = min_labels(labels, np.array([4]), np.array([5]))
        assert merged.tolist() == [0, 1, 0, 3, 3, 3]
        assert min_labels(labels, np.array([], dtype=int),
                          np.array([], dtype=int)) is labels


class TestPartialTranspose:
    @given(dims_pairs, seeds)
    def test_involution(self, dims, seed):
        da, db = dims
        rho = random_density_matrix(np.random.default_rng(seed), da * db)
        td = (da, db)
        assert np.allclose(partial_transpose(partial_transpose(rho, td), td), rho)

    @given(dims_pairs, seeds)
    def test_trace_and_hermiticity_preserved(self, dims, seed):
        da, db = dims
        rho = random_density_matrix(np.random.default_rng(seed), da * db)
        td = (da, db)
        pt = partial_transpose(rho, td)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.allclose(pt, pt.conj().T)

    @given(dims_pairs, seeds)
    def test_transposing_both_factors_is_full_transpose(self, dims, seed):
        da, db = dims
        rho = random_density_matrix(np.random.default_rng(seed), da * db)
        td = (da, db)
        both = partial_transpose(partial_transpose(rho, td, which=0), td, which=1)
        assert np.allclose(both, rho.T)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(3)
        ra = random_density_matrix(rng, 3)
        rb = random_density_matrix(rng, 2)
        rho = np.kron(ra, rb)
        td = (3, 2)
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(partial_transpose(rho, td)))
        assert np.allclose(before, after)

    @pytest.mark.parametrize("which", [0, 1])
    def test_stack_is_transposed_matrix_by_matrix(self, which):
        rng = np.random.default_rng(4)
        td = (2, 3)
        stack = np.array([random_density_matrix(rng, 6) for _ in range(4)]).reshape(2, 2, 6, 6)
        pt = partial_transpose(stack, td, which=which)
        assert pt.shape == stack.shape
        for idx in np.ndindex(2, 2):
            assert np.array_equal(pt[idx], partial_transpose(stack[idx], td, which=which))

    @pytest.mark.parametrize("bad", [(6,), (2, 3, 1), (0, 6), (2.5, 2), (True, 6)])
    def test_rejects_bad_pairs(self, bad):
        with pytest.raises(SizeError, match=r"^dims: need (a pair of integers|an integer) >= 1"):
            partial_transpose(np.eye(6) / 6, bad)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(SizeError):
            partial_transpose(np.eye(5) / 5, (2, 3))
        with pytest.raises(SizeError):
            partial_transpose(np.ones((2, 6, 5)), (2, 3))



# ---------------------------------------------------------------------------
# the whole-number rule: each entry point that takes a count, cutoff, cut,
# label or seed, with the value under test in one argument

_RHO8 = random_density_matrix(np.random.default_rng(8), 8)
_SPACE3 = excitation_basis(ModelParams(n_sites=3, hop=0.03, n_max=2), max_exc=2)
_STACK3 = np.array([np.diag(np.arange(_SPACE3.dim) == k).astype(complex) for k in (1, 5)])
_FIG2 = load_preset("fig2").scenarios[0]


def _from_mapping(n_traj):
    return scenario_from_mapping({
        "model": {"n_sites": 2, "n_max": 2}, "initial": {"labels": ["2-", "G"]},
        "grid": {"t_end": 10.0, "n_samples": 6}, "run": {"n_traj": n_traj}})


# entry: (call with the value, a whole value it takes, the error, its message's
# start, the least value taken)
RULE_ENTRIES = {
    "ModelParams.n_sites": (lambda v: ModelParams(n_sites=v), 2, ConfigError, "n_sites: ", 1),
    "ModelParams.n_max": (lambda v: ModelParams(n_sites=2, n_max=v), 2, ConfigError,
                          "n_max: ", 1),
    "PolaritonLabel.n": (lambda v: PolaritonLabel(v, "minus"), 2, ConfigError, "n: ", 0),
    "site_operators.n_max": (site_operators, 2, ConfigError, "n_max: ", 1),
    "mixing_angle.n": (lambda v: mixing_angle(v, 0.3), 2, ValueError, "n: ", 1),
    "hopping_coefficients.n": (lambda v: hopping_coefficients(v, 0.3), 2, ValueError, "n: ", 1),
    "excitation_basis.max_exc": (lambda v: excitation_basis(ModelParams(n_sites=2, n_max=2), v),
                                 2, ConfigError, "max_exc: ", 0),
    "partial_transpose.dims": (lambda v: partial_transpose(_RHO8, (v, 4)), 2, SizeError,
                               "dims: ", 1),
    "reduced_bipartition.site_dims": (lambda v: reduced_bipartition(_RHO8, (v, 2, 2), 1), 2,
                                      SizeError, "site_dims: ", 1),
    "reduced_bipartition.cut": (lambda v: reduced_bipartition(_RHO8, (2, 2, 2), v), 2,
                                SizeError, "cut: ", 1),
    "block_negativity.cut": (lambda v: block_negativity(_STACK3, _SPACE3, v), 2, SizeError,
                             "cut: ", 1),
    "ScenarioConfig.n_traj": (lambda v: replace(_FIG2, n_traj=v), 20, ConfigError,
                              "run.n_traj: ", 1),
    "ScenarioConfig.master_seed": (lambda v: replace(_FIG2, master_seed=v), 3, ConfigError,
                                   "run.master_seed: ", 0),
    "ScenarioConfig.bipartition_cut": (
        lambda v: replace(load_preset("n3").scenarios[0], bipartition_cut=v),
        2, ConfigError, "observables.bipartition_cut: ", 1),
    "config run.n_traj": (_from_mapping, 3, ConfigError, "run.n_traj: ", 1),
}


def _plain(result):
    """A result in a form that compares equal only if its numbers have the same types."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, tuple):
        return tuple(_plain(item) for item in result)
    return repr(getattr(result, "__dict__", result))


class TestWholeNumberRule:
    @pytest.mark.parametrize("entry", RULE_ENTRIES)
    @pytest.mark.parametrize("value", [True, 1.5, math.nan, "2", "least - 1"])
    def test_refused_naming_the_argument(self, entry, value):
        call, good, error, start, least = RULE_ENTRIES[entry]
        value = least - 1 if value == "least - 1" else value
        if entry == "config run.n_traj" and value == "2":
            # a config file's text is read by int()
            assert _plain(call(value)) == _plain(call(2))
            return
        with pytest.raises(error) as err:
            call(value)
        message = str(err.value)
        assert message.startswith(start) and repr(value) in message, message
        assert type(err.value) is error
        assert getattr(err.value, "problems", [message]) == [message]

    @pytest.mark.parametrize("entry", RULE_ENTRIES)
    def test_whole_floats_run_as_their_ints(self, entry):
        call, good, _, _, _ = RULE_ENTRIES[entry]
        assert _plain(call(float(good))) == _plain(call(good))
        assert _plain(call(np.int64(good))) == _plain(call(good))


# ---------------------------------------------------------------------------
# the real-number rule: each entry point that takes a rate, frequency, time,
# step or threshold, with the value under test in one argument

_TIMES = np.linspace(0.0, 20.0, 201)
_SERIES = np.sin(_TIMES) ** 2
_J = (0.02, 0.04, 0.06)


# entry: (call with the value, a value it takes, its message's start, a finite
# number outside its range or None)
REAL_ENTRIES = {
    "ModelParams.g": (lambda v: ModelParams(n_sites=2, g=v), 2.0, "g: ", 0.0),
    "ModelParams.hop": (lambda v: ModelParams(n_sites=2, hop=v), 0.03, "hop: ", None),
    "ModelParams.gamma": (lambda v: ModelParams(n_sites=2, gamma=(0.05, v)), 0.05,
                          "gamma: ", -0.05),
    "ModelParams.omega_a": (lambda v: ModelParams(n_sites=2, omega_a=v), 0.9, "omega_a: ", None),
    "ModelParams.omega_c": (lambda v: ModelParams(n_sites=2, omega_c=v), 0.9, "omega_c: ", None),
    "TimeGrid.t_end": (lambda v: TimeGrid(t_end=v, n_samples=6), 10.0, "t_end: ", None),
    "TimeGrid.t_start": (lambda v: TimeGrid(t_end=20.0, n_samples=6, t_start=v), 10.0,
                         "t_start: ", None),
    "TimeGrid.dt": (lambda v: TimeGrid(t_end=10.0, n_samples=6, dt=v), 0.005, "dt: ", 0.0),
    "TimeGrid.with_spacing.t_end": (lambda v: TimeGrid.with_spacing(v, 2.0), 10.0,
                                    "t_end: ", None),
    "TimeGrid.with_spacing.spacing": (lambda v: TimeGrid.with_spacing(10.0, v), 2.0,
                                      "spacing: ", 0.0),
    "TimeGrid.with_spacing.dt": (lambda v: TimeGrid.with_spacing(10.0, 2.0, dt=v), 0.005,
                                 "dt: ", 0.0),
    "recommended_spacing.dt": (lambda v: recommended_spacing(ModelParams(n_sites=2, n_max=2), v),
                               0.005, "dt: ", 0.0),
    "classify_series.beat_period": (lambda v: classify_series(_SERIES, _TIMES, beat_period=v),
                                    2.0, "beat_period: ", 0.0),
    "sweep.j_values": (lambda v: CriticalitySweepConfig(j_values=(0.02, 0.04, v)), 0.06,
                       "sweep.j_values: ", -0.06),
    "sweep.gamma_ratios": (lambda v: CriticalitySweepConfig(j_values=_J, gamma_ratios=(0.5, v)),
                           1.0, "sweep.gamma_ratios: ", -1.0),
    "sweep.delta": (lambda v: CriticalitySweepConfig(j_values=_J, delta=v), 0.3,
                    "sweep.delta: ", None),
    "sweep.g": (lambda v: CriticalitySweepConfig(j_values=_J, coupling=v), 1.0, "model.g: ", 0.0),
    "sweep.t_end": (lambda v: CriticalitySweepConfig(j_values=_J, t_end=v), 150.0,
                    "grid.t_end: ", None),
    "sweep.t_start": (lambda v: CriticalitySweepConfig(j_values=_J, t_start=v), 10.0,
                      "grid.t_start: ", None),
    "sweep.dt": (lambda v: CriticalitySweepConfig(j_values=_J, dt=v), 0.005, "grid.dt: ", 0.0),
    "sweep.prominence_threshold": (
        lambda v: CriticalitySweepConfig(j_values=_J, prominence_threshold=v), 0.05,
        "classifier.prominence_threshold: ", 1.0),
    "sweep.t_min": (lambda v: CriticalitySweepConfig(j_values=_J, t_min=v), 1.0,
                    "classifier.t_min: ", -1.0),
}


class TestRealNumberRule:
    @pytest.mark.parametrize("entry", REAL_ENTRIES)
    @pytest.mark.parametrize("value", [True, "2", math.nan, math.inf, "beyond"])
    def test_refused_naming_the_argument(self, entry, value):
        call, good, start, beyond = REAL_ENTRIES[entry]
        if value == "beyond":
            if beyond is None:
                return
            value = beyond
        with pytest.raises(ConfigError) as err:
            call(value)
        message = str(err.value)
        assert message.startswith(start) and repr(value) in message, message
        assert err.value.problems == [message]

    @pytest.mark.parametrize("entry", REAL_ENTRIES)
    def test_numpy_and_whole_numbers_run(self, entry):
        call, good, _, _ = REAL_ENTRIES[entry]
        call(good)
        call(np.float64(good))
        if good == int(good):
            call(int(good))

    def test_rates_and_grid_stored_as_floats(self):
        params = ModelParams(n_sites=2, g=np.float64(2), hop=1, gamma=[0, np.int64(1)],
                             omega_a=np.int64(1))
        grid = TimeGrid(t_end=10, n_samples=6, dt=np.float64(0.005), t_start=np.int64(0))
        sweep = CriticalitySweepConfig(j_values=(1, 2, np.int64(3)), gamma_ratios=(1,),
                                       prominence_threshold=np.float64(0.05), t_min=1)
        for value in (*params.g, *params.hop, *params.gamma, params.omega_a, params.omega_c,
                      grid.t_end, grid.t_start, grid.dt, *sweep.j_values, *sweep.gamma_ratios,
                      sweep.prominence_threshold, sweep.t_min):
            assert type(value) is float

    @pytest.mark.parametrize("hop", [True, "x", math.nan])
    def test_one_site_hop_checked_though_it_has_no_bond(self, hop):
        with pytest.raises(ConfigError) as err:
            ModelParams(n_sites=1, hop=hop)
        assert err.value.problems == [f"hop: must be a finite number, got {hop!r}"]

    @pytest.mark.parametrize("call", [
        lambda: TimeGrid(t_end=1e308, t_start=-1e308, n_samples=2),
        lambda: TimeGrid.with_spacing(1e308, 1.0, t_start=-1e308),
    ])
    def test_span_beyond_the_float_range_refused(self, call):
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.problems == ["t_end - t_start: must be a finite number, got inf"]

    def test_step_ratio_beyond_the_float_range_refused(self):
        with pytest.raises(ConfigError) as err:
            TimeGrid(t_end=1e300, n_samples=2, dt=1e-300)
        assert err.value.problems == ["spacing/dt: must be a finite number, got inf"]

    def test_config_text_still_read_as_numbers(self):
        sweep = sweep_from_mapping({"sweep": {"j_values": "0.02, 0.04, 0.06", "delta": "0.3"},
                                    "model": {"g": "1.5"}, "grid": {"t_end": "150"}})
        assert sweep.j_values == _J and sweep.delta == 0.3 and sweep.coupling == 1.5
        config = scenario_from_mapping({
            "model": {"n_sites": "2", "n_max": "2", "hop": "0.03", "gamma": "0.05, 0.0"},
            "initial": {"labels": "2-, G"}, "grid": {"t_end": "10", "n_samples": "6"}})
        assert config.model.hop == (0.03,) and config.model.gamma == (0.05, 0.0)
        assert config.grid.t_end == 10.0
