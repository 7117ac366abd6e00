"""Tensor-space linear algebra: invariants as property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jchsim.errors import NotHermitianError, SizeError
from jchsim.linalg import (TensorDims, as_complex_matrix, min_labels,
                           partial_transpose, require_hermitian)

from conftest import random_density_matrix

dims_pairs = st.tuples(st.integers(2, 4), st.integers(2, 4))
seeds = st.integers(0, 2**32 - 1)


class TestTensorDims:
    def test_total_and_len(self):
        td = TensorDims((2, 3, 4))
        assert td.total == 24
        assert len(td) == 3

    def test_coerce_passthrough_and_sequence(self):
        td = TensorDims((2, 3))
        assert TensorDims.coerce(td) is td
        assert TensorDims.coerce([2, 3]) == td

    @pytest.mark.parametrize("bad", [(), (0,), (2, -1), (2, 2.5)])
    def test_rejects_bad_factors(self, bad):
        with pytest.raises(SizeError):
            TensorDims(tuple(bad))


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
        import tracemalloc
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
        td = TensorDims((da, db))
        assert np.allclose(partial_transpose(partial_transpose(rho, td), td), rho)

    @given(dims_pairs, seeds)
    def test_trace_and_hermiticity_preserved(self, dims, seed):
        da, db = dims
        rho = random_density_matrix(np.random.default_rng(seed), da * db)
        td = TensorDims((da, db))
        pt = partial_transpose(rho, td)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.allclose(pt, pt.conj().T)

    @given(dims_pairs, seeds)
    def test_transposing_both_factors_is_full_transpose(self, dims, seed):
        da, db = dims
        rho = random_density_matrix(np.random.default_rng(seed), da * db)
        td = TensorDims((da, db))
        both = partial_transpose(partial_transpose(rho, td, which=0), td, which=1)
        assert np.allclose(both, rho.T)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(3)
        ra = random_density_matrix(rng, 3)
        rb = random_density_matrix(rng, 2)
        rho = np.kron(ra, rb)
        td = TensorDims((3, 2))
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(partial_transpose(rho, td)))
        assert np.allclose(before, after)

    @pytest.mark.parametrize("which", [0, 1])
    def test_stack_is_transposed_matrix_by_matrix(self, which):
        rng = np.random.default_rng(4)
        td = TensorDims((2, 3))
        stack = np.array([random_density_matrix(rng, 6) for _ in range(4)]).reshape(2, 2, 6, 6)
        pt = partial_transpose(stack, td, which=which)
        assert pt.shape == stack.shape
        for idx in np.ndindex(2, 2):
            assert np.array_equal(pt[idx], partial_transpose(stack[idx], td, which=which))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(SizeError):
            partial_transpose(np.eye(5) / 5, TensorDims((2, 3)))
        with pytest.raises(SizeError):
            partial_transpose(np.ones((2, 6, 5)), TensorDims((2, 3)))

