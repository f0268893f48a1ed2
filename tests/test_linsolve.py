import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm import MAX_DIM, NumericalFailure, reg_solve


class TestRegSolveValues:
    def test_identity_matrix(self):
        rep = reg_solve(np.eye(2), 1.0, np.array([2.0, 2.0]))
        np.testing.assert_allclose(rep.solution, [1.0, 1.0], rtol=1e-14)

    def test_zero_matrix_scales_by_epsilon(self):
        rep = reg_solve(np.zeros((2, 2)), 0.5, np.array([1.0, 0.0]))
        np.testing.assert_allclose(rep.solution, [2.0, 0.0], rtol=1e-14)

    def test_singular_diagonal(self):
        rep = reg_solve(np.diag([0.0, 1.0]), 0.1, np.array([1.0, 1.0]))
        np.testing.assert_allclose(rep.solution, [10.0, 1.0 / 1.1], rtol=1e-14)

    def test_report_echoes_epsilon(self):
        rep = reg_solve(np.eye(3), 0.25, np.ones(3))
        assert rep.epsilon == 0.25


class TestRegSolveContracts:
    def test_residual_contract_on_ill_conditioned_system(self):
        # Hilbert matrix: poor conditioning stresses the residual contract
        n = 12
        i, j = np.indices((n, n))
        a = 1.0 / (i + j + 1.0)
        b = np.ones(n)
        rep = reg_solve(a, 1e-10, b)
        assert rep.residual_norm <= 1e-10 * (1 + np.linalg.norm(b))

    def test_exactly_singular_shift_raises_numerical_failure(self):
        # A = -eps I makes the shifted matrix zero, so LU finds no pivot
        with pytest.raises(NumericalFailure, match="singular"):
            reg_solve(-0.5 * np.eye(3), 0.5, np.ones(3))

    def test_residual_contract_failure_raises_numerical_failure(self):
        # a symmetric part that is not PSD leaves A + eps I with condition
        # number near 1e16, so the LU residual misses the contract
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
        eps = 1e-3
        a = q @ np.diag([1.0, -eps + 1e-16]) @ q.T
        with pytest.raises(NumericalFailure, match="residual"):
            reg_solve(a, eps, np.ones(2))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            reg_solve(np.eye(2), 0.0, np.ones(2))
        with pytest.raises(ValueError):
            reg_solve(np.eye(2), -1.0, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reg_solve(np.eye(3), 1.0, np.ones(2))

    def test_dimension_cap(self):
        n = MAX_DIM + 1
        with pytest.raises(ValueError):
            reg_solve(np.zeros((n, n)), 1.0, np.zeros(n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-1, 1e-3, 1e-6]))
    def test_solution_norm_bounded_by_rhs_over_epsilon(self, seed, eps):
        # positive-semidefinite symmetric part keeps |(A+eps I)^-1| <= 1/eps
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        g = rng.standard_normal((n, n))
        s = rng.standard_normal((n, n))
        a = g.T @ g + (s - s.T)
        b = rng.standard_normal(n)
        rep = reg_solve(a, eps, b)
        assert np.linalg.norm(rep.solution) <= (1 + 1e-9) * np.linalg.norm(b) / eps
