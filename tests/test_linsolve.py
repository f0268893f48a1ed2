import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsm import MAX_DIM, NumericalFailure, reg_solve


def shifted_matrix(a, eps):
    """The matrix reg_solve hands to the LU, caught at numpy.linalg.solve."""
    seen = []
    solve = np.linalg.solve

    def spy(m, b):
        seen.append(np.array(m, copy=True))
        return solve(m, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", spy)
        try:
            reg_solve(a, eps, np.ones(a.shape[0]))
        except NumericalFailure:
            pass  # only the matrix matters here, not whether it solves
    assert len(seen) == 1
    return seen[0]


square_matrices = st.integers(1, 6).flatmap(
    lambda n: hnp.arrays(
        np.float64,
        (n, n),
        elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    )
)


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

    @given(square_matrices, st.floats(1e-12, 1e6))
    @example(np.array([[1.0, -0.0], [-0.0, -0.0]]), 0.5)
    @example(np.asfortranarray([[2.0, -0.0, 1.0], [-0.0, 3.0, 0.0], [4.0, -0.0, -0.0]]), 1e-3)
    def test_shifted_matrix_bit_identical_to_adding_an_identity(self, a, eps):
        # the reference is the form reg_solve replaced; -0.0 off the
        # diagonal must come out +0.0, as 0.0 * eps does in the identity
        expected = a + eps * np.eye(a.shape[0])
        got = shifted_matrix(a, eps)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestRegSolveContracts:
    def test_residual_contract_on_ill_conditioned_system(self):
        # Hilbert matrix: poor conditioning stresses the residual contract
        n = 12
        i, j = np.indices((n, n))
        a = 1.0 / (i + j + 1.0)
        b = np.ones(n)
        rep = reg_solve(a, 1e-10, b)
        assert rep.residual_norm <= 1e-10 * (1 + np.linalg.norm(b))

    def test_overflowing_residual_fails_numerically(self):
        # a pivot of 1e-180 gives a finite solution near 1e180 whose residual
        # squares past the float range: a NumericalFailure, not an overflow warning
        d = 1e-12
        a = np.array(
            [[2.0, -d, -d, -d], [-d, -d, -d, -d], [-d, -d, -d, -d], [1e-180, 0.0, 0.0, -d]]
        )
        with pytest.raises(NumericalFailure, match=r"working precision \(residual inf"):
            reg_solve(a, 1e-12, np.ones(4))

    def test_exactly_singular_shift_raises_numerical_failure(self):
        # A = -eps I makes the shifted matrix zero, so LU finds no pivot
        with pytest.raises(NumericalFailure, match="singular"):
            reg_solve(-0.5 * np.eye(3), 0.5, np.ones(3))

    def test_singular_failure_names_layer_and_dim(self):
        with pytest.raises(NumericalFailure, match=r"^linsolve: shifted matrix is singular at dim 3"):
            reg_solve(-0.5 * np.eye(3), 0.5, np.ones(3))

    def test_residual_contract_failure_raises_numerical_failure(self):
        # a symmetric part that is not PSD leaves A + eps I with condition
        # number near 1e16, so the LU residual misses the contract
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
        eps = 1e-3
        a = q @ np.diag([1.0, -eps + 1e-16]) @ q.T
        with pytest.raises(NumericalFailure, match="residual"):
            reg_solve(a, eps, np.ones(2))

    def test_contract_failure_names_layer_and_dim(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
        a = q @ np.diag([1.0, -1e-3 + 1e-16]) @ q.T
        with pytest.raises(
            NumericalFailure, match=r"^linsolve: regularized solve at dim 2 is singular .*residual"
        ):
            reg_solve(a, 1e-3, np.ones(2))

    @pytest.mark.parametrize("offset, fails", [(1e-9, True), (1e-11, False)])
    def test_contract_constant_is_1e_10(self, monkeypatch, offset, fails):
        # A = 0, eps = 1 and |b| = 1: the tolerance is 1e-10 (1 + 1) and the
        # residual of a solution that misses b by the offset is the offset
        b = np.array([1.0, 0.0])
        monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: rhs + np.array([0.0, offset]))
        if fails:
            with pytest.raises(NumericalFailure, match="residual 1.000e-09 > tolerance 2.000e-10"):
                reg_solve(np.zeros((2, 2)), 1.0, b)
        else:
            assert reg_solve(np.zeros((2, 2)), 1.0, b).residual_norm == offset

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
