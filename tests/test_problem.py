import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsm import (
    Check,
    NumericalFailure,
    ProblemInstance,
    apply_operator,
    as_matrix,
    as_vector,
    inner,
    jacobian,
    norm,
    reg_solve,
)
from dsm.problem import _finite

from conftest import diag_linear_problem, identity_problem


finite_vectors = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )
)

# 1-D and 2-D, empty included; magnitudes small enough that |x|^2 stays finite
_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
float_arrays = hnp.arrays(np.float64, _shapes, elements=st.floats(-1e150, 1e150))
int_arrays = hnp.arrays(np.int64, _shapes, elements=st.integers(-(2**40), 2**40))
bad_values = st.sampled_from([np.nan, np.inf, -np.inf])
# any float64, non-finite and subnormal ones included, and finite ones whose squares overflow
any_floats = st.one_of(
    st.floats(width=64),
    st.floats(1e154, 1.7976931348623157e308),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1.4e154, -1e200]),
)


class TestVectorBasics:
    def test_as_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], 3, "u")

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([np.nan, 0.0], 2, "u")

    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)), 2, "a")

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]), 2, "a")

    def test_norm_zero_iff_zero_vector(self):
        assert norm(np.zeros(4)) == 0.0
        assert norm(np.array([0.0, 1e-150])) > 0.0

    def test_norm_past_the_float_range_is_inf_without_a_warning(self):
        # reg_solve's residual contract relies on it: inf fails the tolerance
        assert norm(np.array([1e200, -1e200])) == np.inf

    @given(finite_vectors)
    def test_norm_is_sqrt_of_self_pairing(self, entries):
        v = np.asarray(entries)
        assert norm(v) == pytest.approx(np.sqrt(inner(v, v)), rel=1e-12, abs=0.0)

    @given(finite_vectors, st.floats(-100, 100, allow_nan=False))
    def test_pairing_symmetric_and_homogeneous(self, entries, s):
        rng = np.random.default_rng(len(entries))
        v = np.asarray(entries)
        w = rng.standard_normal(v.size)
        assert inner(v, w) == pytest.approx(inner(w, v), rel=1e-12, abs=1e-12)
        assert inner(s * v, w) == pytest.approx(
            s * inner(v, w), rel=1e-12, abs=1e-9 * (1 + abs(s))
        )

    @given(finite_vectors)
    def test_pairing_additive(self, entries):
        rng = np.random.default_rng(2 * len(entries) + 1)
        u = np.asarray(entries)
        v = rng.standard_normal(u.size)
        w = rng.standard_normal(u.size)
        lhs = inner(u + v, w)
        rhs = inner(u, w) + inner(v, w)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(st.one_of(float_arrays, int_arrays))
    @example(np.zeros(0))
    @example(np.array([[-0.0, 3.0], [4.0, 1e-300]]))
    @example(np.asfortranarray([[1.0, 2.0], [3.0, 1e-8]]))
    @example(np.arange(7)[::-2])
    def test_norm_bit_identical_to_numpy_norm(self, x):
        # the reference is the form norm replaced
        expected = float(np.linalg.norm(x))
        got = norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @given(
        st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
        bad_values,
    )
    def test_as_vector_rejects_a_non_finite_entry_anywhere(self, size_and_pos, bad):
        n, pos = size_and_pos
        x = np.ones(n)
        x[pos] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(x, n, "u")
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(list(x))

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
        ),
        bad_values,
    )
    def test_as_matrix_rejects_a_non_finite_entry_anywhere(self, size_and_pos, bad):
        n, i, j = size_and_pos
        m = np.eye(n)
        m[i, j] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(m, n, "a")
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.asfortranarray(m))


class TestFinite:
    @settings(max_examples=300)
    @given(hnp.arrays(np.float64, _shapes, elements=any_floats))
    @example(np.array([1e154, 1e154]))  # |x|^2 = 2e308 overflows, every entry finite
    @example(np.full((2, 2), 1e200))
    @example(np.array([5e-324, -np.inf]))
    @example(np.zeros(0))
    def test_same_verdict_as_the_elementwise_test(self, x):
        assert _finite(x) == bool(np.isfinite(x).all())
        assert _finite(np.asfortranarray(x)) == _finite(x)


class TestRefusalMessages:
    """Type and message of each finiteness refusal, pinned word for word."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_and_output(self, bad):
        vec, mat = np.array([1.0, bad]), np.array([[1.0, 0.0], [bad, 1.0]])
        emits = ProblemInstance(dim=2, operator=lambda u: vec.copy(), data=np.zeros(2))
        cases = [
            (lambda: as_vector(vec, 2, "u"), ValueError, "u contains non-finite entries"),
            (lambda: as_matrix(mat, 2, "a"), ValueError, "a contains non-finite entries"),
            (lambda: apply_operator(emits, np.zeros(2)), NumericalFailure,
             "operator returned non-finite values"),
            (lambda: reg_solve(mat, 1.0, np.ones(2)), ValueError, "A contains non-finite entries"),
            (lambda: reg_solve(np.eye(2), 1.0, vec), ValueError, "b contains non-finite entries"),
        ]
        for call, kind, message in cases:
            with pytest.raises(kind) as err:
                call()
            assert str(err.value) == message

    def test_solution_past_the_float_range(self):
        # 1e300 / 1e-300 overflows in the solve itself
        with pytest.raises(NumericalFailure) as err:
            reg_solve(np.zeros((1, 1)), 1e-300, [1e300])
        assert str(err.value) == "linsolve: solve at dim 1 produced non-finite values"


class TestCheck:
    @pytest.mark.parametrize(
        "observed, bound, passed",
        [
            (0.5, 1.0, True),
            (1.0, 1.0, True),
            (math.nextafter(1.0, 2.0), 1.0, False),
            (-math.inf, 0.0, True),
            (math.nan, 1.0, False),
            (0.0, math.nan, False),
        ],
    )
    def test_passed_is_observed_at_most_bound(self, observed, bound, passed):
        assert Check("c", observed, bound).passed is passed

    def test_is_a_frozen_record(self):
        check = Check("residual-decay", 0.5, 1.0)
        assert (check.name, check.observed, check.bound) == ("residual-decay", 0.5, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.observed = 2.0


class TestProblemInstance:
    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf")])
    def test_m2_bound_must_be_finite_and_nonnegative(self, bound):
        with pytest.raises(ValueError, match="m2_bound"):
            ProblemInstance(dim=1, operator=lambda u: u, data=[0.0], m2_bound=bound)
        assert ProblemInstance(dim=1, operator=lambda u: u, data=[0.0], m2_bound=0.0).m2_bound == 0.0

    def test_known_solution_is_checked_with_one_operator_evaluation(self):
        calls = []

        def op(u):
            calls.append(u)
            return u + u**3

        p = ProblemInstance(dim=2, operator=op, data=[2.0, 0.0], known_solution=[1.0, 0.0])
        np.testing.assert_array_equal(p.known_solution, [1.0, 0.0])
        assert len(calls) == 1
        with pytest.raises(ValueError, match="known_solution does not reproduce the data"):
            ProblemInstance(dim=2, operator=op, data=[2.0, 0.0], known_solution=[2.0, 0.0])

    def test_linear_data_outside_the_range_is_refused(self):
        # without a given solution the lstsq one is stored, and it misses f = (1, 1)
        m = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="residual 1.000e.00.*outside its matrix's range"):
            ProblemInstance(dim=2, operator=lambda u: m @ u, data=[1.0, 1.0],
                            jacobian=lambda u: m, is_linear=True)


class TestApplyOperator:
    def test_identity(self):
        p = identity_problem(2)
        np.testing.assert_allclose(apply_operator(p, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_componentwise_cubic(self):
        p = ProblemInstance(
            dim=2,
            operator=lambda u: u + u**3,
            data=np.zeros(2),
        )
        np.testing.assert_allclose(
            apply_operator(p, np.array([1.0, -1.0])), [2.0, -2.0]
        )

    def test_diagonal_linear(self):
        p = diag_linear_problem([0.0, 1.0], [0.0, 0.0])
        np.testing.assert_allclose(apply_operator(p, np.array([3.0, 4.0])), [0.0, 4.0])

    def test_dimension_mismatch(self):
        p = identity_problem(2)
        with pytest.raises(ValueError):
            apply_operator(p, np.array([1.0, 2.0, 3.0]))

    def test_nonfinite_output_rejected(self):
        p = ProblemInstance(
            dim=1, operator=lambda u: np.full(1, np.inf), data=np.zeros(1)
        )
        with pytest.raises(NumericalFailure):
            apply_operator(p, np.array([1.0]))

    @pytest.mark.parametrize("output", [["1", "2"], [True, False], np.array([1 + 0j, 2])])
    def test_non_real_output_rejected(self, output):
        # the operator's output follows the dtype rule of norm and as_vector
        p = ProblemInstance(dim=2, operator=lambda u: output, data=np.zeros(2))
        with pytest.raises(ValueError, match="operator output must be an array of real numbers"):
            apply_operator(p, np.zeros(2))


class TestJacobian:
    def test_identity_gives_eye(self):
        p = identity_problem(3)
        np.testing.assert_allclose(jacobian(p, np.zeros(3)), np.eye(3))

    def test_cubic_diagonal(self):
        p = ProblemInstance(
            dim=2,
            operator=lambda u: u + u**3,
            data=np.zeros(2),
            jacobian=lambda u: np.eye(2) + np.diag(3.0 * u**2),
        )
        np.testing.assert_allclose(
            jacobian(p, np.array([1.0, 0.0])), np.diag([4.0, 1.0])
        )

    def test_finite_difference_recovers_matrix(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        p = ProblemInstance(dim=6, operator=lambda u: m @ u, data=np.zeros(6))
        got = jacobian(p, rng.standard_normal(6))
        assert np.max(np.abs(got - m)) <= 1e-6 * (1 + norm(m.ravel()))

    def test_finite_difference_matches_analytic_on_corpus(self, cubic):
        rng = np.random.default_rng(9)
        u = rng.uniform(-2, 2, cubic.dim)
        exact = jacobian(cubic, u)
        stripped = ProblemInstance(
            dim=cubic.dim, operator=cubic.operator, data=cubic.data
        )
        approx = jacobian(stripped, u)
        tol = 1e-6 * (1 + np.max(np.sum(np.abs(exact), axis=1)))
        assert np.max(np.abs(approx - exact)) <= tol
