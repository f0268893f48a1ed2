import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm import (
    NumericalFailure,
    ProblemInstance,
    add_noise,
    apply_operator,
    check_path,
    inner,
    jacobian,
    make_problem,
    minimal_norm_solution,
    norm,
    regularization_path,
    solve_regularized,
)

from conftest import CORPUS_NAMES, diag_linear_problem, identity_problem, scalar_cubic_problem


def bisect_scalar_root(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(lo) * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveRegularized:
    def test_linear_problem_matches_direct_solve(self, rank_deficient_linear):
        p = rank_deficient_linear
        eps = 1e-3
        m = jacobian(p, np.zeros(p.dim))
        expected = np.linalg.solve(m + eps * np.eye(p.dim), p.data)
        root = solve_regularized(p, eps)
        assert norm(root.v - expected) <= 1e-9 * (1 + norm(expected))
        assert root.converged

    def test_identity_hand_value(self):
        p = identity_problem(2, f=[2.0, 0.0])
        root = solve_regularized(p, 1.0)
        np.testing.assert_allclose(root.v, [1.0, 0.0], atol=1e-12)

    def test_scalar_cubic_against_bisection(self):
        p = scalar_cubic_problem(f=2.0)
        eps = 1e-8
        root = solve_regularized(p, eps)
        oracle = bisect_scalar_root(lambda v: v + v**3 + eps * v - 2.0, 0.0, 2.0)
        assert abs(root.v[0] - oracle) <= 1e-6
        assert abs(root.v[0] - 1.0) <= 1e-6

    def test_residual_meets_default_tolerance(self, cubic):
        root = solve_regularized(cubic, 1e-2)
        assert root.residual_norm <= 1e-12 * (1 + norm(cubic.data))

    def test_epsilon_must_be_positive(self, cubic):
        with pytest.raises(ValueError):
            solve_regularized(cubic, 0.0)

    def test_iteration_cap_reports_unconverged(self, cubic):
        for tol in (1e-30, 1e-300):  # tiny, but legal
            root = solve_regularized(cubic, 1e-2, max_iters=1, newton_tol=tol)
            assert not root.converged

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), -float("inf")])
    def test_newton_tol_must_be_positive_finite(self, cubic, tol):
        # bad input, not a stalled or unconverged Newton run
        with pytest.raises(ValueError, match="newton_tol"):
            solve_regularized(cubic, 0.1, newton_tol=tol)

    def test_stalled_line_search_names_layer_eps_and_iteration(self):
        # the Jacobian is right once, then has the wrong sign, so the second
        # Newton direction climbs and no damping factor gives a decrease
        calls = []

        def jac(u):
            calls.append(None)
            return np.diag(1.0 + 3.0 * u**2) * (1.0 if len(calls) == 1 else -0.5)

        p = ProblemInstance(dim=1, operator=lambda u: u + u**3, data=[1.0], jacobian=jac)
        with pytest.raises(
            NumericalFailure,
            match=r"^regroot: Newton line search stalled at eps=1\.000e-01, iteration 1, residual ",
        ):
            solve_regularized(p, 0.1)

    def test_override_data_changes_root(self, cubic):
        base = solve_regularized(cubic, 1e-1)
        other = solve_regularized(cubic, 1e-1, f_override=cubic.data + 0.1)
        assert norm(base.v - other.v) > 1e-4


class TestRegularizationPath:
    def test_scalar_identity_path_values(self):
        p = identity_problem(1, f=[1.0])
        path = regularization_path(p, [1.0, 0.5])
        np.testing.assert_allclose(path.entries[0].root.v, [0.5], atol=1e-12)
        np.testing.assert_allclose(path.entries[1].root.v, [2.0 / 3.0], atol=1e-12)
        assert path.entries[0].v_norm < path.entries[1].v_norm < 1.0

    def test_epsilons_must_strictly_decrease(self, cubic):
        with pytest.raises(ValueError):
            regularization_path(cubic, [1e-1, 1e-1])
        with pytest.raises(ValueError):
            regularization_path(cubic, [1e-2, 1e-1])
        with pytest.raises(ValueError):
            regularization_path(cubic, [1e-1, 0.0])

    def test_rank_deficient_path_converges_to_minimal_norm(
        self, rank_deficient_linear
    ):
        p = rank_deficient_linear
        path = regularization_path(p, [10.0**-k for k in range(1, 7)])
        errs = [e.error_to_y for e in path.entries]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-4

    def test_norms_never_exceed_limit_norm(self, all_problems):
        for p in all_problems:
            try:
                y = minimal_norm_solution(p)
            except ValueError:
                continue
            path = regularization_path(p, [10.0**-k for k in range(1, 6)])
            for entry in path.entries:
                assert entry.v_norm <= norm(y) * (1 + 1e-8)

    def test_pairing_inequalities_along_path(self, all_problems):
        # both inner-product certificates that force minimal-norm selection
        for p in all_problems:
            try:
                y = minimal_norm_solution(p)
            except ValueError:
                continue
            path = regularization_path(p, [10.0**-k for k in range(1, 6)])
            for entry in path.entries:
                v = entry.root.v
                assert inner(v, v - y) <= 1e-9 * (1 + norm(y) ** 2)
                assert norm(v - y) ** 2 <= inner(y, y - v) + 1e-9

    def test_error_nonincreasing_on_geometric_grids(self, all_problems):
        for p in all_problems:
            try:
                minimal_norm_solution(p)
            except ValueError:
                continue
            path = regularization_path(p, [0.5**k for k in range(1, 14)])
            errs = [e.error_to_y for e in path.entries]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    def test_never_handed_a_problem_whose_solution_misses_the_data(self):
        # diag(1, 0) u = (1, 1) has no solution; lstsq's (1, 0) solves nothing,
        # so the path never reports errors to it
        with pytest.raises(ValueError, match=r"reproduce the data \(residual 1\.000e\+00\)"):
            regularization_path(diag_linear_problem([1.0, 0.0], [1.0, 1.0]), [1e-1, 1e-2])

    def test_consecutive_root_gaps_recorded(self, cubic):
        path = regularization_path(cubic, [1e-1, 1e-2, 1e-3])
        assert len(path.root_gaps) == 2
        for gap, pair in zip(
            path.root_gaps, zip(path.entries, path.entries[1:])
        ):
            assert gap == pytest.approx(
                norm(pair[1].root.v - pair[0].root.v), rel=1e-12
            )


class TestCheckPath:
    # B = diag(1, 0) and f = (1, 0): V_eps = (1 / (1 + eps), 0) and y = (1, 0), so
    # |V_eps| = 1 / (1 + eps) and |V_eps - y|^2 - (y, y - V_eps) = -eps / (1 + eps)^2,
    # both largest at the last eps
    PATH = regularization_path(diag_linear_problem([1.0, 0.0], [1.0, 0.0]), [0.5, 0.1, 0.01])

    def test_closed_form_on_a_kernel(self):
        dominance, inner_bound = check_path(self.PATH, [1.0, 0.0], 1e-8, 1e-9)
        assert dominance.name == "norm-dominance"
        assert dominance.observed == pytest.approx(1.0 / 1.01, rel=1e-14)
        assert dominance.bound == 1.0 + 1e-8
        assert inner_bound.name == "error-inner-bound"
        assert inner_bound.observed == pytest.approx(-0.01 / 1.01**2, rel=1e-12)
        assert inner_bound.bound == 1e-9
        assert dominance.passed and inner_bound.passed

    def test_a_shorter_limit_fails_both(self):
        # against y = (0.5, 0): |V| = 1/1.01 > 0.5, and (v - 0.5)^2 - 0.5 (0.5 - v) = (v - 0.5) v
        v = 1.0 / 1.01
        dominance, inner_bound = check_path(self.PATH, [0.5, 0.0], 0.0, 0.0)
        assert dominance.bound == 0.5 and not dominance.passed
        assert inner_bound.observed == pytest.approx((v - 0.5) * v, rel=1e-12)
        assert not inner_bound.passed


class TestMinimalNormSolution:
    def test_pseudoinverse_on_consistent_data(self):
        p = diag_linear_problem([0.0, 1.0], [0.0, 3.0])
        np.testing.assert_allclose(minimal_norm_solution(p), [0.0, 3.0], atol=1e-12)

    def test_kernel_component_dropped(self):
        m = np.diag([0.0, 1.0])
        f = m @ np.array([5.0, 3.0])
        p = diag_linear_problem([0.0, 1.0], f)
        y = minimal_norm_solution(p)
        np.testing.assert_allclose(y, [0.0, 3.0], atol=1e-12)
        assert norm(y) < norm(np.array([5.0, 3.0]))

    def test_nonlinear_problem_returns_stored_solution(self, cubic):
        np.testing.assert_allclose(
            minimal_norm_solution(cubic), cubic.known_solution, atol=0.0
        )

    def test_hilbert_oracle_is_its_exact_stored_solution(self):
        # a truncated lstsq answer lies 3e-5 away; the stored ones are exact
        y = minimal_norm_solution(make_problem("hilbert-psd"))
        assert np.array_equal(y, np.ones(12))

    def test_linear_oracle_is_stored_at_construction(self, monkeypatch):
        p = diag_linear_problem([0.0, 2.0], [0.0, 3.0])
        np.testing.assert_array_equal(p.known_solution, [0.0, 1.5])

        def no_lstsq(*args, **kwargs):
            raise AssertionError("the oracle solved by least squares again")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        y = minimal_norm_solution(p)
        np.testing.assert_array_equal(y, p.known_solution)
        y[0] = 7.0  # a copy: the stored solution stays put
        np.testing.assert_array_equal(minimal_norm_solution(p), [0.0, 1.5])

    def test_stored_solution_need_not_be_unique(self):
        # B(u) = (u1 + u1^3, 0) is monotone, not strictly: B(u) = f on the
        # line u1 = 1, whose minimal-norm member is the stored (1, 0)
        p = ProblemInstance(
            dim=2,
            operator=lambda u: np.array([u[0] + u[0] ** 3, 0.0]),
            data=np.array([2.0, 0.0]),
            known_solution=np.array([1.0, 0.0]),
        )
        np.testing.assert_array_equal(minimal_norm_solution(p), [1.0, 0.0])

    def test_stored_solution_must_reproduce_the_data(self, cubic):
        # construction checks the stored solution, so no problem carries a wrong one
        with pytest.raises(ValueError, match="reproduce the data"):
            dataclasses.replace(cubic, known_solution=2.0 * cubic.known_solution)

    def test_no_oracle_raises(self):
        p = ProblemInstance(
            dim=2, operator=lambda u: u + u**3, data=np.zeros(2)
        )
        with pytest.raises(ValueError):
            minimal_norm_solution(p)

    def test_linear_solution_orthogonal_to_kernel(self, rank_deficient_linear):
        p = rank_deficient_linear
        m = jacobian(p, np.zeros(p.dim))
        w, vecs = np.linalg.eigh(0.5 * (m + m.T))
        kernel = vecs[:, np.abs(w) <= 1e-10]
        y = minimal_norm_solution(p)
        assert np.max(np.abs(kernel.T @ y)) <= 1e-9

    def test_inconsistent_data_fails_loudly(self):
        # f outside the range of M: no solution exists at all, so none is built
        with pytest.raises(ValueError, match="outside its matrix's range"):
            diag_linear_problem([0.0, 1.0], [1.0, 0.0])


def svd_pinv_solution(m, f):
    """The oracle's former form: a full SVD pseudoinverse applied to ``f``."""
    u_mat, sing, vt = np.linalg.svd(m)
    cutoff = 1e-12 * (sing[0] if sing.size else 0.0)
    inv = np.divide(1.0, sing, out=np.zeros_like(sing), where=sing > cutoff)
    return vt.T @ (inv * (u_mat.T @ f))


def planted_kernel_matrix(dim, kernel_dim, seed, skew):
    """A monotone matrix whose kernel is exactly the span of the returned
    columns: a PSD part with eigenvalues in [0.1, 10] on the complement,
    plus ``skew`` times a skew-symmetric part, both projected off the
    kernel (``skew=0`` gives the symmetric PSD family)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    kernel, rest = q[:, :kernel_dim], q[:, kernel_dim:]
    psd = (rest * rng.uniform(0.1, 10.0, dim - kernel_dim)) @ rest.T
    psd = 0.5 * (psd + psd.T)
    g = rng.standard_normal((dim, dim))
    off = np.eye(dim) - kernel @ kernel.T
    m = psd + skew * (off @ (g - g.T) @ off)
    return m, kernel, rng.standard_normal(dim)


class TestMinimalNormOracleProperty:
    @pytest.mark.parametrize("symmetric", [True, False], ids=["psd", "psd-plus-skew"])
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(3, 40),
        kernel_share=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        skew=st.floats(0.1, 10.0),
    )
    def test_matches_svd_pseudoinverse_and_is_orthogonal_to_kernel(
        self, symmetric, dim, kernel_share, seed, skew
    ):
        kernel_dim = max(1, int(kernel_share * dim))
        m, kernel, x = planted_kernel_matrix(dim, kernel_dim, seed, 0.0 if symmetric else skew)
        assert np.array_equal(m, m.T) == symmetric
        f = m @ x  # consistent data with a kernel component in x
        p = ProblemInstance(
            dim=dim, operator=lambda u: m @ u, data=f, jacobian=lambda u: m.copy(),
            is_linear=True,
        )
        y = minimal_norm_solution(p)
        reference = svd_pinv_solution(m, f)
        assert norm(y - reference) <= 1e-10 * norm(reference)
        assert np.max(np.abs(kernel.T @ y)) <= 1e-10 * norm(y)
        assert norm(m @ y - f) <= 1e-10 * (1.0 + norm(f))


class TestNoisyRootGap:
    def test_gap_bounded_by_noise_over_epsilon(self, all_problems):
        for k, p in enumerate(all_problems):
            for i, delta in enumerate((1e-2, 1e-3)):
                f_noisy = add_noise(p.data, delta, seed=40 + 10 * k + i)
                for eps in (1e-1, 1e-2):
                    clean = solve_regularized(p, eps)
                    noisy = solve_regularized(
                        p, eps, f_override=f_noisy, init=clean.v
                    )
                    gap = norm(noisy.v - clean.v)
                    assert gap <= (1 + 1e-8) * delta / eps


def certified_radius(problem, root):
    """A bound on |root.v - V_eps| from the residual the solver reports.

    B + eps I is eps-strongly monotone, so |v - V_eps| <= |B(v) + eps v - f| / eps.
    The reported residual is enlarged by its own rounding error, dim ulps
    of the terms it sums.  The root must have converged, so the radius is
    at most about newton_tol / eps.
    """
    assert root.converged
    v, eps, f = root.v, root.epsilon, problem.data
    b = apply_operator(problem, v)
    rounding = problem.dim * np.finfo(float).eps * (norm(b) + eps * norm(v) + norm(f))
    return (root.residual_norm + rounding) / eps


corpus_problems = st.builds(
    lambda name, dim, seed: make_problem(
        name, dim=dim, **({} if name == "hilbert-psd" else {"seed": seed})
    ),
    st.sampled_from(CORPUS_NAMES),
    st.integers(3, 12),
    st.integers(0, 2**16),
)


class TestMetamorphicRoots:
    """Transformed problems whose roots are known from the original's; each
    comparison holds up to the two certified radii.  The roots come from a
    warm-started path down a decade grid, since a cold solve at eps ~1e-6
    can fail reg_solve's residual contract (cubic-monotone d3, seed 3)."""

    @staticmethod
    def grid(scale, decades):
        return scale * 10.0 ** -np.arange(decades + 1)

    @settings(max_examples=40, deadline=None)
    @given(
        problem=corpus_problems,
        scale=st.floats(0.1, 1.0),
        decades=st.integers(0, 6),
        log_c=st.floats(-3.0, 3.0),
    )
    def test_scaling_keeps_the_root(self, problem, scale, decades, log_c):
        # c B(v) + (c eps) v = c f is B(v) + eps v = f multiplied by c
        c = 10.0**log_c
        scaled = ProblemInstance(
            dim=problem.dim,
            operator=lambda u: c * apply_operator(problem, u),
            data=c * problem.data,
            jacobian=lambda u: c * jacobian(problem, u),
        )
        eps = self.grid(scale, decades)
        path = regularization_path(problem, eps).entries
        scaled_path = regularization_path(scaled, c * eps).entries
        for v, w in zip(path, scaled_path, strict=True):
            bound = certified_radius(problem, v.root) + certified_radius(scaled, w.root)
            assert norm(w.root.v - v.root.v) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        problem=corpus_problems,
        scale=st.floats(0.1, 1.0),
        decades=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_orthogonal_conjugation_maps_the_root(self, problem, scale, decades, seed):
        # Q^T B(Q w) + eps w = Q^T f is B(Q w) + eps Q w = f, so W = Q^T V
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((problem.dim,) * 2))[0]
        conjugated = ProblemInstance(
            dim=problem.dim,
            operator=lambda w: q.T @ apply_operator(problem, q @ w),
            data=q.T @ problem.data,
            jacobian=lambda w: q.T @ jacobian(problem, q @ w) @ q,
        )
        eps = self.grid(scale, decades)
        path = regularization_path(problem, eps).entries
        conjugated_path = regularization_path(conjugated, eps).entries
        for v, w in zip(path, conjugated_path, strict=True):
            bound = certified_radius(problem, v.root) + certified_radius(conjugated, w.root)
            assert norm(w.root.v - q.T @ v.root.v) <= bound
