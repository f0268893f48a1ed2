import math

import numpy as np
import pytest

from dsm import (
    FlowResult,
    NumericalFailure,
    ProblemInstance,
    add_noise,
    apply_operator,
    check_flow,
    default_newton_tol,
    integrate_flow,
    jacobian,
    make_psd_singular_linear,
    minimal_norm_solution,
    norm,
    regroot,
    solve_noisy_to_stopping,
    solve_regularized,
    solve_to_stopping,
    stopping_time,
)

from dsm.flow import MAX_CHECKPOINTS, ROUNDOFF_FACTOR
from dsm.regroot import _predict

from conftest import capped_outcome, identity_problem


class TestStoppingTime:
    def test_reciprocal_e(self):
        assert stopping_time(math.exp(-1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_one_tenth(self):
        assert stopping_time(0.1) == pytest.approx(4.605170186, abs=5e-10)

    def test_near_one(self):
        assert stopping_time(0.99) == pytest.approx(0.020100671, abs=1e-9)

    def test_rejects_outside_unit_interval(self):
        for eps in (0.0, -0.5, 1.0, 2.0):
            with pytest.raises(ValueError):
                stopping_time(eps)


class TestHomotopyLaw:
    """Each checkpoint solves F(u) = exp(-t) F(u0), F(u) = B(u) + eps*u - f."""

    def test_identity_hand_value(self):
        # operator u, zero data, eps 1: F(u) = 2u, so u(t) = exp(-t) u0
        p = identity_problem(2)
        u0 = np.array([1.0, -2.0])
        traj = integrate_flow(p, 1.0, 2.0, checkpoints=4, u0=u0)
        for t, u in zip(traj.times, traj.states):
            np.testing.assert_allclose(u, math.exp(-t) * u0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rtol, atol", [(1e-8, 1e-10), (1e-5, 1e-7)])
    def test_vector_law_on_corpus(self, all_problems, rtol, atol):
        def F(p, u):
            return apply_operator(p, u) + eps * u - p.data

        eps = 1e-2
        for p in all_problems:
            traj = integrate_flow(p, eps, 5.0, rtol=rtol, atol=atol)
            res0 = F(p, traj.states[0])
            for t, u in zip(traj.times[1:], traj.states[1:]):
                r = math.exp(-t) * res0
                assert norm(F(p, u) - r) <= rtol * norm(r) + atol, (p.name, t)

    def test_linear_flow_closes_on_the_root_from_random_starts(self, rank_deficient_linear):
        # on a linear problem u(t) = V_eps + exp(-t) (u0 - V_eps) exactly
        p = rank_deficient_linear
        eps = 1e-2
        root = solve_regularized(p, eps)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u0 = rng.standard_normal(p.dim)
            traj = integrate_flow(p, eps, 3.0, checkpoints=3, u0=u0)
            for t, u in zip(traj.times, traj.states):
                expected = root.v + math.exp(-t) * (u0 - root.v)
                assert norm(u - expected) <= 1e-10 * (1 + norm(u0))

    def test_equilibrium_at_regularized_root(self, all_problems):
        # started at V_eps the flow does not move, and takes no Newton step
        for p in all_problems:
            eps = 1e-2
            root = solve_regularized(p, eps)
            traj = integrate_flow(p, eps, 5.0, u0=root.v)
            tol = 10.0 * default_newton_tol(p.data) / eps
            assert max(norm(u - root.v) for u in traj.states) <= tol
            assert traj.rhs_evals == 0

    @pytest.mark.parametrize(
        "f, match", [([1.0], "length 1, expected 10"), ([math.nan] * 10, "non-finite")],
        ids=["short", "nan"],
    )
    def test_bad_override_rejected(self, cubic, f, match):
        with pytest.raises(ValueError, match=match):
            integrate_flow(cubic, 0.1, 1.0, f_override=f)

    def test_counts_are_shifted_solves_steps_and_halvings(self, cubic, monkeypatch):
        solves = []
        real = regroot.reg_solve
        monkeypatch.setattr(regroot, "reg_solve", lambda *a: solves.append(1) or real(*a))
        traj = integrate_flow(cubic, 1e-2, 5.0)
        assert traj.rhs_evals == traj.accepted == len(solves) > 0
        assert traj.rejected > 0  # the first checkpoint's line search halves

    def test_cost_does_not_grow_with_the_horizon(self, cubic):
        short = integrate_flow(cubic, 1e-2, 5.0)
        long = integrate_flow(cubic, 1e-2, 100.0)
        assert long.rhs_evals <= short.rhs_evals

    def test_linear_flow_to_its_stopping_time_takes_two_shifted_solves(self):
        # on a linear problem the curve s -> u(s), s = exp(-t), is affine, so
        # once two points are known the predicted start is the checkpoint
        # (each start from the previous state took 10 shifted solves in all)
        p = make_psd_singular_linear(50)
        traj = integrate_flow(p, 1e-2, stopping_time(1e-2))
        assert 0 < traj.rhs_evals <= 2

    def test_each_checkpoint_meets_its_floored_tolerance_at_t_end_20(self, all_problems):
        # |F(u_k) - r_k| <= rtol |r_k| + floor_k with the roundoff floor
        # floor_k = c sqrt(n) u (|f + r_k| + eps |start_k|), start_k predicted
        # from the states before it; atol (1e-10) lies above every floor here
        eps, rtol = 1e-2, 1e-8
        for p in all_problems:
            unit = ROUNDOFF_FACTOR * math.sqrt(p.dim) * np.finfo(float).eps
            traj = integrate_flow(p, eps, 20.0)
            res0 = apply_operator(p, traj.states[0]) + eps * traj.states[0] - p.data
            known = [(1.0, traj.states[0])]
            for t, u in zip(traj.times[1:], traj.states[1:]):
                s = math.exp(-t)
                r = s * res0
                start = _predict(known[-3:], s)
                floor = unit * (norm(p.data + r) + eps * norm(start))
                miss = norm(apply_operator(p, u) + eps * u - (p.data + r))
                assert miss <= rtol * norm(r) + floor, (p.name, t)
                known.append((s, u))


class TestIntegrateFlow:
    def test_pure_decay_hits_half_at_ln2(self):
        p = identity_problem(2)
        traj = integrate_flow(p, 1.0, math.log(2.0), u0=[1.0, 0.0])
        np.testing.assert_allclose(traj.states[-1], [0.5, 0.0], atol=1e-6)

    def test_linear_flow_closed_form(self, hilbert_linear):
        p = hilbert_linear
        eps = 1e-2
        rtol = 1e-8
        root = solve_regularized(p, eps)
        traj = integrate_flow(p, eps, 3.0, rtol=rtol)
        u0 = np.zeros(p.dim)
        for t, u in zip(traj.times, traj.states):
            expected = root.v + math.exp(-t) * (u0 - root.v)
            assert norm(u - expected) <= 10 * rtol * norm(u0 - root.v)

    def test_residual_halves_at_ln2(self, all_problems):
        for p in all_problems:
            traj = integrate_flow(p, 1e-2, math.log(2.0), checkpoints=1)
            g0 = traj.residuals[0]
            assert traj.residuals[-1] == pytest.approx(g0 / 2, rel=1e-3)

    def test_residual_decay_law_on_corpus(self, all_problems):
        for p in all_problems:
            traj = integrate_flow(p, 1e-2, 5.0)
            model = traj.residuals[0] * np.exp(-traj.times)
            assert np.max(np.abs(traj.residuals / model - 1.0)) <= 1e-3

    def test_distance_to_root_bound(self, all_problems):
        for p in all_problems:
            eps = 1e-2
            traj = integrate_flow(p, eps, 5.0)
            root = solve_regularized(p, eps)
            g0 = traj.residuals[0]
            for t, u in zip(traj.times, traj.states):
                assert norm(u - root.v) <= 1.05 * g0 * math.exp(-t) / eps

    def test_tightening_tolerances_tightens_decay(self, cubic):
        def worst_dev(rtol, atol):
            traj = integrate_flow(cubic, 1e-2, 5.0, rtol=rtol, atol=atol)
            model = traj.residuals[0] * np.exp(-traj.times)
            return np.max(np.abs(traj.residuals / model - 1.0))

        loose = worst_dev(1e-6, 1e-8)
        tight = worst_dev(1e-7, 1e-9)
        assert tight <= loose / 2

    def test_checkpoint_grid(self, cubic):
        traj = integrate_flow(cubic, 1e-1, 2.0, checkpoints=4)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 2.0, 5), atol=0.0)
        assert traj.states.shape == (5, cubic.dim)
        assert traj.accepted > 0

    def test_recorded_residuals_recomputed_from_operator(self, cubic):
        traj = integrate_flow(cubic, 1e-1, 1.0, checkpoints=2)
        for u, g in zip(traj.states, traj.residuals):
            residual = apply_operator(cubic, u) + 1e-1 * u - cubic.data
            assert g == pytest.approx(norm(residual), rel=1e-12, abs=1e-300)

    def test_invalid_arguments(self, cubic):
        with pytest.raises(ValueError):
            integrate_flow(cubic, 1e-2, 0.0)
        with pytest.raises(ValueError):
            integrate_flow(cubic, 1e-2, 1.0, checkpoints=0)
        with pytest.raises(ValueError):
            integrate_flow(cubic, 1e-2, 1.0, rtol=0.0)
        with pytest.raises(ValueError):
            integrate_flow(cubic, 0.0, 1.0)

    # an infinite rtol used to overflow inside the first-step estimate and
    # an infinite atol accepted every step; both are now rejected up front
    @pytest.mark.parametrize("tol", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, cubic, tol, value):
        with pytest.raises(ValueError, match="rtol and atol"):
            integrate_flow(cubic, 1e-2, 1.0, **{tol: value})

    # a fractional count raised TypeError, True ran as 1, and 10**8 asked
    # for 3.73 GiB at dim 5; each runs in a child under a 1 GiB address space
    @pytest.mark.parametrize(
        "value, shown", [("2.5", "2.5"), ("True", "True"), ("10**8", "100000000")]
    )
    def test_checkpoints_must_be_a_capped_integer(self, value, shown):
        outcome = capped_outcome(
            "integrate_flow, make_problem",
            "p = make_problem('cubic-monotone', dim=5)",
            f"integrate_flow(p, 0.01, 1.0, checkpoints={value})",
        )
        assert outcome == (
            f"ValueError: checkpoints must be an integer in [1, {MAX_CHECKPOINTS}], "
            f"got {shown}"
        )

    def test_checkpoints_accepts_numpy_integers(self, cubic):
        traj = integrate_flow(cubic, 1e-1, 1.0, checkpoints=np.int64(2))
        assert traj.states.shape == (3, cubic.dim)
        assert traj.times.tolist() == [0.0, 0.5, 1.0]

    def test_impossible_tolerance_fails_numerically(self, cubic):
        with pytest.raises(NumericalFailure, match=r"^flow at t=0\.1: .*eps=1\.000e-02.*residual "):
            integrate_flow(cubic, 1e-2, 1.0, rtol=1e-300, atol=1e-320)

    def test_newton_cap_names_flow_eps_time_and_residual(self):
        # a Jacobian six times too large: each step cuts F by 5/7 only, so
        # rtol 1e-14 needs about 96 steps, past the cap of 80
        p = ProblemInstance(
            dim=1, operator=lambda u: u.copy(), data=[0.0],
            jacobian=lambda u: np.array([[6.0]]), is_linear=True,
        )
        with pytest.raises(
            NumericalFailure,
            match=r"^flow: Newton missed the tolerance .* at eps=1\.000e\+00, t=1 within 80 steps, residual ",
        ):
            integrate_flow(p, 1.0, 1.0, checkpoints=1, u0=[1.0], rtol=1e-14, atol=1e-300)

    def test_stalled_line_search_names_flow_and_time(self):
        # the Jacobian is right once, then has the wrong sign (as in the root's test)
        calls = []

        def jac(u):
            calls.append(None)
            return np.diag(1.0 + 3.0 * u**2) * (1.0 if len(calls) == 1 else -0.5)

        p = ProblemInstance(dim=1, operator=lambda u: u + u**3, data=[1.0], jacobian=jac)
        with pytest.raises(
            NumericalFailure,
            match=r"^flow at t=1: regroot: Newton line search stalled at eps=1\.000e-01, "
            r"iteration 1, residual ",
        ):
            integrate_flow(p, 0.1, 1.0, checkpoints=1)


class TestCheckFlow:
    # g0 = 2 and eps = 0.5; the residuals sit 0, +25% and -10% off the model
    # g0 exp(-t), and the states' gaps to the root 0 are 5, 1 and 0.05
    TRAJ = FlowResult(
        epsilon=0.5,
        times=np.array([0.0, 1.0, 2.0]),
        states=np.array([[3.0, 4.0], [0.6, 0.8], [0.03, 0.04]]),
        residuals=np.array([2.0, 1.25 * 2.0 * math.exp(-1.0), 0.9 * 2.0 * math.exp(-2.0)]),
        accepted=0,
        rejected=0,
        rhs_evals=0,
    )

    def test_known_table_and_checks(self):
        rows, checks = check_flow(self.TRAJ, [0.0, 0.0])
        model = [2.0, 2.0 * math.exp(-1.0), 2.0 * math.exp(-2.0)]
        np.testing.assert_allclose(
            rows,
            [
                [0.0, 2.0, model[0], 5.0, 1.05 * model[0] / 0.5],
                [1.0, 1.25 * model[1], model[1], 1.0, 1.05 * model[1] / 0.5],
                [2.0, 0.9 * model[2], model[2], 0.05, 1.05 * model[2] / 0.5],
            ],
            rtol=1e-15,
        )
        assert [c.name for c in checks] == ["residual-decay", "flow-limit-gap"]
        decay, limit = checks
        assert decay.observed == pytest.approx(0.25, rel=1e-14)
        assert decay.bound == 1e-3 and not decay.passed
        # the worst |u - V| eps / (g0 exp(-t)) is at t = 0: 5 * 0.5 / 2
        assert limit.observed == 1.25
        assert limit.bound == 1.05 and not limit.passed

    def test_stopping_gap_only_when_asked_for(self):
        _, checks = check_flow(self.TRAJ, [0.0, 0.0], at_stopping=True)
        assert [c.name for c in checks] == ["residual-decay", "flow-limit-gap", "stopping-gap"]
        # the last gap over g0 eps: 0.05 / (2 * 0.5)
        assert checks[2].observed == pytest.approx(0.05, rel=1e-15)
        assert checks[2].bound == 1.05
        assert [c.passed for c in checks] == [False, False, True]

    def test_a_root_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="root_v has length 3, expected 2"):
            check_flow(self.TRAJ, [0.0, 0.0, 0.0])

    def test_subnormal_model_residual_observes_inf_without_a_warning(self):
        # g0 exp(-745) is subnormal, so g over it overflows; numpy's scalars warned there
        traj = FlowResult(
            epsilon=0.5,
            times=np.array([0.0, 745.0]),
            states=np.zeros((2, 2)),
            residuals=np.array([2.0, 1e-5]),
            accepted=0,
            rejected=0,
            rhs_evals=0,
        )
        rows, (decay, _) = check_flow(traj, [0.0, 0.0])
        assert 0.0 < rows[1][2] < np.finfo(float).tiny
        assert decay.observed == math.inf and not decay.passed


class TestSolveToStopping:
    def test_final_state_near_regularized_root(self, rank_deficient_linear, cubic):
        for p in (rank_deficient_linear, cubic):
            for eps in (1e-1, 1e-2, 1e-3):
                res = solve_to_stopping(p, eps)
                root = solve_regularized(p, eps)
                g0 = res.trajectory.residuals[0]
                assert norm(res.u_final - root.v) <= 1.05 * g0 * eps

    def test_error_to_limit_decreases_down_the_grid(self, rank_deficient_linear):
        p = rank_deficient_linear
        y = minimal_norm_solution(p)
        errs = [
            norm(solve_to_stopping(p, eps).u_final - y)
            for eps in (1e-1, 1e-2, 1e-3)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_start_at_limit_stays_near_limit(self, cubic):
        y = minimal_norm_solution(cubic)
        eps = 1e-3
        res = solve_to_stopping(cubic, eps, u0=y)
        g0 = res.trajectory.residuals[0]
        assert norm(res.u_final - y) <= 2 * eps * norm(y) + g0 * eps

    def test_epsilon_must_sit_inside_unit_interval(self, cubic):
        with pytest.raises(ValueError):
            solve_to_stopping(cubic, 1.0)


class TestSolveNoisyToStopping:
    def test_epsilon_from_noise_exponent(self, rank_deficient_linear):
        p = rank_deficient_linear
        delta = 1e-4
        f_noisy = add_noise(p.data, delta, seed=5)
        res = solve_noisy_to_stopping(p, f_noisy, delta, 0.5)
        assert res.trajectory.epsilon == pytest.approx(1e-2, rel=1e-12)
        assert res.trajectory.times[-1] == pytest.approx(
            -2.0 * math.log(1e-2), rel=1e-12
        )

    def test_final_state_near_noisy_root(self, rank_deficient_linear, cubic):
        for k, p in enumerate((rank_deficient_linear, cubic)):
            delta = 1e-3
            f_noisy = add_noise(p.data, delta, seed=11 + k)
            res = solve_noisy_to_stopping(p, f_noisy, delta, 0.5)
            eps = res.trajectory.epsilon
            w = solve_regularized(p, eps, f_override=f_noisy)
            g0 = res.trajectory.residuals[0]
            assert norm(res.w_final - w.v) <= 1.05 * g0 * eps

    def test_zero_noise_matches_clean_run(self, cubic):
        delta = 1e-2
        res_noisy = solve_noisy_to_stopping(cubic, cubic.data, delta, 0.5)
        res_clean = solve_to_stopping(cubic, delta**0.5)
        assert norm(res_noisy.w_final - res_clean.u_final) <= 1e-7 * (
            1 + norm(res_clean.u_final)
        )

    def test_is_the_stopping_flow_on_the_noisy_data(self, rank_deficient_linear):
        p = rank_deficient_linear
        delta, b_exp = 1e-3, 0.5
        f_noisy = add_noise(p.data, delta, seed=7)
        noisy = solve_noisy_to_stopping(p, f_noisy, delta, b_exp)
        plain = solve_to_stopping(p, delta**b_exp, f_override=f_noisy)
        assert noisy.trajectory.epsilon == delta**b_exp
        assert np.array_equal(noisy.w_final, plain.u_final)
        assert np.array_equal(noisy.trajectory.states, plain.trajectory.states)
        assert np.array_equal(noisy.trajectory.residuals, plain.trajectory.residuals)

    def test_parameter_validation(self, cubic):
        f = cubic.data
        with pytest.raises(ValueError):
            solve_noisy_to_stopping(cubic, f, 0.0, 0.5)
        with pytest.raises(ValueError):
            solve_noisy_to_stopping(cubic, f, 1.5, 0.5)
        with pytest.raises(ValueError):
            solve_noisy_to_stopping(cubic, f, 1e-2, 0.0)
        with pytest.raises(ValueError):
            solve_noisy_to_stopping(cubic, f, 1e-2, 1.0)
