import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dsm.iterate
from dsm import (
    Check,
    NumericalFailure,
    ProblemInstance,
    Schedule,
    StepRule,
    apply_operator,
    jacobian,
    make_cubic_monotone,
    make_random_monotone,
    norm,
    run_iteration,
    solve_regularized,
    verify_step_recursion,
)
from dsm.iterate import STEP_SLACK, _predict

from conftest import capped_outcome, identity_problem, scalar_cubic_problem

SQRT_E = math.sqrt(math.e)


# the four problems and step rules of the benchmark's matched-iterate workload
BENCHMARK_RUNS = [
    (make_cubic_monotone, 10, StepRule.constant_p(SQRT_E)),
    (make_cubic_monotone, 50, StepRule.constant_p(SQRT_E)),
    (make_random_monotone, 20, StepRule.constant_h(0.5)),
    (make_random_monotone, 50, StepRule.constant_h(0.5)),
]


def oracle_schedule_for(problem):
    # flat (linear) problems have zero curvature; pin the schedule instead
    if problem.m2_bound == 0.0:
        return Schedule.oracle(floor=1e-6)
    return Schedule.oracle()


class TestStepRule:
    def test_half_log_boundary_gives_unit_step(self):
        assert StepRule.constant_p(SQRT_E).h_at(0) == 1.0

    def test_quarter_exponent_gives_half_step(self):
        assert StepRule.constant_p(math.exp(0.25)).h_at(3) == pytest.approx(0.5)

    def test_rejects_ratio_above_boundary(self):
        with pytest.raises(ValueError):
            StepRule.constant_p(2.0)

    def test_rejects_ratio_at_or_below_one(self):
        with pytest.raises(ValueError):
            StepRule.constant_p(1.0)
        with pytest.raises(ValueError):
            StepRule.constant_p(0.5)

    def test_constant_h_range(self):
        assert StepRule.constant_h(1.0).h_at(7) == 1.0
        with pytest.raises(ValueError):
            StepRule.constant_h(0.0)
        with pytest.raises(ValueError):
            StepRule.constant_h(1.5)

    def test_explicit_list(self):
        rule = StepRule.explicit([0.5, 1.0, 0.25])
        assert rule.h_at(2) == 0.25
        assert rule.limit == 3
        with pytest.raises(ValueError):
            StepRule.explicit([0.5, 1.2])


class TestSchedule:
    def test_constant_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            Schedule.constant(0.0)

    def test_geometric_requires_ratio_in_unit_interval(self):
        with pytest.raises(ValueError):
            Schedule.geometric(1.0, 1.0)
        with pytest.raises(ValueError):
            Schedule.geometric(1.0, 0.0)
        with pytest.raises(ValueError):
            Schedule.geometric(0.0, 0.5)

    def test_oracle_floor_nonnegative(self):
        with pytest.raises(ValueError):
            Schedule.oracle(floor=-1.0)


def first_step(problem, eps, h, u0):
    """The iterate after one step of run_iteration at constant eps and step h."""
    history = run_iteration(
        problem, Schedule.constant(eps), StepRule.constant_h(h), max_n=1, u0=u0
    )
    return history.steps[1].u


def newton_step(problem, eps, h, u0):
    """``u0 - h (B'(u0) + eps I)^{-1} F(u0)``, solved here by numpy alone."""
    shifted = jacobian(problem, u0) + eps * np.eye(problem.dim)
    residual = apply_operator(problem, u0) + eps * u0 - problem.data
    return u0 - h * np.linalg.solve(shifted, residual)


class TestFirstStep:
    def test_scalar_hand_value(self):
        p = identity_problem(1, f=[1.0])
        np.testing.assert_allclose(first_step(p, 1.0, 1.0, [0.0]), [0.5], atol=1e-14)

    def test_full_step_on_linear_problem_lands_on_root(self, hilbert_linear):
        p = hilbert_linear
        eps = 1e-2
        u0 = np.zeros(p.dim)
        out = first_step(p, eps, 1.0, u0)
        root = solve_regularized(p, eps)
        assert norm(out - root.v) <= 1e-10 * (1 + norm(root.v))
        np.testing.assert_allclose(out, newton_step(p, eps, 1.0, u0), rtol=1e-10)

    def test_vanishing_step_freezes_state(self, cubic):
        u = np.ones(cubic.dim)
        out = first_step(cubic, 1e-1, 1e-8, u)
        assert norm(out - u) <= 1e-7 * (1 + norm(u))

    def test_matches_an_independent_shifted_solve(self, cubic):
        u0 = np.full(cubic.dim, 0.5)
        eps, h = 0.1, 0.75
        np.testing.assert_allclose(
            first_step(cubic, eps, h, u0), newton_step(cubic, eps, h, u0), rtol=1e-13
        )


class TestRunIteration:
    def test_linear_constant_full_step_converges_immediately(self, hilbert_linear):
        hist = run_iteration(
            hilbert_linear, Schedule.constant(1e-2), StepRule.constant_h(1.0), 10
        )
        assert hist.converged
        assert len(hist.steps) == 2

    def test_linear_gap_closed_form(self, rank_deficient_linear, hilbert_linear):
        for p in (rank_deficient_linear, hilbert_linear):
            for h in (0.25, 0.5, 1.0):
                hist = run_iteration(
                    p,
                    Schedule.constant(1e-2),
                    StepRule.constant_h(h),
                    20,
                    record_roots=True,
                    stop_residual=0.0,
                )
                gaps = hist.gaps
                model = gaps[0] * (1.0 - h) ** np.arange(len(gaps))
                for got, want in zip(gaps, model):
                    # relative match, with an absolute floor well above the
                    # roundoff of measuring a gap between near-equal vectors
                    assert abs(got - want) <= 1e-9 * want + 1e-13 * gaps[0]

    def test_residual_rows_match_operator(self, cubic):
        hist = run_iteration(
            cubic, Schedule.geometric(1.0, 0.5), StepRule.constant_h(1.0), 5
        )
        for s in hist.steps:
            r = apply_operator(cubic, s.u) + s.epsilon * s.u - cubic.data
            assert s.residual == pytest.approx(norm(r), rel=1e-12)

    def test_indices_consecutive_and_last_row_open(self, cubic):
        hist = run_iteration(
            cubic, Schedule.geometric(1.0, 0.5), StepRule.constant_h(1.0), 6
        )
        assert [s.index for s in hist.steps] == list(range(len(hist.steps)))
        assert hist.steps[-1].h is None
        assert all(s.h is not None for s in hist.steps[:-1])

    def test_epsilon_nonincreasing_for_shrinking_schedules(self, cubic):
        for sched in (Schedule.geometric(1.0, 0.5, floor=1e-8), Schedule.oracle()):
            hist = run_iteration(cubic, sched, StepRule.constant_p(SQRT_E), 15)
            eps = [s.epsilon for s in hist.steps]
            assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_geometric_full_step_residual_monotone(self, cubic, tanh_monotone):
        # strictly monotone corpus problems contract monotonically here
        for p in (cubic, tanh_monotone):
            hist = run_iteration(
                p, Schedule.geometric(1.0, 0.5, floor=1e-10),
                StepRule.constant_h(1.0), 25,
            )
            res = list(hist.residuals)
            assert all(b <= a * (1 + 1e-12) for a, b in zip(res[1:], res[2:]))

    def test_geometric_reaches_default_stop(self, cubic):
        hist = run_iteration(
            cubic, Schedule.geometric(1.0, 0.5, floor=1e-14),
            StepRule.constant_h(1.0), 80,
        )
        assert hist.converged
        assert hist.steps[-1].residual <= 1e-10 * (1 + norm(cubic.data))

    def test_explicit_rule_must_cover_horizon(self, cubic):
        with pytest.raises(ValueError):
            run_iteration(
                cubic, Schedule.constant(1e-2), StepRule.explicit([1.0, 1.0]), 5
            )

    def test_max_n_must_be_positive(self, cubic):
        with pytest.raises(ValueError):
            run_iteration(cubic, Schedule.constant(1e-2), StepRule.constant_h(1.0), 0)

    def test_oracle_schedule_needs_curvature_bound(self):
        p = identity_problem(3, f=[1.0, 0.0, 0.0])
        stripped = dataclasses.replace(p, m2_bound=None)
        with pytest.raises(ValueError):
            run_iteration(stripped, Schedule.oracle(), StepRule.constant_h(1.0), 3)

    def test_flat_problem_oracle_schedule_needs_floor(self, hilbert_linear):
        with pytest.raises(ValueError):
            run_iteration(
                hilbert_linear, Schedule.oracle(), StepRule.constant_h(1.0), 3
            )

    def test_negative_stop_residual_is_refused(self):
        # no residual is below -1, so the run went on to max_n and reported unconverged
        p = identity_problem(3, f=[1.0, 2.0, 3.0])
        shown = r"^stop_residual must be a finite non-negative real, got -1\.0$"
        with pytest.raises(ValueError, match=shown):
            run_iteration(
                p, Schedule.constant(0.1), StepRule.constant_h(0.5), 5, stop_residual=-1.0
            )


class TestMaxNArgument:
    # max_n=2.5 raised TypeError and True ran as one step; each runs in a
    # child under a 1 GiB address space
    @pytest.mark.parametrize("value", ["2.5", "True", "0"])
    def test_max_n_must_be_a_positive_integer(self, value):
        outcome = capped_outcome(
            "Schedule, StepRule, make_problem, run_iteration",
            "p = make_problem('cubic-monotone', dim=5)",
            "run_iteration(p, Schedule.constant(0.1), StepRule.constant_h(0.5), "
            f"max_n={value})",
        )
        assert outcome == f"ValueError: max_n must be an integer in [1, 10000], got {value}"

    def test_max_n_is_capped(self):
        # run_iteration keeps every iterate, so max_n=10**9 with no early stop
        # grew the history without bound, until the child's timeout
        outcome = capped_outcome(
            "Schedule, StepRule, make_problem, run_iteration",
            "p = make_problem('cubic-monotone', dim=5)",
            "run_iteration(p, Schedule.constant(0.1), StepRule.constant_h(0.5), 10**9, "
            "stop_residual=0.0)",
        )
        assert outcome == "ValueError: max_n must be an integer in [1, 10000], got 1000000000"

    def test_max_n_accepts_numpy_integers(self):
        p = identity_problem(3, f=[1.0, 2.0, 3.0])
        history = run_iteration(
            p, Schedule.constant(0.1), StepRule.constant_h(0.5), np.int64(3),
            stop_residual=0.0,
        )
        assert [s.index for s in history.steps] == [0, 1, 2, 3]


class TestStepRecursionCertificate:
    def test_passes_on_oracle_runs_over_corpus(
        self, rank_deficient_linear, hilbert_linear, cubic
    ):
        for p in (rank_deficient_linear, hilbert_linear, cubic):
            hist = run_iteration(
                p, oracle_schedule_for(p), StepRule.constant_p(SQRT_E), 25
            )
            report = verify_step_recursion(p, hist)
            assert report.passed
            assert all(rec.excess <= report.bound for rec in report.records)

    def test_report_is_the_recursion_step_check(self, cubic, oracle_run):
        report = verify_step_recursion(cubic, oracle_run)
        assert isinstance(report, Check)
        assert (report.name, report.bound) == ("recursion-step", 1e-8)

    def test_linear_constant_schedule_exact_contraction(self, hilbert_linear):
        hist = run_iteration(
            hilbert_linear,
            Schedule.constant(1e-2),
            StepRule.constant_h(0.5),
            12,
            record_roots=True,
            stop_residual=0.0,
        )
        report = verify_step_recursion(hilbert_linear, hist)
        assert report.passed
        for rec, cur, nxt in zip(report.records, hist.steps, hist.steps[1:]):
            assert nxt.gap == pytest.approx(0.5 * cur.gap, rel=1e-9)

    def test_corrupted_history_detected(self, cubic):
        hist = run_iteration(
            cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), 10
        )
        bad_steps = list(hist.steps)
        mid = len(bad_steps) // 2
        bad_steps[mid] = dataclasses.replace(
            bad_steps[mid], gap=bad_steps[mid].gap * 1.1
        )
        bad = dataclasses.replace(hist, steps=bad_steps)
        report = verify_step_recursion(cubic, bad)
        assert not report.passed

    def test_requires_recorded_roots(self, cubic):
        hist = run_iteration(
            cubic, Schedule.geometric(1.0, 0.5), StepRule.constant_h(1.0), 5
        )
        with pytest.raises(ValueError):
            verify_step_recursion(cubic, hist)

    def test_requires_at_least_one_step(self, cubic):
        hist = run_iteration(
            cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), 1,
            stop_residual=1e300,
        )
        with pytest.raises(ValueError):
            verify_step_recursion(cubic, hist)

    def test_quadratic_remainder_along_oracle_run(self, cubic):
        # the per-step linearization error stays under the curvature budget
        hist = run_iteration(
            cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), 15
        )
        f = cubic.data
        for cur in hist.steps:
            z = cur.u - cur.root
            lhs = apply_operator(cubic, cur.u) + cur.epsilon * cur.u - f
            lin = (jacobian(cubic, cur.u) + cur.epsilon * np.eye(cubic.dim)) @ z
            remainder = norm(lhs - lin)
            assert remainder <= 0.5 * cubic.m2_bound * cur.gap**2 * (1 + 1e-8)


def roundoff_floor(problem, u, v):
    # fl_n = 16 sqrt(dim) u (|B(u_n)| + |B(u_{n+1})|), the flow's checkpoint floor
    scale = norm(apply_operator(problem, u)) + norm(apply_operator(problem, v))
    return 16.0 * math.sqrt(problem.dim) * np.finfo(float).eps * scale


class TestStandingAssumptions:
    @pytest.mark.parametrize("make, dim, rule", BENCHMARK_RUNS)
    def test_benchmark_runs_hold_both_assumptions_with_room(self, make, dim, rule):
        # the worst remainder uses at most 0.33 of the curvature budget at seed 1
        p = make(dim=dim, seed=1)
        hist = run_iteration(p, Schedule.oracle(), rule, 40)
        assert [(c.name, c.observed) for c in hist.assumptions] == [
            ("monotone-pairing", 0.0), ("taylor-remainder", 0.0)
        ]
        assert 0.0 < hist.curvature_ratio < 0.5

    def test_a_non_monotone_operator_fails_monotone_pairing(self):
        # B(u) = -u pairs each step to -|z_n|^2, far below the roundoff floor
        p = ProblemInstance(
            dim=2, operator=lambda u: -u, data=np.ones(2), jacobian=lambda u: -np.eye(2)
        )
        hist = run_iteration(p, Schedule.constant(0.1), StepRule.constant_h(0.5), 5)
        (check,) = hist.assumptions
        assert check.name == "monotone-pairing"
        assert check.bound == STEP_SLACK
        assert check.observed > 1e12
        assert not check.passed
        assert hist.curvature_ratio is None

    def test_taylor_remainder_is_the_worst_relative_excess(self):
        # u + u^3 has the exact remainder 3 u z^2 + z^3, more than m2_bound 0.5 allows
        p = scalar_cubic_problem(f=2.0, m2_bound=0.5)
        hist = run_iteration(p, Schedule.constant(0.1), StepRule.constant_h(0.5), 3)
        pairing, taylor = hist.assumptions
        excess, ratio = [], []
        for cur, nxt in zip(hist.steps, hist.steps[1:]):
            u, z = cur.u[0], nxt.u[0] - cur.u[0]
            remainder, model = abs(3.0 * u * z**2 + z**3), 0.25 * z**2
            floor = roundoff_floor(p, cur.u, nxt.u)
            excess.append((remainder - floor - model) / model)
            ratio.append(remainder / (model + floor))
        assert (taylor.name, taylor.bound) == ("taylor-remainder", STEP_SLACK)
        assert taylor.observed == pytest.approx(max(excess), rel=1e-9)
        assert hist.curvature_ratio == pytest.approx(max(ratio), rel=1e-9)
        assert not taylor.passed
        assert (pairing.name, pairing.observed, pairing.passed) == ("monotone-pairing", 0.0, True)

    def test_a_nan_excess_fails_both_rows(self):
        # B(u) = 1e308 tanh(1e3 u) from u0 = -1: one step reaches u1 = 1e308,
        # B(u1) - B(u0) overflows and so do both floors, so the excesses are
        # NaN; max(0.0, nan) read them as 0, two passes
        big = 1e308
        p = ProblemInstance(
            dim=1,
            operator=lambda u: big * np.tanh(1e3 * u),
            data=np.zeros(1),
            jacobian=lambda u: np.array([[big / np.cosh(1e3 * u[0]) ** 2 * 1e3]]),
            m2_bound=1.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            hist = run_iteration(p, Schedule.constant(1.0), StepRule.constant_h(1.0), 1, u0=[-1.0])
        assert hist.steps[1].u[0] == big
        assert [c.name for c in hist.assumptions] == ["monotone-pairing", "taylor-remainder"]
        assert all(math.isnan(c.observed) and not c.passed for c in hist.assumptions)
        assert math.isnan(hist.curvature_ratio)

    def test_rows_need_a_step_and_a_positive_curvature_bound(self, cubic):
        stopped = run_iteration(
            cubic, Schedule.constant(0.1), StepRule.constant_h(0.5), 3, stop_residual=1e300
        )
        assert (stopped.assumptions, stopped.curvature_ratio) == ((), None)
        linear = identity_problem(2, f=[1.0, 2.0])
        hist = run_iteration(linear, Schedule.constant(0.1), StepRule.constant_h(0.5), 3)
        assert [(c.name, c.observed) for c in hist.assumptions] == [("monotone-pairing", 0.0)]
        assert hist.curvature_ratio is None

    def test_the_floor_absorbs_the_roundoff_of_converged_steps(self):
        # random-monotone d10 from the unit alternating vector: from step 30
        # on |z_n| <= 2.4e-8, and the remainder is roundoff, up to thousands
        # of times m2 |z_n|^2 / 2 but within the floor
        p = make_random_monotone(dim=10, seed=1)
        u0 = np.array([(-1.0) ** i for i in range(10)]) / math.sqrt(10.0)
        hist = run_iteration(p, Schedule.oracle(), StepRule.constant_p(SQRT_E), 40, u0=u0)
        assert [(c.name, c.observed) for c in hist.assumptions] == [
            ("monotone-pairing", 0.0), ("taylor-remainder", 0.0)
        ]
        assert hist.curvature_ratio <= 1.0
        raw = []
        for cur, nxt in zip(hist.steps, hist.steps[1:]):
            z = nxt.u - cur.u
            b_z = apply_operator(p, nxt.u) - apply_operator(p, cur.u)
            raw.append(norm(b_z - jacobian(p, cur.u) @ z) / (0.5 * p.m2_bound * norm(z) ** 2))
        # within the 1e-4 acceptance window raw[30] is 1.23 and raw[37] 3034
        # (2.01 and 3670 when the oracle polished eps to 1e-10)
        assert max(raw[:30]) <= 1.0 < raw[30]
        assert max(raw[31:]) > 1000.0


def two_inequality_verdict(problem, history, slack):
    # the pass test verify_step_recursion made before it reported an excess
    c = 0.5 * problem.m2_bound
    for cur, nxt in zip(history.steps, history.steps[1:]):
        bound = (1.0 - 0.5 * cur.h) * cur.gap + cur.root_gap
        threshold = 2.0 * c * cur.gap
        if not nxt.gap <= bound * (1.0 + slack) + 1e-13 * (1.0 + cur.gap):
            return False
        if not cur.epsilon >= threshold * (1.0 - slack):
            return False
    return True


@pytest.fixture(scope="module")
def oracle_run(cubic):
    return run_iteration(cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), 10)


class TestVerdictIsObservedWithinBound:
    # One gap is moved to `scale` slacks past the bound of one inequality:
    # g_{n+1} against the contraction bound (with its 1e-13 (1 + g_n)
    # cushion), or 2 c g_n against eps_n.  The two float forms can round to
    # different verdicts only within a few ulps of the boundary, a band
    # narrower than 1e-14 / slack slacks, so samples in it are left out.
    # The slack is the check's own, STEP_SLACK.
    @settings(max_examples=300, deadline=None)
    @given(
        step=st.integers(0, 9),
        scale=st.floats(-3.0, 3.0),
        target=st.sampled_from(["contraction", "schedule"]),
    )
    @example(step=4, scale=1.0 - 1e-6, target="schedule")
    @example(step=4, scale=1.5, target="contraction")
    def test_same_verdict_as_two_inequalities(self, cubic, oracle_run, step, scale, target):
        slack = STEP_SLACK
        assume(abs(scale - 1.0) >= 1e-14 / slack)
        steps = list(oracle_run.steps)
        cur = steps[step]
        if target == "contraction":
            bound = (1.0 - 0.5 * cur.h) * cur.gap + cur.root_gap
            gap = bound * (1.0 + scale * slack) + 1e-13 * (1.0 + cur.gap)
            steps[step + 1] = dataclasses.replace(steps[step + 1], gap=gap)
        else:
            gap = cur.epsilon * (1.0 + scale * slack) / cubic.m2_bound
            steps[step] = dataclasses.replace(cur, gap=gap)
        history = dataclasses.replace(oracle_run, steps=steps)
        report = verify_step_recursion(cubic, history)
        assert report.passed == two_inequality_verdict(cubic, history, slack)
        assert report.observed == max(0.0, *(rec.excess for rec in report.records))

    @pytest.mark.parametrize("step", [0, 4, 9])
    def test_a_nan_gap_fails(self, cubic, oracle_run, step):
        # a NaN excess on one step; max(0.0, ..., nan, ...) read it as 0
        steps = list(oracle_run.steps)
        steps[step] = dataclasses.replace(steps[step], gap=math.nan)
        report = verify_step_recursion(cubic, dataclasses.replace(oracle_run, steps=steps))
        assert math.isnan(report.observed)
        assert not report.passed


class TestOracleSchedule:
    # seeds at which a root returned without re-checking its own gap left
    # eps_n below 2 c g_n by more than the check's slack
    @pytest.mark.parametrize("seed", [8, 11, 12, 13, 15, 16, 19])
    def test_schedule_holds_exactly_on_random_monotone(self, seed):
        p = make_random_monotone(dim=20, seed=seed)
        hist = run_iteration(p, Schedule.oracle(), StepRule.constant_h(0.5), 40)
        c = 0.5 * p.m2_bound
        for s in hist.steps:
            assert s.epsilon >= 2.0 * c * s.gap
        assert verify_step_recursion(p, hist).passed

    def test_root_solves_per_oracle_step(self, monkeypatch):
        calls = []
        solve = dsm.iterate.solve_regularized

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dsm.iterate, "solve_regularized", counted)
        p = make_cubic_monotone(dim=10)
        hist = run_iteration(
            p, Schedule.oracle(), StepRule.constant_p(SQRT_E), 40, stop_residual=0.0
        )
        assert len(hist.steps) == 41
        assert len(calls) / len(hist.steps) <= 10.0

    def test_extrapolated_start_saves_root_solves_on_the_benchmark_problems(self, monkeypatch):
        # the four matched-iterate problems of the benchmark at seed 1, 164
        # oracle calls: 1120 root solves when each hop starts at eps_{n-1},
        # 901 from eps_{n-1}^2 / eps_{n-2}, 853 when every solve also starts
        # from the quadratic predictor on eps -> V_eps, 662 when the first
        # guess extrapolates log eps quadratically and the second evaluation
        # is a secant step on the carried slope, 610 when the guess is cubic
        # in n, the root curve goes through six roots and step 0 starts at
        # its a-priori bound, and 403 when the oracle accepts eps within its
        # 1e-4 window instead of 1e-10; the bound is 403 plus a 2% margin
        calls = []
        solve = dsm.iterate.solve_regularized

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dsm.iterate, "solve_regularized", counted)
        for make, dim, rule in BENCHMARK_RUNS:
            p = make(dim=dim, seed=1)
            hist = run_iteration(p, Schedule.oracle(), rule, 40)
            assert len(hist.steps) == 41
            c = 0.5 * p.m2_bound
            assert all(s.epsilon >= 2.0 * c * s.gap for s in hist.steps)
            assert verify_step_recursion(p, hist).passed
        assert len(calls) <= int(1.02 * 403)

    @pytest.mark.parametrize("make, dim, rule", BENCHMARK_RUNS)
    def test_every_returned_root_is_feasible_within_the_window(
        self, make, dim, rule, monkeypatch
    ):
        # phi = eps - max(2 c |u - V_eps|, floor) >= 0 exactly, and either
        # phi <= window * eps or an infeasible eps lies within window * eps
        window = dsm.iterate._ACCEPT_WINDOW
        evals, ends = [], []
        solve = dsm.iterate.solve_regularized
        oracle = dsm.iterate._oracle_epsilon

        def recorded(*args, **kwargs):
            evals.append(solve(*args, **kwargs))
            return evals[-1]

        def checked(problem, u, b, c, floor, known, n, slope=None):
            evals.clear()
            root, out = oracle(problem, u, b, c, floor, known, n, slope)
            phis = {id(r): r.epsilon - max(2.0 * c * norm(u - r.v), floor) for r in evals}
            phi = phis[id(root)]
            assert phi >= 0.0
            if phi <= window * root.epsilon:
                ends.append("window")
            else:
                assert any(
                    phis[id(r)] < 0.0 and abs(root.epsilon - r.epsilon) <= window * root.epsilon
                    for r in evals
                )
                ends.append("bracket")
            return root, out

        monkeypatch.setattr(dsm.iterate, "solve_regularized", recorded)
        monkeypatch.setattr(dsm.iterate, "_oracle_epsilon", checked)
        run_iteration(make(dim=dim, seed=1), Schedule.oracle(), rule, 40)
        assert len(ends) == 41
        assert "window" in ends

    @pytest.mark.parametrize("make, dim, rule", BENCHMARK_RUNS)
    def test_every_step_after_the_third_takes_at_most_six_root_solves(
        self, make, dim, rule, monkeypatch
    ):
        # from eps_{n-1}^2 / eps_{n-2} with a fixed-point hop second,
        # cubic-monotone d50 took 7 or 8 root solves on 21 of these steps
        per_step = []
        calls = []
        solve = dsm.iterate.solve_regularized
        oracle = dsm.iterate._oracle_epsilon

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        def per_call(*args, **kwargs):
            before = len(calls)
            out = oracle(*args, **kwargs)
            per_step.append(len(calls) - before)
            return out

        monkeypatch.setattr(dsm.iterate, "solve_regularized", counted)
        monkeypatch.setattr(dsm.iterate, "_oracle_epsilon", per_call)
        run_iteration(make(dim=dim, seed=1), Schedule.oracle(), rule, 40)
        assert len(per_step) == 41
        assert max(per_step[3:]) <= 6

    def test_predicted_starts_halve_newton_iterations(self, monkeypatch):
        # the degree-5 predictor on eps -> V_eps: 196 Newton iterations on
        # these two benchmark problems at seed 1, 0.65 per root solve when
        # the oracle polished eps to 1e-10, against 1.06 per root solve with
        # the quadratic predictor and 1.96 when each solve starts from a
        # single earlier root.  The 1e-4 acceptance window removes 103 root
        # solves of no Newton iteration each, so the total is bounded, not
        # the ratio (0.98 now): 196 plus a 10% margin
        roots = []
        solve = dsm.iterate.solve_regularized

        def counted(*args, **kwargs):
            roots.append(solve(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(dsm.iterate, "solve_regularized", counted)
        runs = [
            (make_cubic_monotone, 10, StepRule.constant_p(SQRT_E)),
            (make_random_monotone, 20, StepRule.constant_h(0.5)),
        ]
        for make, dim, rule in runs:
            p = make(dim=dim, seed=1)
            hist = run_iteration(p, Schedule.oracle(), rule, 40)
            assert verify_step_recursion(p, hist).observed == 0.0
        assert sum(root.newton_iters for root in roots) <= int(1.1 * 196)

    def test_failure_names_layer_step_and_bracket(self, cubic, monkeypatch):
        monkeypatch.setattr(dsm.iterate, "_MAX_FP_EVALS", 2)
        with pytest.raises(NumericalFailure) as err:
            run_iteration(cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), 5)
        text = str(err.value)
        assert text.startswith("iterate:")
        assert "n=0" in text
        assert "bracket [lo, hi] = [" in text
        assert "last eps=" in text
        assert "phi=" in text


class TestCarriedSlope:
    """The secant step on the previous step's slope, and the hop it falls back to."""

    N = 6  # a step of the cubic problem whose first guess is feasible

    @pytest.fixture(scope="class")
    def state(self, cubic):
        hist = run_iteration(cubic, Schedule.oracle(), StepRule.constant_p(SQRT_E), self.N)
        known = [(s.epsilon, s.root) for s in hist.steps[self.N - 3 : self.N]]
        return cubic, hist.steps[self.N].u, 0.5 * cubic.m2_bound, known, hist.steps[self.N].epsilon

    def evaluations(self, state, floor, slope, monkeypatch):
        problem, u, c, known, _ = state
        evals = []
        solve = dsm.iterate.solve_regularized

        def recorded(prob, eps, **kwargs):
            evals.append(solve(prob, eps, **kwargs))
            return evals[-1]

        monkeypatch.setattr(dsm.iterate, "solve_regularized", recorded)
        b = apply_operator(problem, u)
        root, _ = dsm.iterate._oracle_epsilon(problem, u, b, c, floor, known, self.N, slope)
        monkeypatch.undo()
        assert root.epsilon >= max(2.0 * c * norm(u - root.v), floor)
        return evals

    def first_psi(self, state, floor, first):
        _, u, c, _, _ = state
        phi = first.epsilon - max(2.0 * c * norm(u - first.v), floor)
        return phi - 0.5 * dsm.iterate._ACCEPT_WINDOW * first.epsilon

    @pytest.mark.parametrize("slope", [0.0, -1.0, "below floor"])
    def test_an_unusable_slope_takes_the_hop(self, state, slope, monkeypatch):
        _, u, c, _, answer = state
        floor = 0.5 * answer  # below the answer, so the root is the same
        hop = self.evaluations(state, floor, None, monkeypatch)
        first = hop[0]
        psi = self.first_psi(state, floor, first)
        assert psi > 0.0  # a feasible first guess: a positive slope can step below the floor
        if slope == "below floor":
            slope = psi / (first.epsilon - 0.5 * floor)  # lands at floor / 2
        evals = self.evaluations(state, floor, slope, monkeypatch)
        assert evals[1].epsilon == max(2.0 * c * norm(u - first.v), floor)
        assert [r.epsilon for r in evals] == [r.epsilon for r in hop]

    def test_a_positive_slope_takes_the_secant_step(self, state, monkeypatch):
        _, u, c, _, answer = state
        hop = self.evaluations(state, 0.0, None, monkeypatch)
        first = hop[0]
        slope = self.first_psi(state, 0.0, first) / (first.epsilon - answer)
        evals = self.evaluations(state, 0.0, slope, monkeypatch)
        assert evals[1].epsilon == pytest.approx(answer, rel=1e-14)
        assert len(evals) < len(hop)


class _Stop(Exception):
    pass


def first_evaluation(problem, u, known, monkeypatch):
    """The root of the oracle's first root solve at step ``len(known)``."""
    seen = []
    solve = dsm.iterate.solve_regularized

    def recorded(prob, eps, **kwargs):
        seen.append(solve(prob, eps, **kwargs))
        raise _Stop

    monkeypatch.setattr(dsm.iterate, "solve_regularized", recorded)
    with pytest.raises(_Stop):
        b = apply_operator(problem, u)
        dsm.iterate._oracle_epsilon(problem, u, b, 0.5 * problem.m2_bound, 0.0, known, len(known))
    monkeypatch.undo()
    return seen[0]


class TestFirstGuess:
    """The first evaluation of a step: the a-priori bound at step 0, then
    ``log eps`` extrapolated in n."""

    @staticmethod
    def guess(cubic, logs, monkeypatch):
        known = [(math.exp(x), np.zeros(cubic.dim)) for x in logs]
        return first_evaluation(cubic, np.zeros(cubic.dim), known, monkeypatch).epsilon

    def test_exact_when_log_eps_is_a_cubic_in_n(self, cubic, monkeypatch):
        # third difference 6 * 0.02: the quadratic guess is 11% low
        def log_eps(n):
            return -0.5 * n - 0.1 * n**2 + 0.02 * n**3

        guess = self.guess(cubic, [log_eps(n) for n in range(4)], monkeypatch)
        assert guess == pytest.approx(math.exp(log_eps(4)), rel=1e-12)

    def test_the_cubic_is_kept_within_a_factor_of_two_of_the_quadratic(self, cubic, monkeypatch):
        # log eps of steps 0-2 lies on the line -n and step 3 lies log(f)
        # above it: the cubic guess is exp(-4) f^4, the factor f above the
        # quadratic exp(-4) f^3
        factors = (1.9, 1 / 1.9, 2.1, 1 / 2.1)
        guesses = [
            self.guess(cubic, [0.0, -1.0, -2.0, -3.0 + math.log(f)], monkeypatch) / math.exp(-4.0)
            for f in factors
        ]
        expected = [1.9**4, 1.9**-4, 2.1**3, 2.1**-3]
        assert guesses == pytest.approx(expected, rel=1e-12)
        # a cubic guess past the float range falls back to the quadratic, 1e10
        known = [(1e-300, np.zeros(cubic.dim))] + [(1e10, np.zeros(cubic.dim))] * 3
        assert first_evaluation(cubic, np.zeros(cubic.dim), known, monkeypatch).epsilon == 1e10

    @pytest.mark.parametrize("scale", [0.0, 1e2])
    @pytest.mark.parametrize("make", [make_cubic_monotone, make_random_monotone])
    def test_step_0_starts_feasible(self, make, scale, monkeypatch):
        # |u - V_eps| <= |B(u) + eps u - f| / eps makes the a-priori bound feasible
        p = make(dim=20, seed=1)
        u0 = scale * np.array([(-1.0) ** i for i in range(p.dim)])
        root = first_evaluation(p, u0, [], monkeypatch)
        assert root.epsilon - p.m2_bound * norm(u0 - root.v) >= 0.0


class TestFarStart:
    # the oracle from u0 = s (1, -1, 1, ...) on the benchmark's problems at
    # seed 1; cubic-monotone fails the contraction at s = 1e4 (observed 0.33
    # at d10, 0.31 at d50) because that start lies outside the ball its
    # curvature bound holds on, the working-ball defect of ROADMAP item 29
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("make, dim, rule", BENCHMARK_RUNS[:3])
    def test_recursion_verdict_from_a_far_start(self, make, dim, rule, scale):
        p = make(dim=dim, seed=1)
        u0 = scale * np.array([(-1.0) ** i for i in range(dim)])
        hist = run_iteration(p, Schedule.oracle(), rule, 40, u0=u0)
        c = 0.5 * p.m2_bound
        assert all(s.epsilon >= 2.0 * c * s.gap for s in hist.steps)
        expected = not (make is make_cubic_monotone and scale == 1e4)
        assert verify_step_recursion(p, hist).passed == expected


def far_start_curvature_holds(make, dim, h, scale, direction):
    """Whether ``taylor-remainder`` passes on that far start: it fails on
    ``cubic-monotone`` wherever the steps leave the ball its curvature
    bound holds on: from |u0| = 1e4 on, and on five d10 runs from 1e2
    that pass ``recursion-step``."""
    if make is make_random_monotone or scale == 1.0:
        return True
    if scale == 1e2:
        return not (dim == 10 and (h == 0.5 or direction == "random"))
    return False


def far_start_verdict(make, dim, h, scale, direction):
    """The ``recursion-step`` verdict of the oracle from a far start: the
    contraction fails on ``cubic-monotone`` from |u0| = 1e4 on (the
    working-ball defect above, ROADMAP item 29).  The d20, h = 0.5, 1e4,
    ``+y`` run stalled its Newton line search while the oracle polished
    eps to 1e-10; within the 1e-4 window it fails like the others."""
    return "fail" if make is make_cubic_monotone and scale >= 1e4 else "pass"


class TestFarStartGrid:
    # without a guard on the cubic first guess, cubic-monotone d10 at h = 1
    # from 1e6 along +y overflows in the operator
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["alternating", "random", "+y", "-y"])
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("dim", [10, 20, 50])
    @pytest.mark.parametrize("make", [make_cubic_monotone, make_random_monotone])
    def test_recursion_verdict_from_a_far_start(self, make, dim, h, scale, direction):
        p = make(dim=dim, seed=1)
        d = {
            "alternating": np.array([(-1.0) ** i for i in range(dim)]),
            "random": np.random.default_rng(dim).standard_normal(dim),
            "+y": p.known_solution,
            "-y": -p.known_solution,
        }[direction]
        rule = StepRule.constant_p(SQRT_E) if h == 1.0 else StepRule.constant_h(h)
        assert rule.h_at(0) == h
        try:
            hist = run_iteration(p, Schedule.oracle(), rule, 40, u0=scale * d / norm(d))
        except NumericalFailure:
            verdict = "NumericalFailure"
        else:
            verdict = "pass" if verify_step_recursion(p, hist).passed else "fail"
            pairing, taylor = hist.assumptions
            assert pairing.passed
            assert taylor.passed == far_start_curvature_holds(make, dim, h, scale, direction)
        assert verdict == far_start_verdict(make, dim, h, scale, direction)


def quintic_curve(eps):
    return np.array([1.0 + 2.0 * eps - 3.0 * eps**2, eps**3 - 4.0 * eps**5, 5.0 - eps**4])


class TestPredict:
    def test_exact_on_a_vector_quintic_through_the_six_nearest(self):
        # the far node off the curve is not among the six nearest any eps here
        nodes = (0.1, 0.4, 0.2, 0.3, 0.25, 0.15)
        known = [(e, quintic_curve(e)) for e in nodes] + [(5.0, np.full(3, 1e6))]
        for eps in (0.05, 0.15, 0.35, 0.5):
            np.testing.assert_allclose(
                _predict(known, eps), quintic_curve(eps), rtol=1e-12, atol=1e-12
            )

    def test_one_known_root_is_the_start(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(_predict([(0.1, v)], 0.02), v)

    def test_no_known_root_starts_cold(self):
        assert _predict([], 0.1) is None

    def test_duplicate_eps_values_are_skipped(self):
        # the latest root of each eps is its node; a second node at one eps
        # would divide the weights by zero
        def line(e):
            return np.array([1.0 + e, 2.0 - 3.0 * e])

        known = [(0.1, line(0.1) + 7.0), (0.2, line(0.2)), (0.1, line(0.1))]
        np.testing.assert_allclose(_predict(known, 0.5), line(0.5), rtol=1e-14)
        np.testing.assert_array_equal(_predict(known[2:] * 3, 0.5), line(0.1))
