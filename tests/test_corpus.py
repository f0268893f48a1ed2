import json

import numpy as np
import pytest

from dsm import (
    MAX_DIM,
    add_noise,
    apply_operator,
    check_monotonicity,
    corpus_names,
    describe_problem,
    inner,
    jacobian,
    make_problem,
    norm,
    problem_from_dict,
    taylor_remainder_check,
)

from conftest import run_capped


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_problem("cubic-monotone", dim=10.5),
        lambda: make_problem("cubic-monotone", seed=1.5),
        lambda: make_problem("random-monotone", seed=True),
        lambda: add_noise(np.ones(3), 0.1, 1.5),
        lambda: check_monotonicity(make_problem("hilbert-psd"), 2.5, 0, 1.0),
    ],
    ids=["fractional-dim", "fractional-seed", "bool-seed", "noise-seed", "trials"],
)
def test_non_integer_counts_and_seeds_are_value_errors(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def huge_dim_outcomes(call: str) -> list[str]:
    """Run ``call`` once per corpus name in a capped child (see
    ``conftest.run_capped``); return each outcome as text."""
    script = (
        "import json\n"
        "from dsm import corpus, corpus_names, make_problem\n"
        "out = []\n"
        "for name in corpus_names():\n"
        "    try:\n"
        f"        {call}\n"
        "        out.append('returned')\n"
        "    except Exception as exc:\n"
        "        out.append(f'{type(exc).__name__}: {exc}')\n"
        "print(json.dumps(out))\n"
    )
    return json.loads(run_capped(script))


class TestFactories:
    def test_names_and_shapes(self):
        names = corpus_names()
        assert names == [
            "psd-singular-linear",
            "hilbert-psd",
            "cubic-monotone",
            "random-monotone",
        ]
        dims = {"psd-singular-linear": 8, "hilbert-psd": 12, "cubic-monotone": 10, "random-monotone": 10}
        for name in names:
            p = make_problem(name)
            assert p.name == name
            assert p.dim == dims[name]
            assert p.data.shape == (p.dim,)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus problem"):
            make_problem("no-such-problem")

    def test_factory_validation(self):
        for name in ("psd-singular-linear", "cubic-monotone", "random-monotone"):
            with pytest.raises(ValueError):
                make_problem(name, dim=2)
        with pytest.raises(ValueError):
            make_problem("hilbert-psd", dim=0)
        with pytest.raises(ValueError):
            make_problem("cubic-monotone", radius=0.0)

    def test_dim_cap_checked_before_the_factory_allocates(self):
        outcomes = huge_dim_outcomes("make_problem(name, dim=10**7)")
        for name, outcome in zip(corpus_names(), outcomes):
            assert outcome == (
                f"ValueError: dimension 10000000 exceeds supported maximum {MAX_DIM}"
            ), name

    def test_each_factory_checks_the_dim_cap_itself(self):
        # make_psd_singular_linear, make_hilbert_psd, ... called directly
        outcomes = huge_dim_outcomes("getattr(corpus, 'make_' + name.replace('-', '_'))(dim=10**7)")
        for name, outcome in zip(corpus_names(), outcomes):
            assert outcome == (
                f"ValueError: dimension 10000000 exceeds supported maximum {MAX_DIM}"
            ), name

    def test_construction_is_deterministic(self, all_problems):
        for p in all_problems:
            again = make_problem(p.name)
            assert np.array_equal(p.data, again.data)
            z = np.zeros(p.dim)
            assert np.array_equal(jacobian(p, z), jacobian(again, z))

    def test_distinct_seeds_change_random_problems(self):
        a = make_problem("random-monotone", seed=3)
        b = make_problem("random-monotone", seed=4)
        assert not np.array_equal(a.data, b.data)


class TestProblemContracts:
    def test_every_problem_is_monotone(self, all_problems):
        for p in all_problems:
            report = check_monotonicity(p, trials=1000, radius=10.0, seed=0)
            assert report.passed, f"{p.name}: worst pairing {report.min_pairing}"

    def test_known_solutions_solve_the_equation(self, all_problems):
        for p in all_problems:
            res = norm(apply_operator(p, p.known_solution) - p.data)
            assert res <= 1e-10 * (1.0 + norm(p.data))

    def test_nonlinear_solutions_are_isolated(self, cubic, tanh_monotone):
        # a monotone equation has a convex solution set, so a solution where
        # B'(y) is positive definite is the only one, hence the minimal-norm one
        for p in (cubic, tanh_monotone):
            m = jacobian(p, p.known_solution)
            assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() >= 0.5, p.name

    def test_singular_linear_solution_is_minimal_norm(self, rank_deficient_linear):
        p = rank_deficient_linear
        m = jacobian(p, np.zeros(p.dim))
        eigvals, eigvecs = np.linalg.eigh(0.5 * (m + m.T))
        kernel = eigvecs[:, np.abs(eigvals) < 1e-10]
        assert kernel.shape[1] == 2
        # stored solution is orthogonal to the kernel, hence minimal norm
        assert float(np.max(np.abs(kernel.T @ p.known_solution))) <= 1e-9
        assert norm(p.known_solution) < norm(np.ones(p.dim))

    def test_hilbert_is_severely_ill_conditioned(self, hilbert_linear):
        m = jacobian(hilbert_linear, np.zeros(hilbert_linear.dim))
        assert np.linalg.cond(m) > 1e15

    def test_curvature_bounds_hold_on_random_pairs(self, cubic, tanh_monotone):
        rng = np.random.default_rng(5)
        for p in (cubic, tanh_monotone):
            for _ in range(100):
                u = rng.uniform(-2.0, 2.0, p.dim)
                z = rng.uniform(-1.0, 1.0, p.dim)
                z *= rng.uniform(0, 1) / max(norm(z), 1e-300)
                report = taylor_remainder_check(p, u, z)
                assert report.remainder <= report.bound * (1.0 + 1e-8)


class TestAddNoise:
    def test_distance_is_exact(self):
        f = np.linspace(-1.0, 2.0, 7)
        for delta in (1e-1, 1e-3, 1e-6):
            g = add_noise(f, delta, seed=11)
            assert norm(g - f) == pytest.approx(delta, rel=1e-12)

    def test_same_seed_reproduces(self):
        f = np.ones(5)
        assert np.array_equal(add_noise(f, 0.01, seed=4), add_noise(f, 0.01, seed=4))

    def test_distinct_seeds_point_elsewhere(self):
        f = np.zeros(6)
        a = add_noise(f, 1.0, seed=0)
        b = add_noise(f, 1.0, seed=1)
        cos = inner(a, b) / (norm(a) * norm(b))
        assert abs(cos) < 0.999

    def test_validation(self):
        f = np.ones(3)
        for bad in (0.0, -0.1, np.inf, np.nan):
            with pytest.raises(ValueError):
                add_noise(f, bad, seed=0)


class TestProblemFromDict:
    def test_corpus_form_with_options(self):
        p = problem_from_dict({"corpus": "cubic-monotone", "dim": 6, "seed": 9})
        assert p.dim == 6
        assert p.name == "cubic-monotone"

    def test_corpus_form_rejects_unknown_option(self):
        with pytest.raises(ValueError, match="unknown corpus option"):
            problem_from_dict({"corpus": "hilbert-psd", "extra": 1})

    def test_hilbert_takes_no_seed(self):
        with pytest.raises(ValueError, match="no seed"):
            problem_from_dict({"corpus": "hilbert-psd", "seed": 2})
        with pytest.raises(ValueError, match="no seed"):
            make_problem("hilbert-psd", seed=2)

    def test_radius_restricted_to_cubic(self):
        with pytest.raises(ValueError, match="radius"):
            problem_from_dict({"corpus": "random-monotone", "radius": 2.0})
        with pytest.raises(ValueError, match="radius"):
            make_problem("random-monotone", radius=2.0)
        p = problem_from_dict({"corpus": "cubic-monotone", "radius": 2.0})
        assert p.m2_bound == pytest.approx(6.0 * (2.0 + norm(np.ones(10))))

    def test_linear_form(self):
        spec = {
            "linear": {
                "matrix": [[2.0, 0.0], [0.0, 1.0]],
                "data": [2.0, 3.0],
                "known_solution": [1.0, 3.0],
                "name": "diag-demo",
            }
        }
        p = problem_from_dict(spec)
        assert p.is_linear
        assert p.m2_bound == 0.0
        assert p.name == "diag-demo"
        np.testing.assert_allclose(apply_operator(p, np.array([1.0, 3.0])), [2.0, 3.0])

    def test_linear_defaults(self):
        p = problem_from_dict({"linear": {"matrix": [[1.0]], "data": [1.0]}})
        assert p.name == "external-linear"
        assert p.known_solution is None

    def test_skew_matrix_is_monotone(self):
        p = problem_from_dict({"linear": {"matrix": [[0.0, 1.0], [-1.0, 0.0]], "data": [1.0, 0.0]}})
        assert p.is_linear

    def test_non_monotone_matrix_rejected(self):
        with pytest.raises(ValueError, match="not monotone"):
            problem_from_dict({"linear": {"matrix": [[-1.0, 0.0], [0.0, 1.0]], "data": [0.0, 0.0]}})

    def test_options_are_coerced_without_loss(self):
        for bad, shown in [
            ({"dim": 2.5}, "2.5"),
            ({"dim": True}, "True"),
            ({"seed": "1"}, "'1'"),
            ({"dim": MAX_DIM + 1}, str(MAX_DIM + 1)),
            ({"radius": float("inf")}, "inf"),
            ({"dim": None}, "None"),
        ]:
            with pytest.raises(ValueError, match=shown):
                problem_from_dict({"corpus": "cubic-monotone", **bad})
        assert problem_from_dict({"corpus": "cubic-monotone", "dim": 6.0}).dim == 6
        with pytest.raises(ValueError, match="string"):
            problem_from_dict({"corpus": ["cubic-monotone"]})

    def test_linear_entries_must_be_numbers(self):
        for matrix in ([[1.0, None], [0.0, 1.0]], [[True]], [[{"a": 1}]], [1.0]):
            with pytest.raises(ValueError):
                problem_from_dict({"linear": {"matrix": matrix, "data": [1.0]}})
        with pytest.raises(ValueError, match="unknown"):
            problem_from_dict({"linear": {"matrix": [[1.0]], "data": [1.0]}, "extra": 1})

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"linear": {"matrix": [[1.0, 0.0]], "data": [1.0]}})
        with pytest.raises(ValueError):
            problem_from_dict({"linear": {"matrix": [[1.0]]}})
        with pytest.raises(ValueError):
            problem_from_dict({"neither": 1})
        with pytest.raises(ValueError):
            problem_from_dict("cubic-monotone")


class TestDescribeProblem:
    def test_corpus_description_round_trips(self):
        spec = {"corpus": "psd-singular-linear"}
        desc = describe_problem(spec)
        assert desc["spec"] == spec
        assert desc["name"] == "psd-singular-linear"
        assert desc["dim"] == 8
        assert desc["is_linear"]
        assert "is_strictly_monotone" not in desc and "m1_bound" not in desc
        rebuilt = problem_from_dict(
            {"linear": {"matrix": desc["matrix"], "data": desc["data"]}}
        )
        p = problem_from_dict(spec)
        u = np.linspace(0.0, 1.0, 8)
        np.testing.assert_allclose(
            apply_operator(rebuilt, u), apply_operator(p, u), rtol=1e-12
        )

    def test_nonlinear_description_has_no_matrix(self):
        desc = describe_problem({"corpus": "cubic-monotone"})
        assert "matrix" not in desc
        assert desc["m2_bound"] == pytest.approx(6.0 * (5.0 + norm(np.ones(10))))
        assert len(desc["data"]) == 10
