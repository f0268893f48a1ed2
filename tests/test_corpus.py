import json

import numpy as np
import pytest

from dsm import (
    MAX_DIM,
    add_noise,
    apply_operator,
    corpus,
    inner,
    jacobian,
    make_problem,
    norm,
    problem_from_dict,
)

from conftest import CORPUS_NAMES, run_capped


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_problem("cubic-monotone", dim=10.5),
        lambda: make_problem("cubic-monotone", seed=1.5),
        lambda: make_problem("random-monotone", seed=True),
        lambda: add_noise(np.ones(3), 0.1, 1.5),
    ],
    ids=["fractional-dim", "fractional-seed", "bool-seed", "noise-seed"],
)
def test_non_integer_counts_and_seeds_are_value_errors(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_problem("cubic-monotone", dim=2000, seed=-1),
        lambda: make_problem("random-monotone", seed=-1.0),
        lambda: add_noise(np.ones(3), 0.1, -1),
    ],
    ids=["factory", "integral-float", "noise"],
)
def test_negative_seeds_are_refused_by_name(call):
    # numpy's own refusal named no argument, and came after the build's first steps
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1"):
        call()


# the least dim each corpus problem takes; every one takes at most MAX_DIM
LEAST_DIM = {"psd-singular-linear": 3, "hilbert-psd": 1, "cubic-monotone": 3, "random-monotone": 3}


def huge_dim_outcomes(call: str) -> list[str]:
    """Run ``call`` once per corpus name in a capped child (see
    ``conftest.run_capped``); return each outcome as text."""
    script = (
        "import json\n"
        "from dsm import corpus, make_problem\n"
        "out = []\n"
        f"for name in {CORPUS_NAMES!r}:\n"
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
        # the test suite's list is the whole corpus
        assert set(corpus._FACTORIES) == set(CORPUS_NAMES)
        dims = {"psd-singular-linear": 8, "hilbert-psd": 12, "cubic-monotone": 10, "random-monotone": 10}
        for name in CORPUS_NAMES:
            p = make_problem(name)
            assert p.name == name
            assert p.dim == dims[name]
            assert p.data.shape == (p.dim,)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus problem"):
            make_problem("no-such-problem")

    def test_factory_validation(self):
        for name in ("psd-singular-linear", "cubic-monotone", "random-monotone"):
            with pytest.raises(ValueError, match=r"^dim must be an integer in \[3, 2000\], got 2$"):
                make_problem(name, dim=2)
        with pytest.raises(ValueError, match=r"^dim must be an integer in \[1, 2000\], got 0$"):
            make_problem("hilbert-psd", dim=0)
        with pytest.raises(ValueError, match="^cubic-monotone takes no radius option, only dim, seed$"):
            make_problem("cubic-monotone", radius=5.0)

    def test_dim_cap_checked_before_the_factory_allocates(self):
        outcomes = huge_dim_outcomes("make_problem(name, dim=10**7)")
        for name, outcome in zip(CORPUS_NAMES, outcomes):
            least = LEAST_DIM[name]
            assert outcome == (
                f"ValueError: dim must be an integer in [{least}, {MAX_DIM}], got 10000000"
            ), name

    def test_each_factory_checks_the_dim_cap_itself(self):
        # make_psd_singular_linear, make_hilbert_psd, ... called directly
        outcomes = huge_dim_outcomes("getattr(corpus, 'make_' + name.replace('-', '_'))(dim=10**7)")
        for name, outcome in zip(CORPUS_NAMES, outcomes):
            least = LEAST_DIM[name]
            assert outcome == (
                f"ValueError: dim must be an integer in [{least}, {MAX_DIM}], got 10000000"
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
        # B is monotone iff the symmetric part of B'(u) is positive semidefinite at every u
        rng = np.random.default_rng(0)
        for p in all_problems:
            for _ in range(100):
                m = jacobian(p, rng.uniform(-10.0, 10.0, p.dim))
                sym = 0.5 * (m + m.T)
                assert np.linalg.eigvalsh(sym).min() >= -1e-12 * np.abs(sym).max(), p.name

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
                remainder = norm(apply_operator(p, u + z) - apply_operator(p, u) - jacobian(p, u) @ z)
                assert remainder <= 0.5 * p.m2_bound * norm(z) ** 2 * (1.0 + 1e-8)


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

    def test_radius_is_a_constant_not_an_option(self):
        for name in ("cubic-monotone", "random-monotone"):
            with pytest.raises(ValueError, match=r"^unknown corpus options \['radius'\]$"):
                problem_from_dict({"corpus": name, "radius": 5.0})
        p = problem_from_dict({"corpus": "cubic-monotone"})
        assert p.m2_bound == 6.0 * (corpus.CUBIC_RADIUS + norm(np.ones(10)))
        assert corpus.CUBIC_RADIUS == 5.0

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

    @pytest.mark.parametrize(
        "matrix, given",
        [
            ([[2.0, 0.0], [0.0, 1.0]], [1.0, 3.0]),  # README's diag-demo
            ((1.0 / (np.arange(12)[:, None] + np.arange(12) + 1.0)).tolist(), [1.0] * 12),
        ],
        ids=["diag-demo", "hilbert-exact"],
    )
    def test_linear_form_keeps_a_minimal_norm_solution(self, matrix, given):
        # Hilbert's exact ones are 1.95e-11 shorter than its truncated lstsq
        # answer, 3.03e-5 away from them, so a distance test would refuse them
        data = (np.array(matrix) @ np.array(given)).tolist()
        p = problem_from_dict({"linear": {"matrix": matrix, "data": data, "known_solution": given}})
        np.testing.assert_array_equal(p.known_solution, given)

    @pytest.mark.parametrize(
        "given, why",
        [
            ([1.0, 3.0, 1.0], "is not minimal-norm"),
            ([1.0, 2.0, 0.0], "does not reproduce the data"),
            ([1.0], "has length 1, expected 3"),
        ],
        ids=["kernel-component", "misses-the-data", "wrong-length"],
    )
    def test_linear_form_refuses_a_wrong_solution(self, given, why):
        spec = {"linear": {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 0]], "data": [2, 3, 0],
                           "known_solution": given}}
        with pytest.raises(ValueError, match=f"known_solution {why}"):
            problem_from_dict(spec)

    def test_linear_defaults(self):
        p = problem_from_dict({"linear": {"matrix": [[2.0, 0.0], [0.0, 0.0]], "data": [1.0, 0.0]}})
        assert p.name == "external-linear"
        # the least-squares minimal-norm solution is stored at construction
        np.testing.assert_array_equal(p.known_solution, [0.5, 0.0])

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


