import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm import (
    check_bound_chain,
    exponential_majorant,
    geometric_weighted_sum,
    horizon_diagnostics,
    simulate_recursion,
    unrolled_bound,
)


class TestSimulateRecursion:
    def test_pure_halving(self):
        out = simulate_recursion(1.0, np.full(10, 0.5), np.zeros(10))
        np.testing.assert_allclose(out, 0.5 ** np.arange(11), rtol=1e-15)

    def test_zero_start_stays_zero(self):
        out = simulate_recursion(0.0, np.full(5, 0.5), np.zeros(5))
        assert np.all(out == 0.0)

    def test_halving_with_harmonic_forcing(self):
        n = 19
        b = 1.0 / np.arange(1, n + 1)
        out = simulate_recursion(1.0, np.full(n, 0.5), b)
        # value after the 19th update; frozen regression from the recursion itself
        assert out[-1] < 0.12
        assert out[-1] == pytest.approx(0.1119891632987, abs=1e-10)

    def test_contraction_weights_must_stay_in_range(self):
        with pytest.raises(ValueError):
            simulate_recursion(1.0, np.array([0.6]), np.array([0.0]))
        with pytest.raises(ValueError):
            simulate_recursion(1.0, np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            simulate_recursion(1.0, np.array([0.5]), np.array([-1.0]))
        with pytest.raises(ValueError):
            simulate_recursion(-1.0, np.array([0.5]), np.array([0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_recursion(1.0, np.full(3, 0.5), np.zeros(4))


def scalar_unrolled_bound(g1, a, b):
    """The unrolled bound as a scalar double loop: the reference for bits."""
    out = np.empty(a.size + 1)
    out[0] = g1
    q = 1.0 - a
    for m in range(1, a.size + 1):
        prod = 1.0
        total = 0.0
        for k in range(m - 1, -1, -1):
            total += b[k] * prod
            prod *= q[k]
        out[m] = total + g1 * prod
    return out


admissible_sequences = st.integers(1, 300).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 0.5, exclude_min=True), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n),
    )
)


class TestUnrolledBound:
    @settings(max_examples=100, deadline=None)
    @given(g1=st.floats(0.0, 1e3), ab=admissible_sequences)
    def test_bit_identical_to_scalar_loop(self, g1, ab):
        a, b = (np.array(x) for x in ab)
        assert np.array_equal(unrolled_bound(g1, a, b), scalar_unrolled_bound(g1, a, b))

    def test_no_forcing_reduces_to_product(self):
        out = unrolled_bound(2.0, np.full(3, 0.5), np.zeros(3))
        assert out[3] == pytest.approx(2.0 / 8.0, rel=1e-15)

    def test_matches_simulation_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            g1 = float(rng.uniform(0, 3))
            a = rng.uniform(1e-8, 0.5, n)
            b = rng.uniform(0, 1, n)
            sim = simulate_recursion(g1, a, b)
            unr = unrolled_bound(g1, a, b)
            np.testing.assert_allclose(sim, unr, rtol=5e-13, atol=1e-300)


class TestExponentialMajorant:
    def test_dominates_unrolled_form(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            g1 = float(rng.uniform(0, 3))
            a = rng.uniform(1e-8, 0.5, n)
            b = rng.uniform(0, 1, n)
            unr = unrolled_bound(g1, a, b)
            maj = exponential_majorant(g1, a, b)
            assert np.all(unr <= maj * (1 + 1e-12) + 1e-300)

    def test_constant_weight_recurrence_unrolls_to_power_sum(self):
        a = math.log(math.sqrt(math.e))  # contraction exp(-a) = 1/sqrt(e)
        n = 30
        b = np.full(n, 0.25)
        maj = exponential_majorant(2.0, np.full(n, a), b)
        p = math.sqrt(math.e)
        for m in range(n + 1):
            # b[k] enters at step k+1 and is contracted once per later step
            direct = 2.0 * p**-m + sum(b[k] * p ** (-(m - 1 - k)) for k in range(m))
            assert maj[m] == pytest.approx(direct, rel=1e-12)


class TestGeometricWeightedSum:
    def test_ratio_one_over_p_reproduces_majorant(self):
        rng = np.random.default_rng(29)
        for p in (math.sqrt(math.e), math.exp(0.25), 1.3):
            n = 40
            b = rng.uniform(0, 1, n)
            got = geometric_weighted_sum(1.5, b, 1.0 / p)
            maj = exponential_majorant(1.5, np.full(n, math.log(p)), b)
            np.testing.assert_allclose(got, maj, rtol=1e-12)

    def test_ratio_one_minus_a_reproduces_unrolled(self):
        rng = np.random.default_rng(31)
        a = 0.4
        n = 35
        b = rng.uniform(0, 1, n)
        got = geometric_weighted_sum(0.5, b, 1.0 - a)
        unr = unrolled_bound(0.5, np.full(n, a), b)
        np.testing.assert_allclose(got, unr, rtol=1e-12)

    def test_vanishing_forcing_drives_sum_to_zero(self):
        # geometric forcing decays, so the weighted sum eventually decreases
        n = 120
        r = 0.8
        b = r ** np.arange(1, n + 1)
        out = geometric_weighted_sum(1.0, b, 1.0 / math.sqrt(math.e))
        tail = out[40:]
        assert all(y < x for x, y in zip(tail, tail[1:]))
        assert out[-1] < 1e-8

    def test_ratio_range(self):
        with pytest.raises(ValueError):
            geometric_weighted_sum(1.0, np.zeros(3), 0.4)
        with pytest.raises(ValueError):
            geometric_weighted_sum(1.0, np.zeros(3), 1.0)


class TestBoundChain:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_admissible_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        g1 = float(rng.uniform(0, 5))
        a = rng.uniform(1e-6, 0.5, n)
        b = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-8, 1)
        report = check_bound_chain(g1, a, b, slack=1e-12)
        assert report.passed
        assert report.simulated.shape == (n + 1,)

    def test_rejects_inadmissible_weights(self):
        with pytest.raises(ValueError):
            check_bound_chain(1.0, np.array([0.7]), np.array([0.0]))


class TestHorizonDiagnostics:
    def test_halving_with_harmonic_forcing_reference_values(self):
        h = 200
        a = np.full(h, 0.5)
        b = 1.0 / np.arange(1, h + 1)
        rep = horizon_diagnostics(a, b, h)
        assert rep.weight_sum == pytest.approx(100.0, rel=1e-14)
        assert rep.weights_diverging_trend
        assert rep.tail_sum < 0.02
        assert rep.tail_nonincreasing_trend

    def test_zero_forcing_has_zero_tail(self):
        for h in (10, 50):
            rep = horizon_diagnostics(np.full(h, 0.3), np.zeros(h), h)
            assert rep.tail_sum == 0.0
            assert rep.tail_nonincreasing_trend

    def test_summable_weights_flagged_as_nondivergent(self):
        h = 400
        k = np.arange(1, h + 1)
        rep = horizon_diagnostics(1.0 / k**2, np.full(h, 0.1), h)
        assert rep.weight_sum < math.pi**2 / 6
        assert rep.weight_sum > 1.6
        assert not rep.weights_diverging_trend
        assert not rep.tail_nonincreasing_trend

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            horizon_diagnostics(np.full(5, 0.5), np.zeros(5), 1)
        with pytest.raises(ValueError):
            horizon_diagnostics(np.full(5, 0.5), np.zeros(5), 10)
