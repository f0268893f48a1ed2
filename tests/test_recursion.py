import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsm import (
    Check,
    check_bound_chain,
    exponential_majorant,
    geometric_weighted_sum,
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


def scalar_scan(g1, a, b):
    """The unrolled bound as a scalar doubling scan: the reference for bits.

    Pass s composes the maps up to k with those up to k - s, walking k
    downward so that entry k - s still holds the previous pass.
    """
    n = a.size
    prod = [1.0 - float(x) for x in a]
    acc = [float(x) for x in b]
    s = 1
    while s < n:
        for k in range(n - 1, s - 1, -1):
            acc[k] = prod[k] * acc[k - s] + acc[k]
            prod[k] = prod[k] * prod[k - s]
        s *= 2
    return np.array([g1] + [acc[k] + g1 * prod[k] for k in range(n)])


def backward_walk(g1, a, b):
    """The unrolled bound summed term by term, from the newest step back."""
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


def _lengths(*ns):
    """Pinned examples of the given lengths, powers of two and their neighbours."""
    def pin(test):
        for n in ns:
            test = example(g1=0.75, ab=([0.3] * n, [0.5 / (k + 1) for k in range(n)]))(test)
        return test
    return pin


class TestUnrolledBound:
    @settings(max_examples=100, deadline=None)
    @given(g1=st.floats(0.0, 1e3), ab=admissible_sequences)
    @_lengths(1, 2, 3, 63, 64, 65, 255, 256, 257, 300)
    def test_bit_identical_to_scalar_loop(self, g1, ab):
        a, b = (np.array(x) for x in ab)
        assert np.array_equal(unrolled_bound(g1, a, b), scalar_scan(g1, a, b))

    # the walk's rounding grows with the length (up to about 2n ulps) and
    # the scan's with its depth, so they differ by at most about 7e-14 at
    # n = 300; atol covers a subnormal g1, whose products round absolutely
    @settings(max_examples=100, deadline=None)
    @given(g1=st.floats(0.0, 1e3), ab=admissible_sequences)
    def test_close_to_backward_walk(self, g1, ab):
        a, b = (np.array(x) for x in ab)
        np.testing.assert_allclose(
            unrolled_bound(g1, a, b), backward_walk(g1, a, b), rtol=1e-13, atol=1e-300
        )

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

    def test_long_run_through_subnormal_products(self):
        # 0.9^n goes subnormal near n = 6700 and reaches 0 near n = 7070
        a = b = np.full(12_000, 0.1)
        unr = unrolled_bound(5.0, a, b)
        np.testing.assert_allclose(simulate_recursion(5.0, a, b), unr, rtol=5e-13, atol=1e-300)
        assert check_bound_chain(5.0, a, b, slack=1e-12).passed


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
    def test_report_is_the_induction_chain_check(self):
        report = check_bound_chain(1.0, [0.25, 0.5], [0.1, 0.0], slack=1e-12)
        assert isinstance(report, Check)
        assert (report.name, report.bound) == ("induction-chain", 1e-12)

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

    # at zero slack a relative excess is <= 0 exactly when its difference
    # is, so the verdict must equal the product form bit for bit
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_zero_slack_verdict_matches_product_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        g1 = float(rng.uniform(0, 5))
        a = rng.uniform(1e-6, 0.5, n)
        b = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-8, 1)
        report = check_bound_chain(g1, a, b, slack=0.0)
        sim, unr, maj = report.simulated, report.unrolled, report.majorant
        assert report.passed == bool(np.all(sim <= unr) and np.all(unr <= maj))
        assert report.passed == (report.observed <= report.bound)

    def test_observed_is_worst_relative_excess(self):
        a = np.full(40, 0.3)
        b = 1.0 / np.arange(1, 41)
        report = check_bound_chain(2.0, a, b, slack=1e-12)
        sim, unr, maj = report.simulated, report.unrolled, report.majorant
        excess = np.maximum((sim - unr) / unr, (unr - maj) / maj)
        assert report.observed == max(0.0, float(excess.max()))
        assert report.bound == 1e-12
        assert report.passed

    def test_all_zero_chain_observes_zero(self):
        report = check_bound_chain(0.0, np.full(5, 0.5), np.zeros(5), slack=0.0)
        assert report.observed == 0.0
        assert report.passed

    @pytest.mark.parametrize("slack", [-1e-20, math.nan, math.inf])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        with pytest.raises(ValueError, match="slack"):
            check_bound_chain(1.0, np.full(3, 0.5), np.zeros(3), slack=slack)

    def test_rejects_inadmissible_weights(self):
        # the message names the first offending term and its value
        weight = r"^weights a must lie in \(0, 0\.5\], got a\[1\] = 0\.7$"
        with pytest.raises(ValueError, match=weight):
            check_bound_chain(1.0, np.array([0.5, 0.7, 0.9]), np.zeros(3))
        perturbation = r"^perturbations b must be non-negative, got b\[1\] = -1\.0$"
        with pytest.raises(ValueError, match=perturbation):
            check_bound_chain(1.0, np.full(3, 0.5), np.array([0.0, -1.0, -2.0]))
