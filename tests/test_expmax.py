"""Tests for the expected maximum of independent exponentials (Eq. 9-12)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expmax import (
    expected_max_exponentials,
    expected_max_iid,
    expected_max_inclusion_exclusion,
    expected_max_recursive,
    expected_max_rows,
    expected_min_exponentials,
    harmonic_number,
)

rates_strategy = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6
)


class TestHarmonic:
    def test_h0(self):
        assert harmonic_number(0) == 0.0

    def test_h1(self):
        assert harmonic_number(1) == 1.0

    def test_h4(self):
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)


class TestExpectedMin:
    def test_single(self):
        assert expected_min_exponentials([2.0]) == pytest.approx(0.5)

    def test_two_rates_eq10(self):
        # paper Eq. 10: E[min] = 1 / (mu1 + mu2)
        assert expected_min_exponentials([1.0, 3.0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_min_exponentials([])

    def test_infinite_rate_gives_zero(self):
        assert expected_min_exponentials([math.inf, 1.0]) == 0.0


class TestExpectedMaxTwoVariables:
    """Paper Eq. 11 hand-checkable cases."""

    def test_equal_rates(self):
        # iid: E[max] = (1 + 1/2) / mu
        assert expected_max_recursive([2.0, 2.0]) == pytest.approx(0.75)

    def test_eq11_structure(self):
        # E[max] = 1/(mu1+mu2) + mu1/(mu1+mu2)/mu2 + mu2/(mu1+mu2)/mu1
        mu1, mu2 = 1.0, 3.0
        expected = 1 / 4 + (1 / 4) * (1 / 3) + (3 / 4) * (1 / 1)
        assert expected_max_recursive([mu1, mu2]) == pytest.approx(expected)

    def test_closed_form_two(self):
        # E[max{A,B}] = 1/mu1 + 1/mu2 - 1/(mu1+mu2)
        mu1, mu2 = 0.7, 1.9
        expected = 1 / mu1 + 1 / mu2 - 1 / (mu1 + mu2)
        assert expected_max_recursive([mu1, mu2]) == pytest.approx(expected)


class TestExpectedMaxGeneral:
    def test_single_variable(self):
        assert expected_max_recursive([4.0]) == pytest.approx(0.25)

    def test_empty_is_zero(self):
        assert expected_max_recursive([]) == 0.0

    def test_zero_rate_is_inf(self):
        assert math.isinf(expected_max_recursive([0.0, 1.0]))

    def test_inf_rate_dropped(self):
        assert expected_max_recursive([math.inf, 2.0]) == pytest.approx(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            expected_max_recursive([math.nan])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_max_recursive([-1.0])

    def test_iid_matches_harmonic(self):
        mu = 1.7
        for m in range(1, 6):
            assert expected_max_recursive([mu] * m) == pytest.approx(
                harmonic_number(m) / mu
            )
            assert expected_max_iid(mu, m) == pytest.approx(harmonic_number(m) / mu)

    def test_large_m_guard(self):
        with pytest.raises(ValueError):
            expected_max_recursive([1.0] * 21)

    def test_inclusion_exclusion_handles_larger_m(self):
        rates = [1.0 + 0.1 * i for i in range(12)]
        v = expected_max_inclusion_exclusion(rates)
        assert v > 0

    @given(rates=rates_strategy)
    @settings(max_examples=60)
    def test_recursion_equals_inclusion_exclusion(self, rates):
        a = expected_max_recursive(rates)
        b = expected_max_inclusion_exclusion(rates)
        assert a == pytest.approx(b, rel=1e-9)

    @given(rates=rates_strategy)
    @settings(max_examples=60)
    def test_max_at_least_each_mean(self, rates):
        v = expected_max_recursive(rates)
        assert v >= max(1.0 / r for r in rates) - 1e-12

    @given(rates=rates_strategy)
    @settings(max_examples=60)
    def test_max_at_most_sum_of_means(self, rates):
        v = expected_max_recursive(rates)
        assert v <= sum(1.0 / r for r in rates) + 1e-12

    @given(rates=rates_strategy)
    @settings(max_examples=40)
    def test_permutation_invariance(self, rates):
        assert expected_max_recursive(rates) == pytest.approx(
            expected_max_recursive(list(reversed(rates)))
        )

    @given(rates=rates_strategy)
    @settings(max_examples=40)
    def test_adding_variable_increases_max(self, rates):
        base = expected_max_recursive(rates)
        more = expected_max_recursive(rates + [5.0])
        assert more >= base - 1e-12

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(42)
        rates = [0.5, 1.0, 2.0, 4.0]
        samples = np.max(
            np.column_stack([rng.exponential(1.0 / r, size=200_000) for r in rates]),
            axis=1,
        )
        mc = float(samples.mean())
        analytic = expected_max_recursive(rates)
        assert analytic == pytest.approx(mc, rel=0.01)


class TestDispatch:
    def test_method_recursive(self):
        assert expected_max_exponentials([1.0, 2.0], method="recursive") > 0

    def test_method_inclusion_exclusion(self):
        a = expected_max_exponentials([1.0, 2.0], method="recursive")
        b = expected_max_exponentials([1.0, 2.0], method="inclusion-exclusion")
        assert a == pytest.approx(b)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            expected_max_exponentials([1.0], method="bogus")


class TestExpectedMaxRows:
    """The row-wise recursion agrees with the scalar one; a 0 entry is an
    absent variable (the scalar entry point's infinite rate)."""

    @given(
        st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=100.0)),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_recursion(self, rows):
        got = expected_max_rows(np.array(rows))
        for row, value in zip(rows, got):
            want = expected_max_exponentials([r if r > 0.0 else math.inf for r in row])
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)
