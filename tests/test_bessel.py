"""Backward-recurrence Bessel values against an independent oracle."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from matteroptics.bessel import bessel_j_sequence
from matteroptics.errors import ParameterError


@pytest.mark.parametrize(
    "x", [1.0e-8, 0.37, 0.5, 1.0, 2.404825557695773, 5.0, 10.0, 37.6, 123.4]
)
def test_sequence_matches_scipy(x):
    q_max = 60
    got = bessel_j_sequence(x, q_max)
    want = scipy.special.jv(np.arange(q_max + 1), x)
    assert np.max(np.abs(got - want)) < 5.0e-14


def test_negative_argument_parity():
    x = 3.7
    plus = bessel_j_sequence(x, 12)
    minus = bessel_j_sequence(-x, 12)
    signs = (-1.0) ** np.arange(13)
    assert np.array_equal(minus, plus * signs)


def test_zero_argument():
    seq = bessel_j_sequence(0.0, 5)
    assert seq[0] == 1.0
    assert np.all(seq[1:] == 0.0)


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 50.0])
def test_normalization_identity(x):
    # J_0 + 2 J_2 + 2 J_4 + ... = 1 is enforced by construction; holding
    # to roundoff confirms the start order is high enough
    q_max = int(x) + 40
    seq = bessel_j_sequence(x, q_max)
    total = seq[0] + 2.0 * seq[2::2].sum()
    assert total == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("tau", [0.5, 2.0, 5.0, 12.0])
def test_squared_sum_completeness(tau):
    # sum over all orders of J_q^2 = 1; the tail past |tau| + 20 is dust
    q_max = int(math.ceil(tau)) + 20
    seq = bessel_j_sequence(tau, q_max)
    total = seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2)
    assert abs(total - 1.0) < 1e-9


def test_large_order_underflow_is_clean():
    # far above the turning point the values are tiny but finite
    seq = bessel_j_sequence(1.0, 150)
    assert np.all(np.isfinite(seq))
    assert abs(seq[150]) < 1e-200


def test_input_guards():
    with pytest.raises(ParameterError):
        bessel_j_sequence(1.0, -1)
    with pytest.raises(ParameterError):
        bessel_j_sequence(math.nan, 3)
    with pytest.raises(ParameterError):
        bessel_j_sequence(math.inf, 3)


@given(x=st.floats(min_value=0.01, max_value=50.0), q=st.integers(min_value=1, max_value=30))
def test_three_term_recurrence_property(x, q):
    seq = bessel_j_sequence(x, q + 1)
    residual = seq[q - 1] + seq[q + 1] - (2.0 * q / x) * seq[q]
    assert abs(residual) < 1e-11 * max(1.0, 2.0 * q / x)


@given(x=st.floats(min_value=0.0, max_value=80.0))
def test_oracle_agreement_property(x):
    got = bessel_j_sequence(x, 8)
    want = scipy.special.jv(np.arange(9), x)
    assert np.max(np.abs(got - want)) < 1e-13
