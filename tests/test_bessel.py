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


# Rows pinned bit for bit, as float.hex. The x = 1e-3 row starts at order
# 86 with a factor 2k/x up to 1.7e5 per step, so its trial row passes
# _RESCALE_LIMIT and is rescaled on the way down.
_PINNED = {
    (2.0, 7): [
        "0x1.ca873fb24cef9p-3", "0x1.27487958371f0p-1", "0x1.694d52d747c63p-2",
        "0x1.081365fc429d0p-3", "0x1.167e3118e12a0p-5", "0x1.cd596393d19fbp-8",
        "0x1.3b35a4703b39dp-10", "0x1.6ee26290e6df3p-13",
    ],
    (-8.16, 7): [
        "0x1.0f471840a4bb2p-3", "-0x1.0441b92264f6fp-2", "-0x1.1f66da5f9124dp-4",
        "0x1.277a3fd13e480p-2", "-0x1.22d32ce5cf40dp-3", "-0x1.31d52670de8ccp-3",
        "0x1.4ccf54e7c04e8p-2", "-0x1.50828f498d695p-2",
    ],
}
_PINNED_RESCALED = {
    0: "0x1.fffff79c84388p-1", 1: "0x1.0624db0959245p-11", 2: "0x1.0c6f7894120efp-23",
    30: "0x1.3eff84b9004d8p-437", 59: "0x1.bb77e79afd327p-914", 60: "0x1.e462befdad0a6p-931",
}


@pytest.mark.parametrize("x, q_max", sorted(_PINNED))
def test_rows_keep_their_bits(x, q_max):
    assert [float(v).hex() for v in bessel_j_sequence(x, q_max)] == _PINNED[x, q_max]


def test_a_rescaled_row_keeps_its_bits():
    row = bessel_j_sequence(1e-3, 60)
    assert len(row) == 61
    assert {q: float(row[q]).hex() for q in _PINNED_RESCALED} == _PINNED_RESCALED
