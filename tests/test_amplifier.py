import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.amplifier import (amp_mean, amp_variance,
                                 difference_noise_after_channel, loss_channel,
                                 snu_out)
from fastlight.errors import InvalidParameterError
from fastlight.twinbeam import gain_for_squeezing, squeezing_db

from oracles import mc_amplifier, mc_difference_noise, var_standard_error

G1_ANCHOR = gain_for_squeezing(-2.5)


def test_amp_mean_values():
    assert amp_mean(1.0, 123.0) == 123.0
    assert amp_mean(2.0, 0.0) == 1.0
    assert amp_mean(1.25, 1e6) == 1.25e6 + 0.25


def test_amp_variance_values():
    assert amp_variance(1.0, 5.0, 7.0) == 7.0
    assert amp_variance(2.0, 0.0, 0.0) == 2.0
    assert amp_variance(1.25, 1e6, 1e6) == 1.5625e6 + 0.3125 * (1e6 + 1)


def test_amp_relations_against_gaussian_field_mc():
    n_in, n = 1e6, 2_000_000
    for gain in (1.0, 1.1, 1.25, 2.0, 5.62):
        n_out = mc_amplifier(gain, n_in, n, seed=hash(("amp", gain)) % 2 ** 32)
        mean_pred = amp_mean(gain, n_in)
        var_pred = amp_variance(gain, n_in, n_in)
        assert abs(np.mean(n_out) - mean_pred) < 3 * np.std(n_out) / np.sqrt(n)
        assert abs(np.var(n_out) - var_pred) < 3 * var_standard_error(var_pred, n)


def test_snu_out_values():
    assert snu_out(1.0, 0.37) == 0.37
    assert snu_out(2.0, 1.0) == 3.0  # coherent input: 2G - 1
    out = snu_out(1.25, 0.5623)
    assert out == pytest.approx(0.953, abs=5e-4)
    assert 10 * np.log10(out) == pytest.approx(-0.21, abs=0.005)


def test_snu_out_matches_photon_relations_at_large_n():
    # Bright-beam consistency: variance/mean of the exact relations equals
    # the SNU map to better than 1e-3 relative for n >= 1e6.
    for gain in (1.0, 1.3, 2.0, 5.6):
        for s_in in (0.5, 1.0, 2.0):
            n_in = 1e6
            exact = amp_variance(gain, n_in, s_in * n_in) / amp_mean(gain, n_in)
            assert abs(exact - snu_out(gain, s_in)) / snu_out(gain, s_in) < 1e-3


def test_loss_channel_values():
    assert loss_channel(1.0, 0.3) == 0.3
    assert loss_channel(0.37, 1.0) == pytest.approx(1.0, rel=1e-15)
    got = loss_channel(0.95, 0.5625)
    assert got == pytest.approx(0.584375, rel=1e-12)
    assert 10 * np.log10(got) == pytest.approx(-2.33, abs=0.005)


@settings(max_examples=100, deadline=None)
@given(eta1=st.floats(min_value=0.05, max_value=1.0),
       eta2=st.floats(min_value=0.05, max_value=1.0),
       s=st.floats(min_value=0.0, max_value=10.0))
def test_loss_channel_composition(eta1, eta2, s):
    chained = loss_channel(eta1, loss_channel(eta2, s))
    assert chained == pytest.approx(loss_channel(eta1 * eta2, s), rel=1e-12, abs=1e-12)


def test_difference_noise_reduces_to_plain_squeezing():
    for g1 in (1.0, 1.2, G1_ANCHOR, 2.0, 5.0):
        got = difference_noise_after_channel(g1, 1.0, 1.0, 0.0)
        assert got.snu == pytest.approx(1.0 / (2 * g1 - 1.0), rel=1e-12)
        assert got.db == pytest.approx(squeezing_db(g1), abs=1e-9)


def test_difference_noise_anchor_cases():
    ideal = difference_noise_after_channel(G1_ANCHOR, 1.0, 1.0, 0.0)
    assert ideal.snu == pytest.approx(10 ** -0.25, rel=1e-12)
    assert ideal.db == pytest.approx(-2.5, abs=1e-9)
    amped = difference_noise_after_channel(G1_ANCHOR, 1.25, 1.0, 0.0)
    assert amped.snu == pytest.approx(0.51733, abs=2e-4)
    assert amped.db == pytest.approx(-2.86, abs=0.01)


def test_difference_noise_against_gaussian_field_mc():
    n = 10_000_000
    got = difference_noise_after_channel(G1_ANCHOR, 1.25, 1.0, 0.0).snu
    mc = mc_difference_noise(G1_ANCHOR, 1.25, 1.0, 1e6, n, seed=20260810)
    assert abs(mc - got) < 3 * got * np.sqrt(2.0 / n) + 1e-5


def test_difference_noise_monotonic_in_excess_and_loss():
    base = difference_noise_after_channel(G1_ANCHOR, 1.25, 1.0, 0.0).snu
    more_excess = difference_noise_after_channel(G1_ANCHOR, 1.25, 1.0, 0.2).snu
    assert more_excess > base
    lossy = difference_noise_after_channel(G1_ANCHOR, 1.25, 0.95, 0.0).snu
    assert base < lossy < 1.0  # loss pulls the squeezed value toward shot noise


def test_channel_params_validation():
    with pytest.raises(InvalidParameterError):
        amp_mean(0.99, 1.0)
    with pytest.raises(InvalidParameterError):
        amp_variance(0.99, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        loss_channel(1.5, 1.0)
