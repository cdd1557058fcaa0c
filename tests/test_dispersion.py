import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastlight.dispersion import (GainLine, calibrate, field_transfer, gain_db,
                                  group_index, intensity_gain, line_response,
                                  modulation_transfer, peak_advance,
                                  refractive_index, LIGHT_SPEED)
from fastlight.errors import InvalidParameterError
from fastlight.predict import predicted_correlation_shift
from fastlight.twinbeam import TwinBeamSource, gain_for_squeezing
from oracles import dense_correlation_shift

LINE = calibrate(7.5, 10e6, 0.025)

line_params = st.tuples(
    st.floats(min_value=1e-7, max_value=1e-3),
    st.floats(min_value=1e5, max_value=1e9),
)


def make_line(params):
    g, gamma = params
    return GainLine(g=g, gamma=gamma)


def test_on_resonance_index():
    n = refractive_index(LINE, 0.0)
    assert n.real == pytest.approx(1.0, abs=1e-15)
    assert n.imag == pytest.approx(-LINE.g / (4 * np.pi), rel=1e-12)


def test_far_detuned_index_returns_to_vacuum():
    n = refractive_index(LINE, 1e6 * LINE.gamma)
    assert abs(n - 1.0) <= 1e-5 * LINE.g


def test_index_at_one_hwhm():
    # Direct complex arithmetic: n(gamma) = 1 + (g/8pi)(1 - i).
    expected = 1.0 + LINE.g / (8 * np.pi) * (1 - 1j)
    assert refractive_index(LINE, LINE.gamma) == pytest.approx(expected, rel=1e-12)


def test_group_index_slow_at_center():
    ng = group_index(LINE, 0.0)
    expected = 1.0 + LINE.omega_carrier * LINE.g / (4 * np.pi * LINE.gamma)
    assert ng == pytest.approx(expected, rel=1e-9)
    assert ng > 1.0


def test_group_index_dispersive_term_vanishes_at_hwhm():
    for sign in (+1.0, -1.0):
        delta = sign * LINE.gamma
        ng = group_index(LINE, delta)
        assert ng == pytest.approx(refractive_index(LINE, delta).real, rel=1e-12)


def test_group_index_wing_extremum():
    # The anomalous term is most negative at sqrt(3)*gamma with value
    # -omega*g/(32*pi*gamma); verify against a dense grid search.
    delta_star = np.sqrt(3.0) * LINE.gamma
    anomalous = group_index(LINE, delta_star) - refractive_index(LINE, delta_star).real
    assert anomalous == pytest.approx(
        -LINE.omega_carrier * LINE.g / (32 * np.pi * LINE.gamma), rel=1e-12)
    grid = np.linspace(0.5 * LINE.gamma, 10 * LINE.gamma, 20001)
    ng = group_index(LINE, grid)
    assert abs(grid[np.argmin(ng)] - delta_star) < 2 * (grid[1] - grid[0])


def test_group_index_sign_structure():
    inside = np.linspace(-0.95, 0.95, 41) * LINE.gamma
    assert np.all(group_index(LINE, inside) > 1.0)
    outside = np.concatenate([np.linspace(1.05, 8, 40), -np.linspace(1.05, 8, 40)]) * LINE.gamma
    assert np.all(group_index(LINE, outside) < refractive_index(LINE, outside).real)


def test_intensity_gain_calibrated_peak():
    assert intensity_gain(LINE, 0.0) == pytest.approx(10 ** 0.75, rel=1e-9)


def test_intensity_gain_no_medium():
    line = GainLine(g=0.0, gamma=LINE.gamma)
    for delta in (0.0, LINE.gamma, -5 * LINE.gamma):
        assert intensity_gain(line, delta) == 1.0


def test_gain_db_halves_at_hwhm():
    assert gain_db(LINE, LINE.gamma) == pytest.approx(3.75, rel=1e-12)
    assert gain_db(LINE, -LINE.gamma) == pytest.approx(3.75, rel=1e-12)


def test_calibrate_round_trip_peak_and_fwhm():
    from scipy.optimize import brentq
    line = calibrate(7.5, 10e6, 0.025)
    assert gain_db(line, 0.0) == pytest.approx(7.5, rel=1e-12)
    root = brentq(lambda d: gain_db(line, d) - 3.75, 0.1 * line.gamma, 3 * line.gamma,
                  xtol=1e-6)
    fwhm = 2 * root / (2 * np.pi)
    assert fwhm == pytest.approx(10e6, rel=1e-6)


def test_calibrate_small_line_hwhm_halving():
    line = calibrate(3.01, 2e6, 0.01)
    assert gain_db(line, 2 * np.pi * 1e6) == pytest.approx(1.505, rel=1e-12)


def test_calibrate_zero_db_gives_vacuum():
    assert calibrate(0.0, 5e6, 0.01).g == 0.0


def test_calibrate_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        calibrate(7.5, -1e6, 0.025)
    with pytest.raises(InvalidParameterError):
        calibrate(7.5, 10e6, 0.0)
    with pytest.raises(InvalidParameterError):
        calibrate(-1.0, 10e6, 0.025)


def test_peak_advance_vacuum_and_identity():
    line = GainLine(g=0.0, gamma=LINE.gamma)
    assert peak_advance(line, 0.3 * LINE.gamma) == 0.0
    delta = 2.2 * LINE.gamma
    expected = LINE.length / LIGHT_SPEED * (group_index(LINE, delta) - 1.0)
    assert peak_advance(LINE, delta) == expected


def test_peak_advance_twelve_ns_scale():
    # A group index of -144 over 25 mm corresponds to a 12 ns advancement.
    assert 0.025 / LIGHT_SPEED * (-144.0 - 1.0 + 1.0) * 1e9 == pytest.approx(-12.0, abs=0.1)


def test_medium_response_consistency():
    grid = np.linspace(-4, 4, 101) * LINE.gamma
    gain = intensity_gain(LINE, grid)
    k0L = LINE.omega_carrier * LINE.length / LIGHT_SPEED
    np.testing.assert_allclose(gain, np.exp(-2 * refractive_index(LINE, grid).imag * k0L),
                               rtol=1e-12)
    assert np.all(np.isfinite(group_index(LINE, grid)))
    assert np.all(gain >= 1.0)


def test_line_response_is_gain_transfer_and_sideband_noise():
    delta = 0.7 * LINE.gamma
    f = np.linspace(0.0, 20e6, 41)
    gain0, transfer, added = line_response(LINE, delta, f)
    assert gain0 == intensity_gain(LINE, delta)
    np.testing.assert_array_equal(transfer, gain0 * modulation_transfer(LINE, delta, f))
    g_bar = 0.5 * (intensity_gain(LINE, delta + 2 * np.pi * f)
                   + intensity_gain(LINE, delta - 2 * np.pi * f))
    np.testing.assert_array_equal(added, (g_bar - 1.0) * g_bar / gain0)
    # At f = 0 both sidebands sit on the carrier: the ideal amplifier's G - 1.
    assert added[0] == pytest.approx(gain0 - 1.0, rel=1e-12)
    vacuum = line_response(GainLine(g=0.0, gamma=LINE.gamma), delta, f)
    assert vacuum[0] == 1.0 and np.all(vacuum[2] == 0.0)


def test_field_transfer_matches_intensity_gain():
    grid = np.linspace(-6, 6, 301) * LINE.gamma
    np.testing.assert_allclose(np.abs(field_transfer(LINE, grid)) ** 2,
                               intensity_gain(LINE, grid), rtol=1e-12)


def test_modulation_transfer_normalization_and_vacuum():
    f = np.linspace(0.0, 20e6, 11)
    m = modulation_transfer(LINE, 2.0 * LINE.gamma, f)
    assert m[0] == pytest.approx(1.0 + 0j, abs=1e-15)
    vac = modulation_transfer(GainLine(g=0.0, gamma=LINE.gamma), 0.0, f)
    np.testing.assert_allclose(vac, np.ones_like(f), atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(params=line_params,
       offset=st.floats(min_value=-4, max_value=4),
       f=st.floats(min_value=1e2, max_value=5e7))
def test_modulation_transfer_hermitian(params, offset, f):
    line = make_line(params)
    delta = offset * line.gamma
    m_pos, m_neg = modulation_transfer(line, delta, np.array([f, -f]))
    assert m_neg == pytest.approx(np.conj(m_pos), rel=1e-12, abs=1e-15)


def test_modulation_transfer_phase_slope_matches_group_delay():
    # Finite-difference oracle: the small-f phase slope reproduces the
    # group-delay expression to better than 1 %.
    for x in (-3.0, -1.5, 0.0, 0.4, 1.7, 2.5, 3.9):
        delta = x * LINE.gamma
        f = np.array([1e3, 2e3])
        m = modulation_transfer(LINE, delta, f)
        slope = -(np.angle(m[1]) - np.angle(m[0])) / (2 * np.pi * (f[1] - f[0]))
        expected = peak_advance(LINE, delta)
        assert slope == pytest.approx(expected, rel=0.01, abs=1e-13)


def test_group_delay_consistency_across_sweep():
    # Acceptance-style sweep: 1 % agreement over +/- 4 gamma (tiny absolute
    # floor covers the zero crossings at |delta| = gamma).
    for delta in np.linspace(-4, 4, 33) * LINE.gamma:
        f = np.array([1e3, 2e3])
        m = modulation_transfer(LINE, delta, f)
        slope = -(np.angle(m[1]) - np.angle(m[0])) / (2 * np.pi * (f[1] - f[0]))
        expected = peak_advance(LINE, delta)
        assert abs(slope - expected) <= max(0.01 * abs(expected), 1e-12)


@settings(max_examples=30, deadline=None)
@given(params=line_params, x=st.floats(min_value=-5, max_value=5))
def test_gain_at_least_unity(params, x):
    line = make_line(params)
    assert intensity_gain(line, x * line.gamma) >= 1.0


def test_line_validation():
    with pytest.raises(InvalidParameterError):
        GainLine(g=-1e-6, gamma=1e7)
    with pytest.raises(InvalidParameterError):
        GainLine(g=1e-6, gamma=0.0)
    with pytest.raises(InvalidParameterError):
        GainLine(g=1e-6, gamma=1e7, length=-0.1)


@pytest.mark.parametrize("fwhm_hz", [2.6e6, 10e6])
@pytest.mark.parametrize("peak_db", [4.0, 12.0, 25.0, 40.0])
def test_predicted_correlation_shift_equals_dense_reference(peak_db, fwhm_hz):
    source = TwinBeamSource(gain1=gain_for_squeezing(-2.5), seed_flux=1e6)
    line = calibrate(peak_db, fwhm_hz, 0.025)
    for offset_hz in np.linspace(-10e6, 10e6, 5):
        assert predicted_correlation_shift(line, offset_hz, source, 1e5, 3e6) == \
            dense_correlation_shift(line, offset_hz, source, 1e5, 3e6)
