"""Desk-scale simulator and analysis chain for fast-light twin-beam noise
experiments: Lorentzian gain-line dispersion, quantum-limited
phase-insensitive amplification, correlated photocurrent synthesis, and
cross-correlation delay measurement."""

__version__ = "0.7.0"

from .amplifier import (amp_mean, amp_variance, difference_noise_after_channel,
                        loss_channel, snu_out)
from .analysis import (CorrelationPlan, Spectrum, XcorrResult, band_filter,
                       band_response, band_squeezing_db, correlation_plan,
                       cross_correlation, peak_delay, psd, shot_floor,
                       shot_noise_density, snu_normalize, spectral_correlation)
from .dispersion import (GainLine, calibrate, field_transfer, gain_db,
                         group_index, intensity_gain, line_response,
                         modulation_transfer, peak_advance, refractive_index)
from .errors import (ConfigError, DegeneratePeakError, FastlightError,
                     IncompatibleSpectraError, IncompatibleTracesError,
                     InvalidParameterError)
from .simulate import (ChannelResponse, SpectralTargets, Trace, apply_channel,
                       build_targets, channel_response, detect_spectrum,
                       difference, fractional_shift, load_trace_binary,
                       load_trace_csv, save_trace_binary, save_trace_csv,
                       synth_twin_spectra, synthesis_factors, white_spectrum)
from .twinbeam import (BeamStats, TwinBeamSource, gain_for_squeezing,
                       intensity_difference_variance, seeded_stats,
                       squeezing_db)

__all__ = [name for name in dir() if not name.startswith("_")]
