"""Desk-scale simulator and analysis chain for fast-light twin-beam noise
experiments: Lorentzian gain-line dispersion, quantum-limited
phase-insensitive amplification, correlated photocurrent synthesis, and
cross-correlation delay measurement."""

__version__ = "0.8.0"

from .amplifier import (amp_mean, amp_variance, difference_noise_after_channel,
                        loss_channel, snu_out)
from .analysis import (CorrelationPlan, XcorrResult, band_response, correlation_plan,
                       peak_delay, spectral_correlation)
from .dispersion import (GainLine, calibrate, field_transfer, gain_db,
                         group_index, intensity_gain, line_response,
                         modulation_transfer, peak_advance, refractive_index)
from .errors import (ConfigError, DegeneratePeakError, FastlightError,
                     InvalidParameterError)
from .simulate import (ChannelResponse, SpectralTargets, apply_channel, build_targets,
                       channel_response, detect_spectrum, synth_twin_spectra,
                       synthesis_factors, white_spectrum)
from .twinbeam import (BeamStats, TwinBeamSource, gain_for_squeezing,
                       intensity_difference_variance, seeded_stats,
                       squeezing_db)

__all__ = [name for name in dir() if not name.startswith("_")]
