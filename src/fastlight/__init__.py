"""Desk-scale simulator and analysis chain for fast-light twin-beam noise
experiments: Lorentzian gain-line dispersion, quantum-limited
phase-insensitive amplification, correlated photocurrent synthesis, and
cross-correlation delay measurement.

The package re-exports nothing, so importing it loads no numpy and changes
nothing process-wide; import from its submodules (``fastlight.analysis``,
``fastlight.simulate``, ``fastlight.dispersion`` and the others)."""

__version__ = "0.21.0"
