"""Spectral substrate: FFT, window kernels, and alternative smoothing filters."""

from .fft import fft, ifft, is_power_of_two, next_fast_len
from .convolution import (
    sma,
    sma_probe_moments,
    sma_window_moments,
    sma_with_slide,
)
from .filters import (
    ParameterizedFilter,
    fft_dominant,
    fft_lowpass,
    filter_registry,
    minmax_filter,
    savitzky_golay,
    savitzky_golay_kernel,
)

__all__ = [
    "fft",
    "ifft",
    "is_power_of_two",
    "next_fast_len",
    "sma",
    "sma_probe_moments",
    "sma_window_moments",
    "sma_with_slide",
    "ParameterizedFilter",
    "fft_dominant",
    "fft_lowpass",
    "filter_registry",
    "minmax_filter",
    "savitzky_golay",
    "savitzky_golay_kernel",
]
