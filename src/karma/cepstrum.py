"""Cepstral mappings used as tracking observations.

Three routes produce comparable cepstral coefficients C_1..C_N (the zeroth
coefficient, pure gain, is always excluded):

* ``arma_to_cepstrum`` -- exact recursion from fitted ARMA coefficients,
  valid for minimum-phase models only.
* ``state_to_cepstrum`` -- closed form from resonance frequencies and
  bandwidths, with ``cepstrum_jacobian`` giving its analytic derivative.
* ``real_cepstrum`` -- nonparametric route straight from the samples; for a
  minimum-phase frame its doubled coefficients approximate the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import ArmaModel

__all__ = [
    "CepstralVector",
    "ResonanceState",
    "arma_to_cepstrum",
    "state_to_cepstrum",
    "cepstrum_jacobian",
    "real_cepstrum",
]

_FFT_BLOCK = 256  # frames per batched FFT in _real_cepstra


@dataclass(frozen=True)
class CepstralVector:
    """Cepstral coefficients C_1..C_N (index 1-based, C_0 excluded)."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.size < 1:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite cepstral coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size

    def __getitem__(self, n: int) -> float:
        """1-based access: self[n] is C_n."""
        if not 1 <= n <= self.order:
            raise IndexError("cepstral index is 1-based")
        return float(self.coeffs[n - 1])


@dataclass(frozen=True)
class ResonanceState:
    """Tracked resonance parameters: frequency/bandwidth pairs in Hz.

    Layout matches the tracker state vector:
    (f_1..f_I, b_1..b_I, f'_1..f'_J, b'_1..b'_J).
    """

    formant_freqs: np.ndarray
    formant_bws: np.ndarray
    antiformant_freqs: np.ndarray
    antiformant_bws: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        for name in ("formant_freqs", "formant_bws", "antiformant_freqs", "antiformant_bws"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.formant_freqs.size != self.formant_bws.size:
            raise ValueError("formant frequency/bandwidth counts differ")
        if self.antiformant_freqs.size != self.antiformant_bws.size:
            raise ValueError("antiformant frequency/bandwidth counts differ")

    @property
    def n_formants(self) -> int:
        return self.formant_freqs.size

    @property
    def n_antiformants(self) -> int:
        return self.antiformant_freqs.size

    def validate(self) -> None:
        nyquist = self.sample_rate_hz / 2.0
        freqs = np.concatenate([self.formant_freqs, self.antiformant_freqs])
        bws = np.concatenate([self.formant_bws, self.antiformant_bws])
        if freqs.size and not np.all((freqs > 0) & (freqs < nyquist)):
            raise ValueError("frequencies must lie in (0, sample_rate/2)")
        if bws.size and not np.all(bws > 0):
            raise ValueError("bandwidths must be positive")

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.formant_freqs, self.formant_bws, self.antiformant_freqs, self.antiformant_bws]
        )

    @classmethod
    def from_vector(cls, vec, n_formants: int, n_antiformants: int, sample_rate_hz: float):
        vec = np.asarray(vec, dtype=float)
        i, j = n_formants, n_antiformants
        return cls(vec[:i], vec[i : 2 * i], vec[2 * i : 2 * i + j], vec[2 * i + j :], sample_rate_hz)


def _log_inverse_series(a: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Coefficients n = 1..N of log 1 / (1 - sum_i a_i z^-i), for each row of a (T, p)."""
    n_rows, p = a.shape
    c = np.zeros((n_rows, n_coeffs + 1))
    weights = np.arange(n_coeffs + 1, dtype=float)
    for n in range(1, n_coeffs + 1):
        acc = a[:, n - 1].copy() if n <= p else np.zeros(n_rows)
        lo = max(1, n - p)
        if lo < n:
            # sum over i in [lo, n) of i * c_i * a_(n-i); a_(n-i) sits in column n-1-i
            terms = weights[lo:n] * c[:, lo:n]
            acc += np.einsum("ti,ti->t", terms, a[:, n - 1 - lo :: -1]) / n
        c[:, n] = acc
    return c[:, 1:]


def arma_to_cepstrum(m: ArmaModel, n_coeffs: int) -> CepstralVector:
    """Exact cepstrum of a minimum-phase ARMA model via the log-series recursion.

    The AR part uses the recursion directly; the MA part applies the same
    recursion to the sign-flipped coefficients because the numerator is
    written as 1 + sum b_j z^-j while the denominator is 1 - sum a_i z^-i.
    """
    if n_coeffs < 1:
        raise ValueError("need at least one coefficient")
    if not m.is_minimum_phase():
        raise ValueError("cepstrum undefined: reflect roots first")
    c = _log_inverse_series(m.ar[None, :], n_coeffs)[0]
    if m.q:
        c -= _log_inverse_series(-m.ma[None, :], n_coeffs)[0]
    return CepstralVector(c)


def _resonance_terms(freqs, bws, sample_rate_hz, n_coeffs):
    """Index column n (N, 1) and the per-resonance decay exp(-pi n b / fs) and
    phase 2 pi n f / fs, each (..., N, K) for freqs and bws of shape (..., K)."""
    n = np.arange(1, n_coeffs + 1, dtype=float)[:, None]
    decay = np.exp(-np.pi * n * np.asarray(bws)[..., None, :] / sample_rate_hz)
    arg = 2.0 * np.pi * n * np.asarray(freqs)[..., None, :] / sample_rate_hz
    return n, decay, arg


def _resonance_cepstrum(freqs, bws, sample_rate_hz, n_coeffs):
    """(2/n) sum_k exp(-pi n b_k / fs) cos(2 pi n f_k / fs), n = 1..N.

    Broadcasts over leading axes: freqs and bws (..., K) give (..., N).
    """
    if np.shape(freqs)[-1] == 0:
        return np.zeros(np.shape(freqs)[:-1] + (n_coeffs,))
    n, decay, arg = _resonance_terms(freqs, bws, sample_rate_hz, n_coeffs)
    return (2.0 / n[:, 0]) * (decay * np.cos(arg)).sum(axis=-1)


def state_to_cepstrum(x: ResonanceState, n_coeffs: int) -> CepstralVector:
    """Closed-form cepstrum of a resonance state:

    C_n = (2/n) sum_i exp(-pi n b_i / fs) cos(2 pi n f_i / fs)
        - (2/n) sum_j exp(-pi n b'_j / fs) cos(2 pi n f'_j / fs).
    """
    fs = x.sample_rate_hz
    pole_part = _resonance_cepstrum(x.formant_freqs, x.formant_bws, fs, n_coeffs)
    zero_part = _resonance_cepstrum(x.antiformant_freqs, x.antiformant_bws, fs, n_coeffs)
    return CepstralVector(pole_part - zero_part)


def _jacobian_blocks(freqs, bws, sample_rate_hz, n_coeffs, sign):
    """(dC/df, dC/db) blocks, each (N, K); antiformants flip the sign."""
    if np.size(freqs) == 0:
        return np.zeros((n_coeffs, 0)), np.zeros((n_coeffs, 0))
    fs = sample_rate_hz
    _, decay, arg = _resonance_terms(freqs, bws, fs, n_coeffs)
    d_freq = sign * (-4.0 * np.pi / fs) * decay * np.sin(arg)
    d_bw = sign * (-2.0 * np.pi / fs) * decay * np.cos(arg)
    return d_freq, d_bw


def cepstrum_jacobian(x: ResonanceState, n_coeffs: int) -> np.ndarray:
    """Analytic Jacobian of ``state_to_cepstrum``: N rows by 2I + 2J columns,
    columns ordered as the state vector (formant freqs, formant bws,
    antiformant freqs, antiformant bws)."""
    fs = x.sample_rate_hz
    df, db = _jacobian_blocks(x.formant_freqs, x.formant_bws, fs, n_coeffs, +1.0)
    daf, dab = _jacobian_blocks(x.antiformant_freqs, x.antiformant_bws, fs, n_coeffs, -1.0)
    return np.hstack([df, db, daf, dab])


def _real_cepstra(frames: np.ndarray, rows: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Batched core of ``real_cepstrum``: cepstra of ``frames[rows]``, none all zero.

    Rows are gathered and sent through the FFT in blocks of ``_FFT_BLOCK``
    frames, so neither a copy of the selected frames nor the complex
    spectra of a long input ever exist all at once.
    """
    n = frames.shape[1]
    nfft = 1 << max(int(np.ceil(np.log2(4 * n))), 3)
    out = np.empty((len(rows), min(n_coeffs, nfft - 1)))
    for lo in range(0, len(rows), _FFT_BLOCK):
        spec = np.abs(np.fft.rfft(frames[rows[lo : lo + _FFT_BLOCK]], nfft, axis=1))
        floor = 1e-12 * spec.max(axis=1, keepdims=True)
        ceps = np.fft.irfft(np.log(np.maximum(spec, floor)), nfft, axis=1)
        out[lo : lo + _FFT_BLOCK] = 2.0 * ceps[:, 1 : n_coeffs + 1]
    return out


def real_cepstrum(frame: np.ndarray, n_coeffs: int) -> CepstralVector:
    """Nonparametric cepstrum from the log magnitude spectrum of the frame.

    Coefficients 1..N are doubled so that, for a minimum-phase frame, they
    line up with the one-sided cepstra produced by the parametric routes.
    The FFT size is the next power of two at least 4x the frame length and
    the log argument is floored at 1e-12 of the spectral maximum.
    """
    x = np.asarray(frame, dtype=float).ravel()
    if not np.any(x):
        raise ValueError("undefined log spectrum")
    return CepstralVector(_real_cepstra(x[None, :], [0], n_coeffs)[0])
