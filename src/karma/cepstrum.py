"""Cepstral mappings used as tracking observations.

Three routes produce comparable cepstral coefficients C_1..C_N (the zeroth
coefficient, pure gain, is always excluded):

* ``arma_cepstra`` -- exact log-series recursion from fitted ARMA
  coefficients, a stack of models at a time, valid for minimum-phase
  models only, which it checks itself on every row;
  ``arma_to_cepstrum`` is its one-model call.
* ``CepstralObservation`` -- the tracker's observation model h: closed
  form from resonance frequencies and bandwidths through pole powers.  A
  resonance is the pole z = exp((-pi b + 2 pi i f) / fs) and adds
  (2/n) Re z^n to C_n (an antiformant subtracts it); z^1..z^N take one
  complex exponential and a running product.  Its Jacobian,
  -(4 pi/fs) Im z^n and -(2 pi/fs) Re z^n, is read off the same powers.
  The powers are resonance-major, (N, K, ...) for K resonances over a
  stack of states, so the sum over resonances adds contiguous slabs; one
  kernel serves single states, particle stacks, ``state_to_cepstrum`` and
  ``cepstrum_jacobian`` alike.
* ``real_cepstrum`` -- nonparametric route straight from the samples; for a
  minimum-phase frame its doubled coefficients approximate the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import ArmaModel, _minimum_phase_rows

__all__ = [
    "CepstralVector",
    "ResonanceState",
    "CepstralObservation",
    "arma_cepstra",
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


def arma_cepstra(ar: np.ndarray, ma: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Exact cepstra (T, N) of the minimum-phase ARMA models in the rows of
    ``ar`` (T, p) and ``ma`` (T, q), by the log-series recursion.

    The AR part uses the recursion directly; the MA part applies the same
    recursion to the sign-flipped coefficients because the numerator is
    written as 1 + sum b_j z^-j while the denominator is 1 - sum a_i z^-i.
    Every row must have all its poles and zeros strictly inside the unit
    circle: one step-down certificate per polynomial proves most rows, and
    only the rows it cannot prove have their roots computed.  Each row's
    coefficients are the same bits as its own one-row call.
    """
    if n_coeffs < 1:
        raise ValueError("need at least one coefficient")
    if not np.all(_minimum_phase_rows(ar, ma, 1.0)):
        raise ValueError("cepstrum undefined: reflect roots first")
    c = _log_inverse_series(ar, n_coeffs)
    if ma.shape[1]:
        c -= _log_inverse_series(-ma, n_coeffs)
    return c


def arma_to_cepstrum(m: ArmaModel, n_coeffs: int) -> CepstralVector:
    """Exact cepstrum of one minimum-phase ARMA model (see ``arma_cepstra``)."""
    c = arma_cepstra(m.ar[None, :], m.ma[None, :], n_coeffs)
    return CepstralVector(c[0])


def _pole_powers(freqs, bws, sample_rate_hz, n_coeffs):
    """Powers z_k^n, n = 1..N, of the poles z_k = exp((-pi b_k + 2 pi i f_k) / fs).

    freqs and bws (K, ...) give a complex (N, K, ...) array, resonance-major:
    ``powers[:, k]`` holds resonance k's powers for the whole stack as one
    block of contiguous rows.  A stack of states (..., dim) enters as its
    transpose, so its frequency and bandwidth columns are rows of ``x.T``.
    Each pole takes one complex exponential; its powers follow by a
    running product.
    """
    z = np.exp((np.pi / sample_rate_hz) * (2j * np.asarray(freqs) - np.asarray(bws)))
    powers = np.empty((n_coeffs,) + z.shape, dtype=complex)
    powers[0] = z
    for n in range(1, n_coeffs):
        np.multiply(powers[n - 1], z, out=powers[n])
    return powers


def _powers_cepstrum(powers, signs, weights):
    """C_n = (2/n) sum_k s_k Re z_k^n from (N, K, ...) powers, shape (N, ...).

    Formants carry the sign +1, antiformants -1 and left-out tracks 0;
    ``weights`` are the factors 2/n.  The sum adds one (N, ...) slab per
    resonance, k in order, so a stack of states gets the same bits as each
    state on its own.  A stack's cepstra are the transpose of the result.
    """
    re = powers.real
    by_n = np.zeros((powers.shape[0],) + powers.shape[2:])
    for k in range(powers.shape[1]):
        by_n += re[:, k] * signs[k]
    by_n_t = by_n.T
    by_n_t *= weights
    return by_n


def _powers_jacobian(powers, signs, sample_rate_hz, freq_cols, bw_cols):
    """Jacobian (N, 2K) at one state from its (N, K) powers:
    dC_n/df_k = -(4 pi/fs) s_k Im z_k^n in ``freq_cols`` and
    dC_n/db_k = -(2 pi/fs) s_k Re z_k^n in ``bw_cols``."""
    scale = (-2.0 * np.pi / sample_rate_hz) * signs
    jac = np.empty((powers.shape[0], 2 * powers.shape[1]))
    jac[:, freq_cols] = (2.0 * scale) * powers.imag
    jac[:, bw_cols] = scale * powers.real
    return jac


class CepstralObservation:
    """Observation model mapping a state vector to N cepstral coefficients.

    The state is laid out as ``ResonanceState.to_vector``.  Inactive tracks
    are dropped from the sum and their Jacobian columns are zero, which is
    how the tracker omits a track from the state.
    """

    def __init__(self, n_formants: int, n_antiformants: int, n_cepstra: int, sample_rate_hz: float):
        self.n_formants = n_formants
        self.n_antiformants = n_antiformants
        self.n_cepstra = n_cepstra
        self.sample_rate_hz = sample_rate_hz
        # each resonance's frequency and bandwidth entries, formants first,
        # and the sign of its cepstral term
        i, j = n_formants, n_antiformants
        self._freq_cols = np.r_[0:i, 2 * i : 2 * i + j]
        self._bw_cols = np.r_[i : 2 * i, 2 * i + j : 2 * i + 2 * j]
        self._signs = np.r_[np.ones(i), -np.ones(j)]
        self._weights = 2.0 / np.arange(1, n_cepstra + 1)  # the 2/n of C_n

    def _active_signs(self, active_f, active_a):
        """Sign of each resonance's cepstral term: +1 formant, -1 antiformant, 0 inactive."""
        if active_f is None and active_a is None:
            return self._signs
        i, j = self.n_formants, self.n_antiformants
        keep = np.concatenate([
            np.ones(i, dtype=bool) if active_f is None else active_f,
            np.ones(j, dtype=bool) if active_a is None else active_a,
        ])
        return self._signs * keep

    def value(self, x: np.ndarray, active_f=None, active_a=None) -> np.ndarray:
        """h(x) for a state (dim,) or a stack of states (..., dim) -> (..., N)."""
        xt = x.T
        powers = _pole_powers(
            xt[self._freq_cols], xt[self._bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        return _powers_cepstrum(powers, self._active_signs(active_f, active_a), self._weights).T

    def linearize(self, x: np.ndarray, active_f=None, active_a=None):
        """h(x) (N,) and its Jacobian (N, dim) at one state, from one set of pole powers."""
        signs = self._active_signs(active_f, active_a)
        powers = _pole_powers(
            x[self._freq_cols], x[self._bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        H = _powers_jacobian(powers, signs, self.sample_rate_hz, self._freq_cols, self._bw_cols)
        return _powers_cepstrum(powers, signs, self._weights), H

    def state_bounds(self):
        """Clamp bounds keeping frequencies inside (0, fs/2) and bandwidths >= 1 Hz.

        The frequency margins stay away from 0 and fs/2, where the
        observation gradient vanishes and a clamped track could never
        recover.
        """
        i, j = self.n_formants, self.n_antiformants
        f_lo = 0.005 * self.sample_rate_hz
        f_hi = 0.495 * self.sample_rate_hz
        lo = np.concatenate([np.full(i, f_lo), np.full(i, 1.0), np.full(j, f_lo), np.full(j, 1.0)])
        hi = np.concatenate(
            [np.full(i, f_hi), np.full(i, np.inf), np.full(j, f_hi), np.full(j, np.inf)]
        )
        return lo, hi


def state_to_cepstrum(x: ResonanceState, n_coeffs: int) -> CepstralVector:
    """Closed-form cepstrum of a resonance state:

    C_n = (2/n) sum_i exp(-pi n b_i / fs) cos(2 pi n f_i / fs)
        - (2/n) sum_j exp(-pi n b'_j / fs) cos(2 pi n f'_j / fs),

    evaluated as (2/n) Re z^n over the poles z = exp((-pi b + 2 pi i f) / fs).
    """
    model = CepstralObservation(x.n_formants, x.n_antiformants, n_coeffs, x.sample_rate_hz)
    return CepstralVector(model.value(x.to_vector()))


def cepstrum_jacobian(x: ResonanceState, n_coeffs: int) -> np.ndarray:
    """Analytic Jacobian of ``state_to_cepstrum``: N rows by 2I + 2J columns,
    columns ordered as the state vector (formant freqs, formant bws,
    antiformant freqs, antiformant bws)."""
    model = CepstralObservation(x.n_formants, x.n_antiformants, n_coeffs, x.sample_rate_hz)
    return model.linearize(x.to_vector())[1]


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
