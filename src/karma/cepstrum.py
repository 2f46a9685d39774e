"""Cepstral mappings used as tracking observations.

Three routes produce comparable cepstral coefficients C_1..C_N (the zeroth
coefficient, pure gain, is always excluded), each as a plain (N,) array or
a (T, N) stack of them:

* ``arma_cepstra`` -- exact log-series recursion from fitted ARMA
  coefficients, a stack of models at a time, valid for minimum-phase
  models only, which it checks itself on every row;
  ``arma_to_cepstrum`` is its one-model call.
* ``CepstralObservation`` -- the tracker's observation model h: closed
  form from resonance frequencies and bandwidths.  A resonance is the pole
  z = exp((-pi b + 2 pi i f) / fs) and adds (2/n) Re z^n to C_n (an
  antiformant subtracts it).  Two kernels, one per caller, with no size
  threshold, take a state to its poles by the same scales
  (log r = -pi b/fs, theta = 2 pi f/fs).  ``linearize``, the EKF's one
  call per speech frame, takes one state to log z by one product with a
  complex map of those scales, forms its powers in closed form,
  z^n = exp(n log z), and reads h and the Jacobian, -(4 pi/fs) Im z^n and
  -(2 pi/fs) Re z^n, off them by one product of their real view with a
  map of the activation pattern.
  ``value``, which serves particle stacks, builds each pole from one real
  ``exp``, ``cos`` and ``sin`` and its powers by a running product, one
  complex multiply per order over the whole stack, with the signs in the
  first order and one sum over resonances.  A real three-term recurrence
  for Re z^n was tried there and lost on accuracy: its error grows as
  cot(theta) near the frequency bounds (1.5e-13 a term at N = 60, against
  9e-15 for the product).  Each state of a stack gets the same bits as its
  own ``value`` call; a stack's h matches the one-state ``linearize`` to
  1e-12, not bit for bit.
* ``real_cepstrum`` -- nonparametric route straight from the samples; for a
  minimum-phase frame its doubled coefficients approximate the other two.
"""

from __future__ import annotations

import math

import numpy as np

from .arma import ArmaModel, _minimum_phase_rows
from .frontend import _row_blocks

__all__ = ["CepstralObservation", "arma_cepstra", "arma_to_cepstrum", "real_cepstrum", "state_columns"]


def state_columns(n_formants: int, n_antiformants: int) -> tuple[slice, slice, slice, slice]:
    """The tracker's state vector layout, as the slices of its four blocks:
    the I formant frequencies, their I bandwidths, the J antiformant
    frequencies and their J bandwidths, (f_1..f_I, b_1..b_I, f'_1..f'_J,
    b'_1..b'_J), all in Hz.

    This is the one definition of that order: the observation model, the
    tracker's parameters and results, the track CSV columns and the
    synthesizer's reference tracks all place their blocks by it.
    """
    i, j = n_formants, n_antiformants
    return slice(0, i), slice(i, 2 * i), slice(2 * i, 2 * i + j), slice(2 * i + j, 2 * (i + j))


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


def arma_to_cepstrum(m: ArmaModel, n_coeffs: int) -> np.ndarray:
    """Exact cepstrum C_1..C_N (N,) of one minimum-phase ARMA model (see ``arma_cepstra``)."""
    return arma_cepstra(m.ar[None, :], m.ma[None, :], n_coeffs)[0]


class CepstralObservation:
    """Observation model mapping a state vector to N cepstral coefficients.

    The state vector holds each resonance's frequency and bandwidth in Hz,
    in the blocks of ``state_columns``.  ``value`` and ``linearize`` take the
    tracker's per-entry activity ``flags`` (dim,), or None when every track
    is active, and read resonance k's activity off its frequency entry.
    Inactive tracks are dropped from the sum and their Jacobian columns are
    zero, which is how the tracker omits a track from the state.
    """

    def __init__(self, n_formants: int, n_antiformants: int, n_cepstra: int, sample_rate_hz: float):
        self.n_formants = n_formants
        self.n_antiformants = n_antiformants
        self.n_cepstra = n_cepstra
        self.sample_rate_hz = sample_rate_hz
        # each resonance's frequency and bandwidth entries, formants first,
        # and the sign of its cepstral term
        i, j = n_formants, n_antiformants
        f, b, af, ab = state_columns(i, j)
        self._freq_cols = np.r_[f, af]
        self._bw_cols = np.r_[b, ab]
        self._signs = np.r_[np.ones(i), -np.ones(j)]
        # value's gather taking states to their poles: the bandwidths, then
        # the frequencies, and the scales taking them to log r = -pi b/fs
        # and theta = 2 pi f/fs
        self._pole_cols = np.r_[self._bw_cols, self._freq_cols]
        self._pole_scale = np.repeat([-np.pi, 2.0 * np.pi], i + j)[:, None] / sample_rate_hz
        # linearize's (dim, K) complex map of the same scales, x @ map = log z:
        # log r and theta are each one product with one nonzero entry, the
        # same bits as the gather's
        k = np.arange(i + j)
        self._log_z_map = np.zeros((ab.stop, i + j), dtype=complex)
        self._log_z_map[self._bw_cols, k] = self._pole_scale[: i + j, 0]
        self._log_z_map[self._freq_cols, k] = 1j * self._pole_scale[i + j :, 0]
        self._orders = np.arange(1, n_cepstra + 1, dtype=float)[:, None]  # n, one per row
        self._weights = 2.0 / self._orders  # the 2/n of C_n, one per row
        self._patterns = {}

    def _pattern(self, flags):
        """Signs and linearization map of one activation pattern, computed
        on its first use.  The sign s_k of resonance k's cepstral term is +1
        for a formant, -1 for an antiformant and 0 when its frequency
        entry's flag is off.  The (2K, dim + 1) map takes the real view of
        one state's (N, K) powers, where resonance k's Re z^n sits in column
        2k and Im z^n in 2k + 1, to [H | sum_k s_k Re z^n]: -(4 pi/fs) s_k
        from Im z^n to the frequency column, -(2 pi/fs) s_k from Re z^n to
        the bandwidth column, and s_k from Re z^n to the last column."""
        key = None if flags is None else np.asarray(flags, dtype=bool).tobytes()
        found = self._patterns.get(key)
        if found is None:
            signs = self._signs if flags is None else self._signs * np.asarray(flags, bool)[self._freq_cols]
            scale = (-2.0 * np.pi / self.sample_rate_hz) * signs
            re = 2 * np.arange(signs.size)  # the Re z^n columns; Im z^n follows each
            lin_map = np.zeros((2 * signs.size, 2 * signs.size + 1))
            lin_map[re + 1, self._freq_cols] = 2.0 * scale
            lin_map[re, self._bw_cols] = scale
            lin_map[re, -1] = signs
            found = self._patterns[key] = (signs, lin_map)
        return found

    def value(self, x: np.ndarray, flags=None) -> np.ndarray:
        """h(x) for a state (dim,) or a stack of states (..., dim) -> (..., N).

        Each pole z = r (cos(theta) + i sin(theta)), with r = exp(-pi b/fs)
        and theta = 2 pi f/fs, takes one real ``exp``, ``cos`` and ``sin``;
        its powers follow by a running product, one complex multiply per
        order over the whole stack.  The first order carries each
        resonance's sign, so the signed powers of every order fill one
        (N, K, states) array, and h is the real part of its sum over
        resonances times 2/n.  Over two or more states numpy adds that sum
        slab by slab, in resonance order; a lone state goes in twice, since
        over one state the resonances would form a contiguous run, which
        numpy sums pairwise.  So each state of a stack gets the same bits
        as its own call.
        """
        lead = x.shape[:-1]
        n_states = math.prod(lead)
        states = np.reshape(x, (n_states, x.shape[-1]))
        if n_states == 1:
            states = np.repeat(states, 2, axis=0)
        k = self._signs.size
        polar = states.T[self._pole_cols] * self._pole_scale  # log r (K, P), then theta
        r = np.exp(polar[:k])
        z = np.empty(r.shape, dtype=complex)
        np.multiply(r, np.cos(polar[k:]), out=z.real)
        np.multiply(r, np.sin(polar[k:]), out=z.imag)
        powers = np.empty((self.n_cepstra,) + r.shape, dtype=complex)
        np.multiply(z, self._pattern(flags)[0][:, None], out=powers[0])
        for n in range(1, self.n_cepstra):
            np.multiply(powers[n - 1], z, out=powers[n])
        h = powers.sum(axis=1).real * self._weights  # (N, states), contiguous
        return h[:, :n_states].T.reshape(lead + (self.n_cepstra,))

    def linearize(self, x: np.ndarray, flags=None):
        """h(x) (N,) and its Jacobian (N, dim) at one state, from one set of pole powers.

        log z = log r + i theta is one product of x with a (dim, K) complex
        map holding ``value``'s pole scales, and the (N, K) powers come in
        closed form, z^n = exp(n log z): one complex exponential over the
        grid with a stored column of orders n.  [H | sum_k s_k Re z^n] is
        one product of the powers' real view with the pattern's map (see
        ``_pattern``), and h is its last column times 2/n.  Each Jacobian
        entry has one nonzero term, a power's real or imaginary part times
        its column's scale.  At N = 15 and K = 3 a call takes about 7 us
        (one BLAS thread).  ``value`` forms its powers by a running product
        instead; the two agree to 1e-12, not bit for bit.
        """
        signs, lin_map = self._pattern(flags)
        powers = np.exp(self._orders * (x @ self._log_z_map))
        Hh = powers.view(float) @ lin_map
        Hh[:, -1:] *= self._weights
        return Hh[:, -1], Hh[:, :-1]

    def state_bounds(self):
        """Clamp bounds keeping frequencies inside (0, fs/2) and bandwidths >= 1 Hz.

        The frequency margins stay away from 0 and fs/2, where the
        observation gradient vanishes and a clamped track could never
        recover.
        """
        lo, hi = np.empty((2, state_columns(self.n_formants, self.n_antiformants)[-1].stop))
        lo[self._freq_cols], hi[self._freq_cols] = 0.005 * self.sample_rate_hz, 0.495 * self.sample_rate_hz
        lo[self._bw_cols], hi[self._bw_cols] = 1.0, np.inf
        return lo, hi


def _fft_size(frame_length: int) -> int:
    """FFT size of the real-cepstrum route: the next power of two at least
    4x the frame length, and at least 8.  It yields at most half this
    size of cepstral coefficients: the real cepstrum is even about half
    the FFT size, so coefficient nfft - k repeats coefficient k."""
    return 1 << max(int(np.ceil(np.log2(4 * frame_length))), 3)


def _real_cepstra(frames: np.ndarray, rows: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Batched core of ``real_cepstrum``: cepstra of ``frames[rows]``, none all zero.

    Rows are gathered and sent through the FFT in blocks sized by bytes,
    about 32 bytes per FFT bin and row (the padded input, its complex
    spectrum, the log magnitude and the inverse transform), within
    ``frontend._BLOCK_BYTES``: 32 rows of a 1024-point FFT.  So neither a
    copy of the selected frames nor the spectra of a long input ever exist
    all at once.
    """
    nfft = _fft_size(frames.shape[1])
    out = np.empty((len(rows), min(n_coeffs, nfft // 2)))
    for block in _row_blocks(len(rows), 32 * nfft):
        spec = np.abs(np.fft.rfft(frames[rows[block]], nfft, axis=1))
        floor = 1e-12 * spec.max(axis=1, keepdims=True)
        ceps = np.fft.irfft(np.log(np.maximum(spec, floor)), nfft, axis=1)
        out[block] = 2.0 * ceps[:, 1 : out.shape[1] + 1]
        del spec, ceps  # before the next block's spectra exist
    return out


def real_cepstrum(frame: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Nonparametric cepstrum C_1..C_N (N,) from the log magnitude spectrum of the frame.

    Coefficients 1..N are doubled so that, for a minimum-phase frame, they
    line up with the one-sided cepstra produced by the parametric routes.
    The FFT size is ``_fft_size`` of the frame length, and N is capped at
    half of it; the log argument is floored at 1e-12 of the spectral
    maximum.  A frame that is all zero or holds a NaN or infinite sample
    raises ``ValueError``.
    """
    x = np.asarray(frame, dtype=float).ravel()
    if n_coeffs < 1:
        raise ValueError("need at least one coefficient")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite samples")
    if not np.any(x):
        raise ValueError("undefined log spectrum")
    return _real_cepstra(x[None, :], [0], n_coeffs)[0]
