"""Shared test helpers."""

import dataclasses
from functools import cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from karma.arma import ArmaModel
from karma.cepstrum import CepstralObservation, _fft_size
from karma.frontend import _GEMM_WORK, _periodic_window, frame_length_and_hop
from karma.pipeline import track_waveform
from karma.synthesis import (
    nasal_demo_config,
    nasal_utterance_spec,
    resonator_cascade,
    rosenberg_source,
    synthesize,
)
from karma.tracker import TrackActivation, TrackerParams

NASAL_SKIP_FRAMES = 10  # tracker start-up, left out of every nasal demo score
CRITERION_8_BUDGET_HZ = 50.0  # per formant and for the antiformant on nasal frames


def random_minimum_phase_model(rng, p: int, q: int, max_radius: float = 0.95) -> ArmaModel:
    """Random minimum-phase ARMA model built from conjugate root pairs.

    A small angular separation between pairs keeps the polynomial
    root-finding oracle well conditioned.
    """

    def polynomial(order):
        roots = []
        angles = []
        for _ in range(order // 2):
            theta = rng.uniform(0.05, np.pi - 0.05)
            for _ in range(50):
                if all(abs(theta - a) > 0.05 for a in angles):
                    break
                theta = rng.uniform(0.05, np.pi - 0.05)
            angles.append(theta)
            radius = rng.uniform(0.1, max_radius)
            roots += [radius * np.exp(1j * theta), radius * np.exp(-1j * theta)]
        if order % 2:
            roots.append(complex(rng.uniform(-max_radius, max_radius)))
        if not roots:
            return np.array([1.0])
        return np.atleast_1d(np.real(np.poly(roots)))

    den = polynomial(p)
    num = polynomial(q)
    return ArmaModel(-den[1:], num[1:], 1.0)


def cascade_model(x, n_formants: int, n_antiformants: int, sample_rate_hz: float) -> ArmaModel:
    """The resonator cascade of state vector ``x`` as an ARMA model: the
    formants' cascade is its AR polynomial, the antiformants' its MA one."""
    i, j = n_formants, n_antiformants
    den = resonator_cascade(x[:i], x[i : 2 * i], sample_rate_hz)
    num = resonator_cascade(x[2 * i : 2 * i + j], x[2 * i + j :], sample_rate_hz)
    return ArmaModel(-den[1:], num[1:])


def root_sum_cepstrum(model: ArmaModel, n_coeffs: int) -> np.ndarray:
    """Independent oracle: C_n = (1/n)(sum of pole^n - sum of zero^n)."""
    poles = model.poles()
    zeros = model.zeros()
    out = np.zeros(n_coeffs)
    for n in range(1, n_coeffs + 1):
        pole_sum = np.sum(poles**n) if poles.size else 0.0
        zero_sum = np.sum(zeros**n) if zeros.size else 0.0
        out[n - 1] = float(np.real(pole_sum - zero_sum)) / n
    return out


def frozen_pole_powers(freqs, bws, sample_rate_hz, n_coeffs):
    """Frozen reference: powers (N, ..., K) of the poles of (..., K) freqs and bws,
    resonance axis last, by a running product."""
    z = np.exp((np.pi / sample_rate_hz) * (2j * np.asarray(freqs) - np.asarray(bws)))
    powers = np.empty((n_coeffs,) + z.shape, dtype=complex)
    powers[0] = z
    for n in range(1, n_coeffs):
        np.multiply(powers[n - 1], z, out=powers[n])
    return powers


def frozen_powers_cepstrum(powers, signs):
    """Frozen reference: C_n = (2/n) sum_k s_k Re z_k^n, shape (..., N), k-sum in order."""
    terms = powers.real * signs
    by_n = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        by_n += terms[..., k]
    n = np.arange(1, powers.shape[0] + 1)
    return by_n.transpose(*range(1, by_n.ndim), 0) * (2.0 / n)


def frozen_powers_jacobian(powers, signs, sample_rate_hz, freq_cols, bw_cols):
    """Frozen reference: the (N, 2K) Jacobian at one state from (N, K) powers."""
    scale = (-2.0 * np.pi / sample_rate_hz) * signs
    jac = np.empty((powers.shape[0], 2 * powers.shape[-1]))
    jac[:, freq_cols] = (2.0 * scale) * powers.imag
    jac[:, bw_cols] = scale * powers.real
    return jac


def frozen_columns(n_formants, n_antiformants):
    """Frozen reference: frequency and bandwidth columns and signs of each resonance."""
    i, j = n_formants, n_antiformants
    freq_cols = np.r_[0:i, 2 * i : 2 * i + j]
    bw_cols = np.r_[i : 2 * i, 2 * i + j : 2 * i + 2 * j]
    return freq_cols, bw_cols, np.r_[np.ones(i), -np.ones(j)]


class FrozenCepstralObservation(CepstralObservation):
    """``CepstralObservation`` with h and its Jacobian from the frozen kernel
    above; state bounds and activation signs (``_pattern``) are the library's."""

    def value(self, x, flags=None):
        freq_cols, bw_cols, _ = frozen_columns(self.n_formants, self.n_antiformants)
        powers = frozen_pole_powers(
            x[..., freq_cols], x[..., bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        return frozen_powers_cepstrum(powers, self._pattern(flags)[0])

    def linearize(self, x, flags=None):
        freq_cols, bw_cols, _ = frozen_columns(self.n_formants, self.n_antiformants)
        signs = self._pattern(flags)[0]
        powers = frozen_pole_powers(x[freq_cols], x[bw_cols], self.sample_rate_hz, self.n_cepstra)
        H = frozen_powers_jacobian(powers, signs, self.sample_rate_hz, freq_cols, bw_cols)
        return frozen_powers_cepstrum(powers, signs), H


def frozen_polyphase(x, h, up, down):
    """Frozen reference for the joined ``frontend._polyphase_chunks``: every
    block group in one zero-padded copy of the input, one batched matmul per
    shift."""
    n_taps, half, span = h.size, (h.size - 1) // 2, up * down
    n_out = -(-x.size * up // down)
    n_blocks = -(-n_out // up)
    s_lo = -((half + (up - 1) * down) // span)
    s_hi = (n_taps - 1 - half + (down - 1) * up) // span
    taps = np.arange(s_lo, s_hi + 1)[:, None, None] * span + (
        np.arange(up) * down - np.arange(down)[:, None] * up + half
    )
    inside = (taps >= 0) & (taps < n_taps)
    g = np.where(inside, up * h[np.clip(taps, 0, n_taps - 1)], 0.0)
    group = max(1, _GEMM_WORK // span)
    n_groups = -(-n_blocks // group)
    n_rows = n_groups * group
    rows = np.zeros((n_rows + s_hi - s_lo, down))
    rows.reshape(-1)[s_hi * down : s_hi * down + x.size] = x
    y = np.zeros((n_groups, group, up))
    for k, s in enumerate(range(s_lo, s_hi + 1)):
        y += rows[s_hi - s : s_hi - s + n_rows].reshape(n_groups, group, down) @ g[k]
    return y.reshape(-1)[:n_out].copy()


def frozen_window_frames(x, sample_rate_hz, frame_ms, overlap_fraction, window_kind="hamming"):
    """Frozen reference for ``frontend.window_frames``' frame matrix: framed from
    a zero-padded copy of the samples."""
    frame_length, hop = frame_length_and_hop(frame_ms, overlap_fraction, sample_rate_hz)
    n_full = (x.size - frame_length) // hop + 1
    covered = (n_full - 1) * hop + frame_length
    n_frames = n_full + (1 if covered < x.size else 0)
    window = _periodic_window(window_kind, frame_length)
    padded = np.zeros((n_frames - 1) * hop + frame_length)
    padded[: x.size] = x
    return sliding_window_view(padded, frame_length)[::hop] * window


def frozen_detect_activity(frames, threshold_db=-40.0):
    """Frozen reference for ``frontend.detect_activity`` on a frame matrix,
    squaring every frame at once."""
    rms = np.sqrt(np.mean(frames**2, axis=1))
    ref = rms.max() if rms.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(rms > 0, 20.0 * np.log10(rms / ref) if ref > 0 else -np.inf, -np.inf)
    return db >= threshold_db


def frozen_preemphasize(frame, gamma):
    """Frozen reference for ``frontend.preemphasize``: a copy, then one
    whole-array update."""
    x = np.asarray(frame, dtype=float)
    out = x.copy()
    out[..., 1:] -= gamma * x[..., :-1]
    return out


def frozen_real_cepstra(frames, rows, n_coeffs, block=256):
    """Frozen reference for ``cepstrum._real_cepstra``: FFT blocks of ``block`` rows."""
    nfft = _fft_size(frames.shape[1])
    out = np.empty((len(rows), min(n_coeffs, nfft // 2)))
    for lo in range(0, len(rows), block):
        spec = np.abs(np.fft.rfft(frames[rows[lo : lo + block]], nfft, axis=1))
        floor = 1e-12 * spec.max(axis=1, keepdims=True)
        ceps = np.fft.irfft(np.log(np.maximum(spec, floor)), nfft, axis=1)
        out[lo : lo + block] = 2.0 * ceps[:, 1 : out.shape[1] + 1]
    return out


def frozen_resonator_cascade(freqs, bws, sample_rate_hz):
    """Frozen reference for ``synthesis.resonator_cascade``: one
    ``np.convolve`` per section, squaring each numpy-scalar radius."""
    poly = np.array([1.0])
    for f, b in zip(freqs, bws):
        radius = np.exp(-np.pi * b / sample_rate_hz)
        section = np.array([1.0, -2.0 * radius * np.cos(2.0 * np.pi * f / sample_rate_hz), radius**2])
        poly = np.convolve(poly, section)
    return poly


def frozen_filter_rows(nums, dens, x):
    """Frozen reference for ``synthesis._filter_rows`` on lists of per-row
    coefficient arrays: x b formed sample by sample, one delay buffer as long
    as the frame."""
    nb, na = max(c.size for c in nums) - 1, max(c.size for c in dens) - 1
    b, a = np.zeros((nb + 1, len(x))), np.zeros((na + 1, len(x)))
    for t, (num, den) in enumerate(zip(nums, dens)):
        b[: num.size, t], a[: den.size, t] = num, den
    a = a[1:]
    xs = np.ascontiguousarray(x.T)
    ys = np.empty_like(xs)
    z = np.zeros((xs.shape[0] + max(nb, na) + 1, len(x)))
    xb, ya = np.empty_like(b), np.empty_like(a)
    for m, (xm, ym) in enumerate(zip(xs, ys)):
        np.multiply(xm, b, out=xb)
        np.add(z[m], xb[0], out=ym)
        np.multiply(ym, a, out=ya)
        z[m + 1 : m + 1 + nb] += xb[1:]
        z[m + 1 : m + 1 + na] -= ya
    return ys.T


def frozen_synthesize(spec):
    """Frozen reference for ``synthesis.synthesize``'s samples: per-frame
    cascades of the present tracks and a per-frame overlap-add loop."""
    length, hop, fs = spec.frame_length, spec.hop, spec.sample_rate_hz
    total = (spec.n_frames - 1) * hop + length
    rng = np.random.default_rng(spec.seed)
    excitation = {"white_noise": rng.standard_normal(total)}
    if (spec.sources == "rosenberg").any():
        flow = rosenberg_source(np.where(np.isnan(spec.f0_hz), 100.0, spec.f0_hz), length, fs, hop=hop)
        excitation["rosenberg"] = np.diff(flow, prepend=0.0)
    window = _periodic_window("hanning", length)
    out = np.zeros(total)
    speech = np.flatnonzero(spec.sources != "silence")
    if speech.size:
        segments = np.empty((speech.size, length))
        for name, signal in excitation.items():
            rows = spec.sources[speech] == name
            segments[rows] = sliding_window_view(signal, length)[::hop][speech[rows]]
        nums, dens = [], []
        for t in speech:
            f, a = spec.formant_present[t], spec.antiformant_present[t]
            dens.append(frozen_resonator_cascade(spec.formant_freqs[t, f], spec.formant_bws[t, f], fs))
            nums.append(frozen_resonator_cascade(spec.antiformant_freqs[t, a], spec.antiformant_bws[t, a], fs))
        filtered = frozen_filter_rows(nums, dens, segments)
        for row, t in enumerate(speech):
            out[t * hop : t * hop + length] += window * filtered[row]
    peak = np.abs(out).max()
    if peak > 0:
        out *= 0.9 / peak
    return out


class LinearObservation:
    """Fixed linear observation y = H x, for the linear-Gaussian oracles and surrogate tests."""

    def __init__(self, H: np.ndarray):
        self.H = np.asarray(H, dtype=float)

    def value(self, x, flags=None):
        return x @ self.H.T

    def linearize(self, x, flags=None):
        return x @ self.H.T, self.H

    def state_bounds(self):
        return None


def linear_system():
    Q = np.diag([0.3, 0.2])
    H = np.array([[1.0, 0.0], [0.5, 1.0]])
    R = np.diag([0.5, 0.4])
    mu0 = np.array([1.0, -2.0])
    S0 = np.diag([2.0, 1.0])
    params = TrackerParams(
        Q=Q, R=R, mu0=mu0, Sigma0=S0,
        n_formants=1, n_antiformants=0, n_cepstra=2, sample_rate_hz=8000.0,
    )
    return params, LinearObservation(H)


def kalman_oracle(y, params, H):
    """Straight transcription of the filtering and smoothing recursions."""
    T = y.shape[0]
    m, P = params.mu0.copy(), params.Sigma0.copy()
    mf = np.zeros((T, 2)); Pf = np.zeros((T, 2, 2))
    mp = np.zeros((T, 2)); Pp = np.zeros((T, 2, 2))
    for t in range(T):
        P = P + params.Q
        mp[t], Pp[t] = m, P
        S = H @ P @ H.T + params.R
        K = P @ H.T @ np.linalg.inv(S)
        m = m + K @ (y[t] - H @ m)
        P = P - K @ H @ P
        mf[t], Pf[t] = m, P
    ms, Ps = mf.copy(), Pf.copy()
    for t in range(T - 1, 0, -1):
        G = Pf[t - 1] @ np.linalg.inv(Pp[t])
        ms[t - 1] = mf[t - 1] + G @ (ms[t] - mp[t])
        Ps[t - 1] = Pf[t - 1] + G @ (Ps[t] - Pp[t]) @ G.T
    return mf, Pf, ms, Ps


def batch_map_oracle(y, params, H):
    """Posterior mode of the full linear-Gaussian trajectory, one linear solve."""
    T = y.shape[0]
    d = 2
    n = (T + 1) * d
    A = np.zeros((n, n))
    b = np.zeros(n)
    iS0 = np.linalg.inv(params.Sigma0)
    iQ = np.linalg.inv(params.Q)
    iR = np.linalg.inv(params.R)
    A[:d, :d] += iS0
    b[:d] += iS0 @ params.mu0
    for t in range(T):
        i0, i1 = t * d, (t + 1) * d
        A[i0 : i0 + d, i0 : i0 + d] += iQ
        A[i0 : i0 + d, i1 : i1 + d] -= iQ
        A[i1 : i1 + d, i0 : i0 + d] -= iQ
        A[i1 : i1 + d, i1 : i1 + d] += iQ + H.T @ iR @ H
        b[i1 : i1 + d] += H.T @ iR @ y[t]
    return np.linalg.solve(A, b).reshape(T + 1, d)[1:]


@cache
def track_nasal(seed: int):
    """The nasal demo of trajectory seed ``seed``, tracked with the demo config and
    the reference activation: ``(result, reference)``, made once per session.

    The cached arrays are shared by every caller, so they are read-only.
    """
    wave, ref = synthesize(nasal_utterance_spec(seed=seed))
    activation = TrackActivation(ref.formant_active, ref.antiformant_active)
    res = track_waveform(wave, nasal_demo_config(), activation=activation)
    for track in (res, ref):
        for field in dataclasses.fields(track):
            value = getattr(track, field.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return res, ref


def nasal_rows(result, reference):
    """Scored frames of a nasal demo run: every frame from ``NASAL_SKIP_FRAMES`` on,
    and the nasal frames among them."""
    keep = np.arange(NASAL_SKIP_FRAMES, result.n_frames)
    return keep, keep[reference.antiformant_active[keep, 0]]


def nasal_scores(result, reference):
    """Per-formant frequency RMSE (I,) on the scored frames and the antiformant
    frequency RMSE on the nasal ones."""
    keep, nasal = nasal_rows(result, reference)
    err = result.formant_freqs[keep] - reference.formant_freqs[keep]
    af_err = result.antiformant_freqs[nasal, 0] - reference.antiformant_freqs[nasal, 0]
    return np.sqrt(np.mean(err**2, axis=0)), float(np.sqrt(np.mean(af_err**2)))


def criterion_8_holds(per_formant, af_rmse) -> bool:
    """Every formant RMSE and the antiformant RMSE within ``CRITERION_8_BUDGET_HZ``."""
    return bool(af_rmse <= CRITERION_8_BUDGET_HZ and np.all(per_formant <= CRITERION_8_BUDGET_HZ))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
