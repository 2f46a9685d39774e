"""Shared test helpers."""

import numpy as np
import pytest

from karma.arma import ArmaModel
from karma.cepstrum import CepstralObservation


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
    above; state bounds and activation signs are the library's."""

    def value(self, x, active_f=None, active_a=None):
        freq_cols, bw_cols, _ = frozen_columns(self.n_formants, self.n_antiformants)
        powers = frozen_pole_powers(
            x[..., freq_cols], x[..., bw_cols], self.sample_rate_hz, self.n_cepstra
        )
        return frozen_powers_cepstrum(powers, self._active_signs(active_f, active_a))

    def linearize(self, x, active_f=None, active_a=None):
        freq_cols, bw_cols, _ = frozen_columns(self.n_formants, self.n_antiformants)
        signs = self._active_signs(active_f, active_a)
        powers = frozen_pole_powers(x[freq_cols], x[bw_cols], self.sample_rate_hz, self.n_cepstra)
        H = frozen_powers_jacobian(powers, signs, self.sample_rate_hz, freq_cols, bw_cols)
        return frozen_powers_cepstrum(powers, signs), H


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
