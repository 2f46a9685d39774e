"""Per-frame AR and ARMA model fitting with a minimum-phase guarantee.

Model convention for a frame s[m]:

    s[m] = sum_i a_i s[m-i] + sum_j b_j u[m-j] + u[m],

so the transfer function is T(z) = (1 + sum_j b_j z^-j) / (1 - sum_i a_i z^-i).
AR fitting uses the autocorrelation method (Levinson-Durbin), which is
minimum phase by construction.  ARMA fitting uses a Hannan-Rissanen start
followed by damped Gauss-Newton refinement of the one-step prediction
error, with both polynomials root-reflected into the unit circle at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import signal as sps

__all__ = [
    "ArmaModel",
    "certify_inside",
    "fit_ar_frames",
    "fit_arma_frames",
    "estimate_ar",
    "estimate_arma",
    "enforce_minimum_phase",
]

MAX_ROOT_RADIUS = 1.0 - 1e-6  # post-fit clip keeps the cepstral recursion stable
CERT_MARGIN = 1e-6  # a reflection coefficient must be this far inside 1 to certify


@dataclass(frozen=True)
class ArmaModel:
    """AR coefficients a_1..a_p and MA coefficients b_1..b_q of one frame's fit."""

    ar: np.ndarray
    ma: np.ndarray
    noise_variance: float = 1.0
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ar", np.atleast_1d(np.asarray(self.ar, dtype=float)))
        object.__setattr__(self, "ma", np.atleast_1d(np.asarray(self.ma, dtype=float)))
        if self.noise_variance < 0:
            raise ValueError("noise variance must be nonnegative")

    @property
    def p(self) -> int:
        return self.ar.size

    @property
    def q(self) -> int:
        return self.ma.size

    @property
    def ar_polynomial(self) -> np.ndarray:
        """Denominator polynomial [1, -a_1, ..., -a_p] in powers of z^-1."""
        return np.concatenate(([1.0], -self.ar))

    @property
    def ma_polynomial(self) -> np.ndarray:
        """Numerator polynomial [1, b_1, ..., b_q] in powers of z^-1."""
        return np.concatenate(([1.0], self.ma))

    def poles(self) -> np.ndarray:
        return np.roots(self.ar_polynomial) if self.p else np.zeros(0, dtype=complex)

    def zeros(self) -> np.ndarray:
        return np.roots(self.ma_polynomial) if self.q else np.zeros(0, dtype=complex)

    def is_minimum_phase(self, tol: float = 0.0) -> bool:
        """All poles and zeros strictly inside radius ``1 - tol``.

        The step-down certificate answers most calls; roots are computed
        only when it cannot decide.
        """
        radius = 1.0 - tol
        if certify_inside(self.ar_polynomial, radius) and certify_inside(self.ma_polynomial, radius):
            return True
        radii = [np.abs(r).max(initial=0.0) for r in (self.poles(), self.zeros())]
        return max(radii) < 1.0 - tol

    def log_magnitude(self, n_points: int = 512) -> np.ndarray:
        """log |T(e^jw)| on an n_points grid over [0, pi)."""
        w, h = sps.freqz(self.ma_polynomial, self.ar_polynomial, worN=n_points)
        return np.log(np.abs(h) + 1e-300)


def _autocorrelation(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r_0..r_max_lag of every row of ``frames`` (T, n).

    Lag k is one row-wise dot product of the frame with itself shifted by k,
    so memory stays at the size of the input.
    """
    n = frames.shape[1]
    r = np.empty((frames.shape[0], max_lag + 1))
    for k in range(max_lag + 1):
        r[:, k] = np.einsum("ti,ti->t", frames[:, k:], frames[:, : n - k])
    return r / n


def _levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levinson-Durbin solve of the autocorrelation normal equations, per row.

    ``r`` is (T, p+1).  Returns prediction coefficients a (T, p), with
    s[m] ~ sum a_i s[m-i], the final per-sample prediction error (T,) and
    the largest reflection coefficient magnitude max_m |k_m| (T,).  A row
    whose error reaches zero stops there, as if its recursion had ended.
    """
    n_rows, p = r.shape[0], r.shape[1] - 1
    alpha = np.zeros((n_rows, p))  # error-filter coefficients, A(z) = 1 + sum alpha_i z^-i
    err = r[:, 0].copy()
    k_max = np.zeros(n_rows)
    for m in range(1, p + 1):
        live = err > 0.0
        if not live.any():
            break
        acc = r[:, m] + np.einsum("ti,ti->t", alpha[:, : m - 1], r[:, m - 1 : 0 : -1])
        k = np.where(live, -acc / np.where(live, err, 1.0), 0.0)
        if m > 1:
            alpha[:, : m - 1] += k[:, None] * alpha[:, m - 2 :: -1]
        alpha[:, m - 1] = k
        err *= 1.0 - k * k
        np.maximum(k_max, np.abs(k), out=k_max)
    return -alpha, np.maximum(err, 0.0), k_max


def fit_ar_frames(frames: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Autocorrelation-method linear prediction of order ``p`` on every row.

    ``frames`` is (T, n) with n > p.  Returns the AR coefficients (T, p),
    the prediction error variances (T,) and the largest reflection
    coefficient magnitude of each fit (T,).  Every fit with that magnitude
    below ``1 - CERT_MARGIN`` is minimum phase; zero rows give all-zero
    coefficients and zero variance.
    """
    frames = np.asarray(frames, dtype=float)
    if p < 1:
        raise ValueError("order p must be positive")
    if frames.shape[-1] <= p:
        raise ValueError("frame length must exceed the AR order")
    return _levinson(_autocorrelation(frames, p))


def estimate_ar(frame: np.ndarray, p: int) -> ArmaModel:
    """Autocorrelation-method linear prediction of order ``p``.

    A zero-energy frame yields all-zero coefficients with zero noise
    variance (flagged via ``converged=False``) rather than an error.
    """
    x = np.asarray(frame, dtype=float).reshape(1, -1)
    a, err, _ = fit_ar_frames(x, p)
    return ArmaModel(a[0], np.zeros(0), float(err[0]), converged=bool(np.any(x)))


def certify_inside(poly: np.ndarray, radius: float) -> bool:
    """Step-down (Schur-Cohn) certificate that every root of ``poly`` lies
    strictly inside ``radius``.

    ``poly`` is [1, c_1, ..., c_m] in powers of z^-1.  Scaling c_j by
    radius^-j maps the circle of that radius onto the unit circle; the
    step-down recursion then yields the reflection coefficients, and all
    roots are inside when every |k| < 1 (Markel & Gray, *Linear Prediction
    of Speech*, 1976).  Certification asks for |k| < 1 - CERT_MARGIN so that
    rounding in the recursion cannot certify a root on the circle.  False
    means "not proven", not "outside": callers fall back to root finding.
    Scalar Python: for the low orders used per frame this beats both a
    numpy loop and ``np.roots``.
    """
    c = [float(v) * radius**-j for j, v in enumerate(poly)]
    bound = 1.0 - CERT_MARGIN
    for m in range(len(c) - 1, 0, -1):
        k = c[m]
        if not abs(k) < bound:  # also rejects NaN
            return False
        scale = 1.0 - k * k
        c = [1.0] + [(c[i] - k * c[m - i]) / scale for i in range(1, m)]
    return True


def _reflect_roots(poly: np.ndarray, clip_radius: float) -> np.ndarray:
    """Reflect roots of a monic polynomial into the unit circle and clip radii.

    A polynomial certified to have every root inside ``clip_radius`` is
    returned as it is; only the others are factored.  The factoring does
    what ``np.roots`` and ``np.poly`` do (companion-matrix eigenvalues, then
    the product of the factors by repeated convolution), without their
    wrappers; ``np.roots`` still handles a zero trailing coefficient.
    """
    if certify_inside(poly, clip_radius):
        return poly.astype(float)
    if poly[-1] == 0.0:
        roots = np.roots(poly)
    else:
        companion = np.diag(np.ones(poly.size - 2), -1)
        companion[0] = -poly[1:] / poly[0]
        roots = np.linalg.eigvals(companion)
    mags = np.abs(roots)
    outside = mags > 1.0
    roots[outside] = 1.0 / np.conj(roots[outside])
    mags = np.abs(roots)
    hot = mags > clip_radius
    roots[hot] *= clip_radius / mags[hot]
    out = np.ones(1, dtype=roots.dtype)
    for r in roots:
        out = np.convolve(out, np.array([1, -r], dtype=roots.dtype))
    return out.real.copy()


def enforce_minimum_phase(m: ArmaModel, clip_radius: float = 1.0 - 1e-9) -> ArmaModel:
    """Replace every root r with |r| >= 1 by 1/conj(r).

    The magnitude spectrum is unchanged up to a constant gain, which is
    irrelevant for cepstral coefficients beyond the zeroth.
    """
    ar_poly = _reflect_roots(m.ar_polynomial, clip_radius)
    ma_poly = _reflect_roots(m.ma_polynomial, clip_radius)
    return ArmaModel(-ar_poly[1:], ma_poly[1:], m.noise_variance, m.converged)


_STEP_SCALES = 2.0 ** -np.arange(11)  # Gauss-Newton step halving
_MAX_GN_ITER = 50  # Gauss-Newton iterations per fit
_GN_REL_TOL = 1e-8  # stop once an iteration gains less than this share of the objective


def _prediction_error(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sps.lfilter(np.concatenate(([1.0], -a)), np.concatenate(([1.0], b)), x)


def _lag_view(padded: np.ndarray, n: int, k: int) -> np.ndarray:
    """(n, k) read-only view of the 1-D ``padded``, which holds a signal's
    first n - 1 samples at its end behind at least k zeros; column i-1 is
    the signal delayed by i samples.  Row m reads padded[start + m],
    padded[start + m - 1], ..., with start = padded.size - n."""
    step = padded.strides[0]
    start = padded.size - n
    return as_strided(padded[start:], shape=(n, k), strides=(step, -step), writeable=False)


def _lagged(s: np.ndarray, k: int) -> np.ndarray:
    """(n, k) read-only view whose column i-1 is ``s`` delayed by i samples,
    zero before the start."""
    return _lag_view(np.concatenate((np.zeros(k), s[: s.size - 1])), s.size, k)


def _stabilize_ma(b: np.ndarray, clip_radius: float = 0.99) -> np.ndarray:
    """Keep 1 + sum b_j z^-j stable so the inverse filter stays usable."""
    return _reflect_roots(np.concatenate(([1.0], b)), clip_radius)[1:]


def _fit_arma_row(x: np.ndarray, long_ar: np.ndarray, p: int, q: int):
    """ARMA(p, q) fit of one nonzero frame ``x`` from its long-AR coefficients.

    Returns the AR and MA coefficients, the residual variance, the
    ``converged`` flag and the accepted objective values.
    """
    # Stage 1: innovation estimates from the long AR fit.
    u = sps.lfilter(np.concatenate(([1.0], -long_ar)), [1.0], x)

    # Stage 2: regress x[m] on lagged x and lagged innovations.
    k0 = max(p, q)
    design = np.hstack([_lagged(x, p), _lagged(u, q)])[k0:]
    theta, *_ = np.linalg.lstsq(design, x[k0:], rcond=None)
    a = theta[:p].copy()
    b = _stabilize_ma(theta[p:].copy())

    e = _prediction_error(x, a, b)
    sse = float(e @ e)
    history = [sse]
    converged = False

    # Stage 3: damped Gauss-Newton on the prediction-error sum of squares.
    # x and e go through 1/B(z) in one call; the Jacobian's columns are
    # delayed copies of the two filtered signals, read out of one
    # zero-padded buffer into one preallocated matrix.
    n = x.size
    signals = np.empty((2, n))
    signals[0] = x
    padded = np.zeros((2, n - 1 + k0))
    x_lags, e_lags = _lag_view(padded[0], n, p), _lag_view(padded[1], n, q)
    jac = np.empty((n, p + q))
    for _ in range(_MAX_GN_ITER):
        signals[1] = e
        padded[:, k0:] = sps.lfilter([1.0], np.concatenate(([1.0], b)), signals)[:, :-1]
        np.negative(x_lags, out=jac[:, :p])
        np.negative(e_lags, out=jac[:, p:])
        hess = jac.T @ jac
        hess.flat[:: p + q + 1] += 1e-10 * max(np.trace(hess), 1.0)
        try:
            delta = np.linalg.solve(hess, jac.T @ e)
        except np.linalg.LinAlgError:
            break

        accepted = False
        for scale in _STEP_SCALES:
            a_new = a - scale * delta[:p]
            b_new = _stabilize_ma(b - scale * delta[p:])
            e_new = _prediction_error(x, a_new, b_new)
            sse_new = float(e_new @ e_new)
            if np.isfinite(sse_new) and sse_new < sse:
                accepted = True
                break
        if not accepted:
            converged = True  # no descent direction left
            break
        rel_gain = (sse - sse_new) / max(sse, 1e-300)
        a, b, e, sse = a_new, b_new, e_new, sse_new
        history.append(sse)
        if rel_gain < _GN_REL_TOL:
            converged = True
            break

    model = enforce_minimum_phase(ArmaModel(a, b, 1.0, converged), clip_radius=MAX_ROOT_RADIUS)
    resid = _prediction_error(x, model.ar, model.ma)
    return model.ar, model.ma, float(np.mean(resid**2)), converged, history


def fit_arma_frames(frames: np.ndarray, p: int, q: int):
    """Prediction-error fit of an ARMA(p, q) model to every row of ``frames`` (T, n).

    Hannan-Rissanen two-stage regression provides each starting point, its
    long-AR stage one ``fit_ar_frames`` call over all nonzero rows; damped
    Gauss-Newton then minimizes each row's sum of squared one-step
    prediction errors with step halving, so the objective is nonincreasing
    by construction, for at most 50 iterations or until one gains less
    than 1e-8 of the objective.  Both polynomials are root-reflected into
    the unit circle afterwards.

    Returns the AR coefficients (T, p), the MA coefficients (T, q), the
    residual variances (T,), the ``converged`` flags (T,) and a list of
    each row's accepted objective values.  With q = 0 every row is an
    ``estimate_ar`` fit; an all-zero row gets zero coefficients, zero
    variance, ``converged`` False and no objective values.
    """
    frames = np.asarray(frames, dtype=float)
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("orders must be nonnegative with p + q > 0")
    n_rows, n = frames.shape
    if n <= p + q + 1:
        raise ValueError("frame length must exceed p + q + 1")
    nonzero = np.any(frames, axis=1)
    if q == 0:
        a, err, _ = fit_ar_frames(frames, p)
        return a, np.zeros((n_rows, 0)), err, nonzero, [[] for _ in range(n_rows)]

    ar, ma = np.zeros((n_rows, p)), np.zeros((n_rows, q))
    noise_variance, converged = np.zeros(n_rows), np.zeros(n_rows, dtype=bool)
    objectives = [[] for _ in range(n_rows)]
    rows = np.flatnonzero(nonzero)
    n_long = min(max(20, 2 * (p + q)), max(p + q + 2, n // 3), n - 1)  # an AR fit needs n > order
    long_ar, _, _ = fit_ar_frames(frames[rows], n_long)
    for t, coeffs in zip(rows, long_ar):
        ar[t], ma[t], noise_variance[t], converged[t], objectives[t] = _fit_arma_row(
            frames[t], coeffs, p, q
        )
    return ar, ma, noise_variance, converged, objectives


def estimate_arma(frame: np.ndarray, p: int, q: int, full_output: bool = False):
    """Prediction-error fit of an ARMA(p, q) model to one frame: the
    one-row call of ``fit_arma_frames``.

    With ``full_output=True`` returns ``(model, info)`` where ``info`` holds
    the accepted objective values per iteration and the ``converged`` flag.
    """
    x = np.asarray(frame, dtype=float).reshape(1, -1)
    ar, ma, noise_variance, converged, objectives = fit_arma_frames(x, p, q)
    model = ArmaModel(ar[0], ma[0], float(noise_variance[0]), bool(converged[0]))
    if full_output:
        return model, {"objective": objectives[0], "converged": model.converged}
    return model
