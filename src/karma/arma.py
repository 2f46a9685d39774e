"""Per-frame AR and ARMA model fitting with a minimum-phase guarantee.

Model convention for a frame s[m]:

    s[m] = sum_i a_i s[m-i] + sum_j b_j u[m-j] + u[m],

so the transfer function is T(z) = (1 + sum_j b_j z^-j) / (1 - sum_i a_i z^-i).
AR fitting uses the autocorrelation method (Levinson-Durbin), which is
minimum phase by construction.  ARMA fitting uses a Hannan-Rissanen start
followed by damped Gauss-Newton refinement of the one-step prediction
error, with both polynomials root-reflected into the unit circle at the end.

``_minimum_phase_rows`` is the one minimum-phase check, which
``ArmaModel.is_minimum_phase`` and ``cepstrum.arma_cepstra`` both call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import signal as sps

__all__ = [
    "ArmaModel",
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
        """All poles and zeros strictly inside radius ``1 - tol``: the
        one-row call of ``_minimum_phase_rows``."""
        return bool(_minimum_phase_rows(self.ar[None, :], self.ma[None, :], 1.0 - tol)[0])

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


def _levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin solve of the autocorrelation normal equations, per row.

    ``r`` is (T, p+1).  Returns prediction coefficients a (T, p), with
    s[m] ~ sum a_i s[m-i], and the final per-sample prediction error (T,).
    A row whose error reaches zero stops there, as if its recursion had
    ended.
    """
    n_rows, p = r.shape[0], r.shape[1] - 1
    alpha = np.zeros((n_rows, p))  # error-filter coefficients, A(z) = 1 + sum alpha_i z^-i
    err = r[:, 0].copy()
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
    return -alpha, np.maximum(err, 0.0)


def fit_ar_frames(frames: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation-method linear prediction of order ``p`` on every row.

    ``frames`` is (T, n) with n > p.  Returns the AR coefficients (T, p)
    and the prediction error variances (T,); zero rows give all-zero
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
    a, err = fit_ar_frames(x, p)
    return ArmaModel(a[0], np.zeros(0), float(err[0]), converged=bool(np.any(x)))


def _certify_rows(polys: np.ndarray, radius: float) -> np.ndarray:
    """Step-down (Schur-Cohn) certificate, per row of ``polys`` (T, m+1), that
    every root lies strictly inside ``radius``; returns (T,) bool.

    Each row is [1, c_1, ..., c_m] in powers of z^-1.  Scaling c_j by
    radius^-j maps the circle of that radius onto the unit circle; the
    step-down recursion then yields the reflection coefficients, and all
    roots are inside when every |k| < 1 (Markel & Gray, *Linear Prediction
    of Speech*, 1976).  Certification asks for |k| < 1 - CERT_MARGIN so that
    rounding in the recursion cannot certify a root on the circle.  False
    means "not proven", not "outside": callers fall back to ``_roots_rows``.
    One step of the recursion runs on all rows at once; a row refused early
    keeps stepping on values nothing reads.
    """
    c = polys * np.array([radius**-j for j in range(polys.shape[1])])
    inside = np.ones(polys.shape[0], dtype=bool)
    bound = 1.0 - CERT_MARGIN
    with np.errstate(all="ignore"):
        for m in range(polys.shape[1] - 1, 0, -1):
            k = c[:, m]
            inside &= np.abs(k) < bound  # also rejects NaN
            scale = 1.0 - k * k
            c[:, 1:m] = (c[:, 1:m] - k[:, None] * c[:, m - 1 : 0 : -1]) / scale[:, None]
    return inside


def _monic(tails: np.ndarray) -> np.ndarray:
    """Polynomials [1, c_1, ..., c_m], one per row of ``tails`` (T, m)."""
    polys = np.empty((tails.shape[0], tails.shape[1] + 1))
    polys[:, 0] = 1.0
    polys[:, 1:] = tails
    return polys


def _roots_rows(polys: np.ndarray) -> np.ndarray:
    """Roots (T, m) of each monic row of ``polys`` (T, m+1), as ``np.roots``
    finds them: one stacked companion-matrix ``eigvals`` call, and
    ``np.roots`` itself for a row with a zero trailing coefficient."""
    m = polys.shape[1] - 1
    roots = np.empty((polys.shape[0], m), dtype=complex)
    trailing_zero = polys[:, -1] == 0.0
    factor = np.flatnonzero(~trailing_zero)
    if factor.size and m:
        companion = np.zeros((factor.size, m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, 0] = -polys[factor, 1:] / polys[factor, :1]
        roots[factor] = np.linalg.eigvals(companion)
    for i in np.flatnonzero(trailing_zero):
        roots[i] = np.roots(polys[i])
    return roots


def _minimum_phase_rows(ar: np.ndarray, ma: np.ndarray, radius: float) -> np.ndarray:
    """Whether each model in the rows of ``ar`` (T, p) and ``ma`` (T, q) has
    every pole and zero strictly inside ``radius``, (T,) bool: one step-down
    certificate per polynomial, then roots only for the rows it cannot prove."""
    inside = np.ones(ar.shape[0], dtype=bool)
    for polys in (_monic(-ar), _monic(ma)):
        proved = _certify_rows(polys, radius)
        todo = np.flatnonzero(~proved)
        if todo.size:
            proved[todo] = np.abs(_roots_rows(polys[todo])).max(axis=1, initial=0.0) < radius
        inside &= proved
    return inside


def _reflect_rows(polys: np.ndarray, clip_radius: float) -> np.ndarray:
    """Reflect the roots of each monic row of ``polys`` (T, m+1) into the unit
    circle and clip their radii to ``clip_radius``.

    A row certified to have every root inside ``clip_radius`` is returned
    as it is; only the others are factored, which does what ``np.roots``
    and ``np.poly`` do: one ``_roots_rows`` call, reflection and clipping on
    all factored rows at once, then each row's product of factors by
    repeated convolution.  The product stays per row, in real arithmetic
    for a row whose roots are all real, as ``np.poly`` forms it: complex
    ``np.convolve`` sums through a BLAS dot whose rounding elementwise numpy
    does not reproduce.
    """
    out = polys.astype(float)
    todo = np.flatnonzero(~_certify_rows(polys, clip_radius))
    if not todo.size:
        return out
    roots = _roots_rows(polys[todo])
    real = np.all(roots.imag == 0.0, axis=1)
    mags = np.abs(roots)
    outside = mags > 1.0
    roots[outside] = 1.0 / np.conj(roots[outside])
    mags = np.abs(roots)
    hot = mags > clip_radius
    roots[hot] *= clip_radius / mags[hot]
    for t, row, is_real in zip(todo, roots, real):
        factors = row.real if is_real else row
        product = np.ones(1, dtype=factors.dtype)
        for r in factors:
            product = np.convolve(product, np.array([1, -r], dtype=factors.dtype))
        out[t] = product.real
    return out


def enforce_minimum_phase(m: ArmaModel, clip_radius: float = 1.0 - 1e-9) -> ArmaModel:
    """Replace every root r with |r| >= 1 by 1/conj(r).

    The magnitude spectrum is unchanged up to a constant gain, which is
    irrelevant for cepstral coefficients beyond the zeroth.
    """
    ar_poly = _reflect_rows(m.ar_polynomial[None, :], clip_radius)
    ma_poly = _reflect_rows(m.ma_polynomial[None, :], clip_radius)
    return ArmaModel(-ar_poly[0, 1:], ma_poly[0, 1:], m.noise_variance, m.converged)


_STEP_SCALES = 2.0 ** -np.arange(11)  # Gauss-Newton step halving
_MAX_GN_ITER = 50  # Gauss-Newton iterations per fit
_GN_REL_TOL = 1e-8  # stop once an iteration gains less than this share of the objective
_MA_CLIP = 0.99  # MA roots stay inside this radius during the search, so 1/B(z) stays usable


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


def _solve_rows(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions (L, M) of the stacked systems hess (L, M, M) and grad
    (L, M, 1), and which rows were solved: one stacked solve, or row by row
    when some system is singular."""
    try:
        return np.linalg.solve(hess, grad)[:, :, 0], np.ones(len(hess), dtype=bool)
    except np.linalg.LinAlgError:
        delta, solved = np.zeros(grad.shape[:2]), np.zeros(len(hess), dtype=bool)
        for j in range(len(hess)):
            try:
                delta[j] = np.linalg.solve(hess[j], grad[j, :, 0])
                solved[j] = True
            except np.linalg.LinAlgError:
                pass
        return delta, solved


def fit_arma_frames(frames: np.ndarray, p: int, q: int):
    """Prediction-error fit of an ARMA(p, q) model to every row of ``frames`` (T, n).

    Hannan-Rissanen two-stage regression provides each starting point, its
    long-AR stage one ``fit_ar_frames`` call over all nonzero rows; damped
    Gauss-Newton then minimizes each row's sum of squared one-step
    prediction errors with step halving, so the objective is nonincreasing
    by construction, for at most 50 iterations or until one gains less
    than 1e-8 of the objective.  Both polynomials are root-reflected into
    the unit circle afterwards.

    The rows iterate in lock step, a row leaving once it stops.  Per row
    stay the regression, every ``lfilter`` call and the Jacobian with its
    normal equations; each round then makes one stacked solve, and each
    step size one MA stabilisation (``_reflect_rows``) for all rows still
    searching.  The final reflection is one ``_reflect_rows`` call per
    polynomial.  Every row gets the same bits as a fit of that row alone.

    Returns the AR coefficients (T, p), the MA coefficients (T, q), the
    residual variances (T,), the ``converged`` flags (T,) and a list of
    each row's accepted objective values.  With q = 0 every row is a
    ``fit_ar_frames`` row, which needs only n > p; an all-zero row gets
    zero coefficients, zero variance, ``converged`` False and no objective
    values.
    """
    frames = np.asarray(frames, dtype=float)
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("orders must be nonnegative with p + q > 0")
    n_rows, n = frames.shape
    nonzero = np.any(frames, axis=1)
    if q == 0:
        a, err = fit_ar_frames(frames, p)
        return a, np.zeros((n_rows, 0)), err, nonzero, [[] for _ in range(n_rows)]
    if n <= p + q + 1:
        raise ValueError("frame length must exceed p + q + 1")

    objectives = [[] for _ in range(n_rows)]
    ar, ma = np.zeros((n_rows, p)), np.zeros((n_rows, q))
    noise_variance, converged = np.zeros(n_rows), np.zeros(n_rows, dtype=bool)
    rows = np.flatnonzero(nonzero)
    n_long = min(max(20, 2 * (p + q)), max(p + q + 2, n // 3), n - 1)  # an AR fit needs n > order
    long_ar, _ = fit_ar_frames(frames[rows], n_long)

    # Stage 1, innovation estimates from the long AR fit; stage 2, regress
    # x[m] on lagged x and lagged innovations.  Fit arrays are indexed by
    # position i in ``rows``.
    k0 = max(p, q)
    theta = np.empty((rows.size, p + q))
    for i, t in enumerate(rows):
        x = frames[t]
        u = sps.lfilter(np.concatenate(([1.0], -long_ar[i])), [1.0], x)
        design = np.hstack([_lagged(x, p), _lagged(u, q)])[k0:]
        theta[i] = np.linalg.lstsq(design, x[k0:], rcond=None)[0]
    a = theta[:, :p]
    b_polys = _reflect_rows(_monic(theta[:, p:]), _MA_CLIP)
    e = np.empty((rows.size, n))
    sse = np.empty(rows.size)
    for i, (t, a_poly) in enumerate(zip(rows, _monic(-a))):
        e[i] = sps.lfilter(a_poly, b_polys[i], frames[t])
        sse[i] = e[i] @ e[i]
        objectives[t].append(float(sse[i]))

    # Stage 3: damped Gauss-Newton on the prediction-error sum of squares.
    # x and e go through 1/B(z) in one call; the Jacobian's columns are
    # delayed copies of the two filtered signals, read out of one
    # zero-padded buffer into one preallocated matrix.
    signals = np.empty((2, n))
    padded = np.zeros((2, n - 1 + k0))
    x_lags, e_lags = _lag_view(padded[0], n, p), _lag_view(padded[1], n, q)
    jac = np.empty((n, p + q))
    live = np.arange(rows.size)  # positions of the rows still iterating
    for _ in range(_MAX_GN_ITER):
        if not live.size:
            break
        hess = np.empty((live.size, p + q, p + q))
        grad = np.empty((live.size, p + q, 1))
        for j, i in enumerate(live):
            signals[0] = frames[rows[i]]
            signals[1] = e[i]
            padded[:, k0:] = sps.lfilter([1.0], b_polys[i], signals)[:, :-1]
            np.negative(x_lags, out=jac[:, :p])
            np.negative(e_lags, out=jac[:, p:])
            h = jac.T @ jac
            h.flat[:: p + q + 1] += 1e-10 * max(np.trace(h), 1.0)
            hess[j] = h
            grad[j, :, 0] = jac.T @ e[i]
        delta, solved = _solve_rows(hess, grad)
        live, delta = live[solved], delta[solved]  # a row whose solve fails stops

        # Step halving: at each scale, all rows still searching try a step.
        gain = np.zeros(live.size)
        accepted = np.zeros(live.size, dtype=bool)
        searching = np.arange(live.size)
        for scale in _STEP_SCALES:
            if not searching.size:
                break
            idx = live[searching]
            a_try = a[idx] - scale * delta[searching, :p]
            b_try = _reflect_rows(_monic(b_polys[idx, 1:] - scale * delta[searching, p:]), _MA_CLIP)
            a_try_polys = _monic(-a_try)
            for k, (s, i) in enumerate(zip(searching, idx)):
                e_try = sps.lfilter(a_try_polys[k], b_try[k], frames[rows[i]])
                sse_try = float(e_try @ e_try)
                if np.isfinite(sse_try) and sse_try < sse[i]:
                    gain[s] = (sse[i] - sse_try) / max(sse[i], 1e-300)
                    a[i], b_polys[i], e[i], sse[i] = a_try[k], b_try[k], e_try, sse_try
                    objectives[rows[i]].append(sse_try)
                    accepted[s] = True
            searching = searching[~accepted[searching]]
        done = ~accepted | (gain < _GN_REL_TOL)  # no descent direction left, or too small a gain
        converged[rows[live[done]]] = True
        live = live[~done]

    ar_polys = _reflect_rows(_monic(-a), MAX_ROOT_RADIUS)
    ma_polys = _reflect_rows(b_polys, MAX_ROOT_RADIUS)
    ar[rows], ma[rows] = -ar_polys[:, 1:], ma_polys[:, 1:]
    for i, t in enumerate(rows):
        resid = sps.lfilter(ar_polys[i], ma_polys[i], frames[t])
        noise_variance[t] = np.mean(resid**2)
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
