"""Per-frame AR and ARMA model fitting with a minimum-phase guarantee.

Model convention for a frame s[m]:

    s[m] = sum_i a_i s[m-i] + sum_j b_j u[m-j] + u[m],

so the transfer function is T(z) = (1 + sum_j b_j z^-j) / (1 - sum_i a_i z^-i).
AR fitting uses the autocorrelation method (Levinson-Durbin), which is
minimum phase by construction.  ARMA fitting uses a Hannan-Rissanen start
followed by damped Gauss-Newton refinement of the one-step prediction
error, with both polynomials root-reflected into the unit circle at the end.
The refinement stops on the Gauss-Newton decrement (Boyd & Vandenberghe,
*Convex Optimization*, 2004, sec. 9.5.1): once the fall in the objective
that the next step predicts is under 1e-6 of the objective, which on a
1000-sample frame is a log-likelihood gain under 5e-4 nats, far below what
the tracker's cepstral noise R = diag(1/n) resolves.

``_minimum_phase_rows`` is the one minimum-phase check, which
``cepstrum.arma_cepstra`` calls on every stack of fits; ``_reflect_rows``
is the one root reflection; ``_solve_each`` solves a round's Gauss-Newton
systems.  ``ArmaModel`` is the one-frame result of
``estimate_ar`` and ``estimate_arma``; the batched fits return arrays.

The per-row calls of the ARMA fit go to the kernels behind the public
wrappers: its IIR filters to ``scipy.signal._sigtools._linear_filter``, which
``scipy.signal.lfilter`` calls; its roots to the eigvals gufunc behind
``np.linalg.eigvals``; its solves to the gesv gufunc behind
``np.linalg.solve``.  Each gets the arguments its wrapper would pass, so
each gives the wrapper's bits without the wrapper's argument handling,
which cost as much as the work itself on these small inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.linalg import _umath_linalg

__all__ = [
    "ArmaModel",
    "fit_ar_frames",
    "fit_arma_frames",
    "estimate_ar",
    "estimate_arma",
]

MAX_ROOT_RADIUS = 1.0 - 1e-6  # post-fit clip keeps the cepstral recursion stable
CERT_MARGIN = 1e-6  # a reflection coefficient must be this far inside 1 to certify
_ONE = np.ones(1)  # the polynomial 1: a product's start, and the Gauss-Newton filter's numerator
_ONE.setflags(write=False)


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
    coefficients and zero variance.  A NaN or infinite sample raises
    ``ValueError``, as it does in ``real_cepstrum``.
    """
    frames = np.asarray(frames, dtype=float)
    if p < 1:
        raise ValueError("order p must be positive")
    if frames.shape[-1] <= p:
        raise ValueError("frame length must exceed the AR order")
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite samples")
    return _levinson(_autocorrelation(frames, p))


def estimate_ar(frame: np.ndarray, p: int) -> ArmaModel:
    """Autocorrelation-method linear prediction of order ``p``: the ARMA(p, 0)
    fit of ``estimate_arma``.

    A zero-energy frame yields all-zero coefficients with zero noise
    variance (flagged via ``converged=False``) rather than an error.
    """
    return estimate_arma(frame, p, 0)


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
    One step of the recursion runs on all rows at once, on the transposed
    coefficients (m+1, T); a row refused early keeps stepping on values
    nothing reads.  Step m reads k_m = c_m and rewrites only c_1..c_{m-1},
    so c_1..c_m hold k_1..k_m once the steps are done and are tested in
    one pass.
    """
    c = polys.T * np.array([radius**-j for j in range(polys.shape[1])])[:, None]
    with np.errstate(all="ignore"):
        for m in range(polys.shape[1] - 1, 1, -1):
            k = c[m]
            c[1:m] = (c[1:m] - k * c[m - 1 : 0 : -1]) / (1.0 - k * k)
        return (np.abs(c[1:]) < 1.0 - CERT_MARGIN).all(axis=0)  # NaN is never below


def _monic(tails: np.ndarray) -> np.ndarray:
    """Polynomials [1, c_1, ..., c_m], one per row of ``tails`` (T, m)."""
    polys = np.empty((tails.shape[0], tails.shape[1] + 1))
    polys[:, 0] = 1.0
    polys[:, 1:] = tails
    return polys


def _roots_rows(polys: np.ndarray) -> np.ndarray:
    """Roots (T, m) of each monic row of ``polys`` (T, m+1), as ``np.roots``
    finds them: one stacked companion-matrix call of the eigvals gufunc that
    ``np.linalg.eigvals`` wraps, and ``np.roots`` itself for a row with a
    zero trailing coefficient.  The wrapper's checks stay: a non-finite
    matrix or an eigenvalue solve that does not converge raises
    ``LinAlgError``, and a stack whose eigenvalues are all real gets +0
    imaginary parts."""
    m = polys.shape[1] - 1
    roots = np.empty((polys.shape[0], m), dtype=complex)
    trailing_zero = polys[:, -1] == 0.0
    factor = np.flatnonzero(~trailing_zero)
    if factor.size and m:
        companion = np.zeros((factor.size, m, m))
        companion.reshape(factor.size, m * m)[:, m :: m + 1] = 1.0  # the subdiagonal
        companion[:, 0] = -polys[factor, 1:] / polys[factor, :1]
        if not np.isfinite(companion).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        with np.errstate(call=_eig_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore"):
            w = _umath_linalg.eigvals(companion, signature="d->D")
        if not w.imag.any():
            w.imag = 0.0
        roots[factor] = w
    for i in np.flatnonzero(trailing_zero):
        roots[i] = np.roots(polys[i])
    return roots


def _eig_not_converged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _minimum_phase_rows(ar: np.ndarray, ma: np.ndarray, radius: float) -> np.ndarray:
    """Whether each model in the rows of ``ar`` (T, p) and ``ma`` (T, q) has
    every pole and zero strictly inside ``radius``, (T,) bool: one step-down
    certificate per polynomial, then roots only for the rows it cannot prove.
    A row with a NaN or infinite coefficient, which the certificate never
    proves, has no roots to find and is not minimum phase."""
    inside = np.ones(ar.shape[0], dtype=bool)
    for polys in (_monic(-ar), _monic(ma)):
        proved = _certify_rows(polys, radius)
        todo = np.flatnonzero(~proved & np.isfinite(polys).all(axis=1))
        if todo.size:
            proved[todo] = np.abs(_roots_rows(polys[todo])).max(axis=1, initial=0.0) < radius
        inside &= proved
    return inside


def _reflect_rows(polys: np.ndarray, clip_radius: float) -> np.ndarray:
    """Reflect the roots of each monic row of ``polys`` (T, m+1) into the unit
    circle and clip their radii to ``clip_radius``.

    A row certified to have every root inside ``clip_radius`` is returned
    as it is; only the others are factored, which does what ``np.roots``
    and ``np.poly`` do: one ``_roots_rows`` call, then reflection, clipping
    and the factors [1, -r] of all factored rows at once, then each row's
    product of its factors by repeated ``np.convolve``, starting from [1].
    The product stays per row, in real arithmetic for a row whose roots are
    all real, as ``np.poly`` forms it: complex ``np.convolve`` sums through
    a BLAS dot whose rounding elementwise numpy does not reproduce, and a
    stacked matmul that reaches the same dot is slower at a few rows.
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
    factors = np.ones(roots.shape + (2,), dtype=complex)
    np.negative(roots, out=factors[:, :, 1])
    for t, row, is_real in zip(todo.tolist(), factors, real.tolist()):
        row_factors = row.real if is_real else row
        product = _ONE.astype(row_factors.dtype)
        for factor in row_factors:
            product = np.convolve(product, factor)
        out[t] = product.real
    return out


_STEP_SCALES = 2.0 ** -np.arange(11)  # Gauss-Newton step halving
_MAX_GN_ITER = 50  # Gauss-Newton iterations per fit
_GN_REL_TOL = 1e-6  # stop once the Gauss-Newton decrement is under this share of the objective
_MA_CLIP = 0.99  # MA roots stay inside this radius during the search, so 1/B(z) stays usable


def _lag_rows(padded: np.ndarray, n: int, k: int) -> np.ndarray:
    """(k, n) read-only view of the 1-D ``padded``, which holds a signal's
    first n - 1 samples at its end behind at least k zeros; row r is the
    signal delayed by r + 1 samples.  Each row is contiguous; row r starts
    r samples before row 0, at padded[padded.size - n - r]."""
    step = padded.strides[0]
    start = padded.size - n
    return as_strided(padded[start:], shape=(k, n), strides=(-step, step), writeable=False)


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions x (L, M, K) of the stacked systems a x = b, a (L, M, M) and
    b (L, M, K), and which systems were solved (L,): one call of the gesv
    gufunc that ``np.linalg.solve`` wraps.  Where the wrapper raises, the
    gufunc gives a singular system NaNs and keeps the others' bits.  A
    system whose x is not all finite is unsolved and gets x = 0."""
    with np.errstate(all="ignore"):  # a singular system's NaNs, an overflow
        x = _umath_linalg.solve(a, b, signature="dd->d")
    solved = np.isfinite(x).all(axis=(1, 2))
    x[~solved] = 0.0
    return x, solved


def fit_arma_frames(frames: np.ndarray, p: int, q: int):
    """Prediction-error fit of an ARMA(p, q) model to every row of ``frames`` (T, n).

    Hannan-Rissanen two-stage regression provides each starting point, its
    long-AR stage one ``fit_ar_frames`` call over all nonzero rows; damped
    Gauss-Newton then minimizes each row's sum of squared one-step
    prediction errors with step halving, so the objective is nonincreasing
    by construction.  A row stops, converged, when its Gauss-Newton
    decrement grad' delta (the fall in the objective that the step
    predicts) is under 1e-6 of the objective, or when no step size lowers
    the objective; it stops unconverged after 50 iterations or when its
    solve fails.  Both polynomials are root-reflected into the unit circle
    afterwards.

    The rows iterate in lock step, a row leaving once it stops.  Per row
    stay every filter call, the regression and the normal equations, both
    formed from one (p + q, n) matrix of contiguous lagged rows; each round
    then makes one stacked solve, and each step size one MA stabilisation
    (``_reflect_rows``) for all rows still searching.  The final reflection
    is one ``_reflect_rows`` call per polynomial.  Every row gets the same
    bits as a fit of that row alone.

    Returns the AR coefficients (T, p), the MA coefficients (T, q), the
    residual variances (T,), the ``converged`` flags (T,) and a list of
    each row's accepted objective values.  With q = 0 every row is a
    ``fit_ar_frames`` row, which needs only n > p; an all-zero row gets
    zero coefficients, zero variance, ``converged`` False and no objective
    values.

    Only this route needs an IIR filter in the loop, so ``scipy.signal`` is
    imported at the first fit with q > 0, not with the package: an AR or
    real-cepstrum run never loads it.  Every filter call is
    ``_sigtools._linear_filter(b, a, x, -1)``, the call ``lfilter(b, a, x)``
    makes when its denominator ``a`` has more than one coefficient.  Here
    ``a`` is always the monic B(z), with q >= 1, and b, a and x are float64
    arrays, so each call gives ``lfilter``'s bits.
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
    from scipy.signal._sigtools import _linear_filter  # it loads scipy.stats too: import only on this route

    objectives = [[] for _ in range(n_rows)]
    ar, ma = np.zeros((n_rows, p)), np.zeros((n_rows, q))
    noise_variance, converged = np.zeros(n_rows), np.zeros(n_rows, dtype=bool)
    rows = np.flatnonzero(nonzero)
    row_frames = [frames[t] for t in rows.tolist()]  # views, indexed like the fit arrays
    row_objectives = [objectives[t] for t in rows.tolist()]
    n_long = min(max(20, 2 * (p + q)), max(p + q + 2, n // 3), n - 1)  # an AR fit needs n > order
    long_ar, _ = fit_ar_frames(frames[rows], n_long)

    # Stages 2 and 3 regress on jt: row r is a signal delayed r + 1 samples,
    # copied out of a lag view of ``padded``, which holds two signals behind
    # k0 zeros.  Fit arrays are indexed by position i in ``rows``.
    k0 = max(p, q)
    signals = np.empty((2, n))
    padded = np.zeros((2, n - 1 + k0))
    x_lags, e_lags = _lag_rows(padded[0], n, p), _lag_rows(padded[1], n, q)
    jt = np.empty((p + q, n))

    # Stage 1, innovations u = A_long(z) x of the long AR fit (``lfilter``
    # with denominator [1.0] is this convolution); stage 2, regress x[m] on
    # lagged x and lagged u.
    theta = np.empty((rows.size, p + q))
    for i, x in enumerate(row_frames):
        signals[0] = x
        signals[1] = np.convolve(np.concatenate(([1.0], -long_ar[i])), x)[:n]
        padded[:, k0:] = signals[:, :-1]
        np.copyto(jt[:p], x_lags)
        np.copyto(jt[p:], e_lags)
        theta[i] = np.linalg.lstsq(jt.T[k0:], x[k0:], rcond=None)[0]
    a = theta[:, :p]
    b_polys = _reflect_rows(_monic(theta[:, p:]), _MA_CLIP)
    e = [_linear_filter(a_poly, b_poly, x, -1) for a_poly, b_poly, x in zip(_monic(-a), b_polys, row_frames)]
    sse = np.array([r @ r for r in e])
    for history, value in zip(row_objectives, sse.tolist()):
        history.append(value)

    # Stage 3: damped Gauss-Newton on the prediction-error sum of squares;
    # x and e go through 1/B(z) in one call, and the Jacobian is -jt.T.
    live = np.arange(rows.size)  # positions of the rows still iterating
    for _ in range(_MAX_GN_ITER):
        if not live.size:
            break
        hess = np.empty((live.size, p + q, p + q))
        grad = np.empty((live.size, p + q, 1))
        for j, i in enumerate(live.tolist()):
            signals[0] = row_frames[i]
            signals[1] = e[i]
            padded[:, k0:] = _linear_filter(_ONE, b_polys[i], signals, -1)[:, :-1]
            np.copyto(jt[:p], x_lags)
            np.copyto(jt[p:], e_lags)
            np.matmul(jt, jt.T, out=hess[j])
            np.matmul(jt, e[i], out=grad[j, :, 0])
        ridge = 1e-10 * np.maximum(np.trace(hess, axis1=1, axis2=2), 1.0)
        hess.reshape(live.size, -1)[:, :: p + q + 1] += ridge[:, None]
        np.negative(grad, out=grad)
        delta, solved = _solve_each(hess, grad)
        # A row whose solve fails stops; so does one whose Gauss-Newton
        # decrement grad' delta, the fall its step predicts, is too small.
        live, grad, delta = live[solved], grad[solved, :, 0], delta[solved, :, 0]
        small = np.sum(grad * delta, axis=1) < _GN_REL_TOL * sse[live]
        converged[rows[live[small]]] = True
        live, delta = live[~small], delta[~small]

        # Step halving: at each scale, all rows still searching try a step.
        accepted = np.zeros(live.size, dtype=bool)
        searching = np.arange(live.size)
        for scale in _STEP_SCALES:
            if not searching.size:
                break
            idx = live[searching]
            a_try = a[idx] - scale * delta[searching, :p]
            b_try = _reflect_rows(_monic(b_polys[idx, 1:] - scale * delta[searching, p:]), _MA_CLIP)
            trials = zip(searching.tolist(), idx.tolist(), a_try, _monic(-a_try), b_try, sse[idx].tolist())
            for s, i, a_row, a_poly, b_poly, sse_i in trials:
                e_try = _linear_filter(a_poly, b_poly, row_frames[i], -1)
                sse_try = float(e_try @ e_try)
                if math.isfinite(sse_try) and sse_try < sse_i:
                    a[i], b_polys[i], e[i], sse[i] = a_row, b_poly, e_try, sse_try
                    row_objectives[i].append(sse_try)
                    accepted[s] = True
            searching = searching[~accepted[searching]]
        converged[rows[live[~accepted]]] = True  # no descent step left
        live = live[accepted]

    ar_polys = _reflect_rows(_monic(-a), MAX_ROOT_RADIUS)
    ma_polys = _reflect_rows(b_polys, MAX_ROOT_RADIUS)
    ar[rows], ma[rows] = -ar_polys[:, 1:], ma_polys[:, 1:]
    for i, t in enumerate(rows.tolist()):
        resid = _linear_filter(ar_polys[i], ma_polys[i], row_frames[i], -1)
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
