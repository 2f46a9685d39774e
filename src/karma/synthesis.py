"""Ground-truth-labeled speech-like synthesis.

A ``TrajectorySpec`` holds one row per frame: the resonance frequencies
and bandwidths, which tracks are audible, the excitation source and its
pitch.  Waveforms are built by overlap-add: each frame's stochastic or
glottal source segment is filtered by the second-order resonator cascade
of that frame's audible resonances, windowed, and summed into the output.
The synthesizer returns the waveform together with reference tracks, the
spec's columns on the same frame grid, so trackers can be scored against
exact truth.  Specs round-trip through a per-frame JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cepstrum import state_columns
from .frontend import Waveform, _periodic_window, frame_length_and_hop
from .pipeline import RunConfig
from .tracker import TrackActivation, TrackResult, _make_result

__all__ = [
    "TrajectorySpec",
    "resonator_cascade",
    "rosenberg_source",
    "synthesize",
    "random_trajectory",
    "nasal_utterance_spec",
    "nasal_demo_config",
    "spec_to_json",
    "spec_from_json",
    "load_spec",
    "save_spec",
]

SOURCES = ("white_noise", "rosenberg", "silence")
TRACK_COLUMNS = ("formant_freqs", "formant_bws", "antiformant_freqs", "antiformant_bws")

# Rosenberg glottal pulse phase fractions: polynomial opening, quadratic closing.
OPEN_FRACTION = 0.40
CLOSE_FRACTION = 0.16

# Plausible per-formant frequency ranges (Hz) for random trajectories.
FORMANT_RANGES = ((250.0, 900.0), (900.0, 2300.0), (1800.0, 3000.0), (2800.0, 3900.0))
BANDWIDTH_RANGE = (40.0, 250.0)
F0_RANGE = (90.0, 220.0)  # Hz, of random_trajectory's Rosenberg source
MIN_FORMANT_SEPARATION = 150.0
# samples between wraps of the frame filter's delay buffer, which keeps it small
_DELAY_RING = 64
# rows per block of the frame filter's transposing multiply, so that a
# block's strided reads stay in cache
_TRANSPOSE_BLOCK = 128


@dataclass(frozen=True)
class TrajectorySpec:
    """Synthesis plan with one row per frame, plus its framing grid and noise seed.

    ``formant_freqs``/``formant_bws`` are (T, I) and ``antiformant_freqs``/
    ``antiformant_bws`` (T, J), in Hz; ``sources`` (T,) names each frame's
    excitation and ``f0_hz`` (T,) its pitch, NaN where it has none.
    ``formant_present``/``antiformant_present`` ((T, I), (T, J), all true when
    omitted) say which tracks are audible in a frame: absent tracks keep
    their reference values but do not enter the filter.
    """

    formant_freqs: np.ndarray
    formant_bws: np.ndarray
    antiformant_freqs: np.ndarray
    antiformant_bws: np.ndarray
    sources: np.ndarray
    frame_ms: float
    overlap_fraction: float
    sample_rate_hz: float
    seed: int = 0
    f0_hz: np.ndarray | None = None
    formant_present: np.ndarray | None = None
    antiformant_present: np.ndarray | None = None

    def __post_init__(self):
        sources = np.asarray(self.sources, dtype=str)
        if sources.ndim != 1 or sources.size == 0:
            raise ValueError("spec needs at least one frame, each with one source")
        unknown = sorted(set(sources.tolist()) - set(SOURCES))
        if unknown:
            raise ValueError(f"unknown source {unknown[0]!r}")
        fs = self.sample_rate_hz
        if not 0 < fs < np.inf:
            raise ValueError("sample_rate_hz must be positive and finite")
        if not (np.isfinite(self.frame_ms) and self.frame_length >= 1):
            raise ValueError("frame_ms must span at least one sample")
        if not 0 <= self.overlap_fraction < 1:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "sources", sources)

        for kind in ("formant", "antiformant"):
            freqs = np.asarray(getattr(self, f"{kind}_freqs"), dtype=float)
            bws = np.asarray(getattr(self, f"{kind}_bws"), dtype=float)
            present = getattr(self, f"{kind}_present")
            present = np.ones(freqs.shape, bool) if present is None else np.asarray(present, dtype=bool)
            if freqs.ndim != 2 or freqs.shape[0] != sources.size or not freqs.shape == bws.shape == present.shape:
                raise ValueError(f"{kind} columns must be (frames, tracks) arrays of one shape")
            if not np.all((freqs > 0) & (freqs < fs / 2)):
                raise ValueError(f"{kind} frequencies must lie in (0, sample_rate_hz/2)")
            if not np.all(bws > 0):
                raise ValueError(f"{kind} bandwidths must be positive")
            object.__setattr__(self, f"{kind}_freqs", freqs)
            object.__setattr__(self, f"{kind}_bws", bws)
            object.__setattr__(self, f"{kind}_present", present)

        f0 = np.full(sources.size, np.nan) if self.f0_hz is None else np.asarray(self.f0_hz, dtype=float)
        if f0.shape != sources.shape:
            raise ValueError("f0_hz must hold one value per frame")
        pitched = ~np.isnan(f0)
        if not np.all((f0[pitched] > 0) & (f0[pitched] < fs / 2)):
            raise ValueError("f0_hz must lie in (0, sample_rate_hz/2)")
        if not pitched[sources == "rosenberg"].all():
            raise ValueError("rosenberg source needs a positive f0_hz")
        object.__setattr__(self, "f0_hz", f0)

    @property
    def n_frames(self) -> int:
        return self.sources.size

    @property
    def frame_length(self) -> int:
        return frame_length_and_hop(self.frame_ms, self.overlap_fraction, self.sample_rate_hz)[0]

    @property
    def hop(self) -> int:
        return frame_length_and_hop(self.frame_ms, self.overlap_fraction, self.sample_rate_hz)[1]

    @property
    def n_formants(self) -> int:
        return self.formant_freqs.shape[1]

    @property
    def n_antiformants(self) -> int:
        return self.antiformant_freqs.shape[1]


def _cascade_rows(freqs: np.ndarray, bws: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Monic cascade polynomials (R, 2K+1) of R rows of K resonances each,
    from (R, K) frequencies and bandwidths in Hz; see ``resonator_cascade``.

    The (R, K, 3) second-order sections are formed at once and multiplied
    into the polynomials section by section over all rows.  Each row is the
    same bits as a loop of ``np.convolve(poly, section)``, which needs:

    * r^2 by the libm ``pow`` of a Python float, as a numpy float64 scalar
      squares (an array's ``r*r`` differs on about 0.1 % of sections, its
      ``np.power`` on 7 %);
    * the first section as the polynomial itself;
    * each interior coefficient as ``convolve``'s unrolled sum,
      p[k-2] s2 + p[k-1] s1 + p[k] added left to right;
    * the two 2-term edge coefficients by the dot product ``convolve`` calls
      (BLAS ``ddot``, fused multiply-add on some hosts), reached through a
      stacked (1, 2) @ (2, 1) matmul.
    """
    n_rows, n_sections = freqs.shape
    if n_sections == 0:
        return np.ones((n_rows, 1))
    radius = np.exp(-np.pi * bws / sample_rate_hz)
    sections = np.empty((n_rows, n_sections, 3))
    sections[..., 0] = 1.0
    sections[..., 1] = -2.0 * radius * np.cos(2.0 * np.pi * freqs / sample_rate_hz)
    sections[..., 2] = np.reshape([r**2 for r in radius.ravel().tolist()], radius.shape)
    poly = sections[:, 0]
    for k in range(1, n_sections):
        s1, s2 = sections[:, k, 1:2], sections[:, k, 2:3]
        n = poly.shape[1]
        nxt = np.empty((n_rows, n + 2))
        nxt[:, 0] = poly[:, 0]
        nxt[:, 2:n] = poly[:, :-2] * s2 + poly[:, 1:-1] * s1 + poly[:, 2:]
        # edge dots [p0, p1].[s1, 1] and [p(n-2), p(n-1)].[s2, s1], one matmul per row and edge
        ends = np.stack((poly[:, :2], poly[:, -2:]), axis=1)[:, :, None, :]
        taps = np.stack((sections[:, k, 1::-1], sections[:, k, :0:-1]), axis=1)[..., None]
        nxt[:, [1, n]] = (ends @ taps)[..., 0, 0]
        nxt[:, n + 1] = poly[:, -1] * s2[:, 0]
        poly = nxt
    return poly


def _present_cascades(freqs, bws, present, sample_rate_hz: float) -> np.ndarray:
    """Cascade polynomials (R, 2K+1) of the present resonances of each row of
    (R, I) columns, zero past a row's own order, K the most present in a row.
    Rows are grouped by their count of present tracks: padding an absent
    track with the section [1, 0, 0] would change the bits of the edges."""
    counts = present.sum(axis=1)
    out = np.zeros((len(counts), 2 * counts.max(initial=0) + 1))
    for k in np.unique(counts).tolist():
        rows = counts == k
        kept = present[rows]
        shape = (kept.shape[0], k)
        out[rows, : 2 * k + 1] = _cascade_rows(
            freqs[rows][kept].reshape(shape), bws[rows][kept].reshape(shape), sample_rate_hz
        )
    return out


def resonator_cascade(freqs, bws, sample_rate_hz: float) -> np.ndarray:
    """Monic polynomial, in powers of z^-1, of a cascade of second-order
    digital resonators, one per (frequency, bandwidth) pair in Hz.

    Each resonance (f, b) contributes the section
    1 - 2 exp(-pi b/fs) cos(2 pi f/fs) z^-1 + exp(-2 pi b/fs) z^-2.  The
    formants' cascade is a synthesis filter's denominator, the
    antiformants' its numerator; no pairs give [1].  The one-row call of
    ``_cascade_rows``: the same bits as convolving the sections in order.
    """
    freqs = np.asarray(freqs, dtype=float).reshape(1, -1)
    return _cascade_rows(freqs, np.asarray(bws, dtype=float).reshape(freqs.shape), sample_rate_hz)[0]


def rosenberg_source(
    f0_per_frame,
    frame_length: int,
    sample_rate_hz: float,
    hop: int | None = None,
) -> np.ndarray:
    """Phase-continuous glottal pulse train covering a whole frame grid.

    Each period opens for 40 % of the cycle (cubic rise to unit peak),
    closes for the next 16 % (quadratic fall), and stays at zero for the
    remainder.  Frame t controls f0 over samples [t*hop, (t+1)*hop).
    """
    f0 = np.atleast_1d(np.asarray(f0_per_frame, dtype=float))
    if np.any(f0 >= sample_rate_hz / 2.0):
        raise ValueError("f0 must be below the Nyquist rate")
    if np.any(f0 <= 0):
        raise ValueError("f0 must be positive")
    hop = frame_length if hop is None else hop
    total = (f0.size - 1) * hop + frame_length
    seg_idx = np.minimum(np.arange(total) // hop, f0.size - 1)
    inc = f0[seg_idx] / sample_rate_hz
    # phase of sample m is the accumulated increment up to (not including) m
    cycles = np.concatenate(([0.0], np.cumsum(inc[:-1])))
    phase = cycles - np.floor(cycles)  # as % 1.0 for these non-negative values, and faster

    out = np.zeros(total)
    opening = phase < OPEN_FRACTION
    u = phase[opening] / OPEN_FRACTION
    out[opening] = 3.0 * u**2 - 2.0 * u**3
    closing = (phase >= OPEN_FRACTION) & (phase < OPEN_FRACTION + CLOSE_FRACTION)
    v = (phase[closing] - OPEN_FRACTION) / CLOSE_FRACTION
    out[closing] = 1.0 - v**2
    return out


def _filter_rows(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter each row of ``x`` (R, n) by its own b[r](z)/a[r](z), from
    zero state, all rows at once; ``b`` (R, nb+1) and ``a`` (R, na+1) hold
    each row's coefficients, zero past its own order, and every a[r] is
    monic.

    The recursion is ``scipy.signal.lfilter``'s direct form II transposed
    in its operation order: y = z0 + b0 x, then
    z[j] = (z[j+1] + x b[j+1]) - y a[j+1].  The products x b of every sample
    are formed before the sample loop, sample-major and in blocks of
    ``_TRANSPOSE_BLOCK`` rows, and the numerator update is skipped
    when every row is all-pole (nb = 0).  A coefficient past a row's own
    order is zero, which can change only the sign of a zero, so each row is
    the same bits as ``lfilter(b[r], a[r], x[r])`` wherever a[r] has a pole
    (a row without one gets its FIR output to rounding).  The delays of
    sample m are rows o..o+order of one buffer, o = m mod ``_DELAY_RING``,
    so the shift of the delay line is a moving offset, not a copy; when the
    offset wraps, the live delays are copied back to the front.
    """
    nb, na = b.shape[1] - 1, a.shape[1] - 1
    order = max(nb, na)
    xb = np.empty((x.shape[1], nb + 1, len(x)))
    for lo in range(0, len(x), _TRANSPOSE_BLOCK):
        rows = slice(lo, lo + _TRANSPOSE_BLOCK)
        np.multiply(x[rows].T[:, None, :], b[rows].T, out=xb[:, :, rows])
    ys = xb[:, 0]  # y of sample m overwrites its x b0
    a = np.ascontiguousarray(a.T[1:])
    ya = np.empty_like(a)
    z = np.zeros((_DELAY_RING + order, len(x)))
    for m, (xbm, ym) in enumerate(zip(xb, ys)):
        o = m % _DELAY_RING
        if o == 0 and m:
            z[:order] = z[_DELAY_RING:]
            z[order:] = 0.0
        np.add(z[o], xbm[0], out=ym)
        np.multiply(ym, a, out=ya)
        if nb:
            z[o + 1 : o + 1 + nb] += xbm[1:]
        z[o + 1 : o + 1 + na] -= ya
    return ys.T


def synthesize(spec: TrajectorySpec) -> tuple[Waveform, TrackResult]:
    """Overlap-add synthesis of a trajectory spec.

    Every frame's source segment is filtered with zero initial filter state,
    multiplied by a periodic Hann window, and summed at 50 % (or the spec's)
    overlap.  Silence frames contribute zeros.  Returns the waveform and the
    ground-truth tracks aligned to the same frame grid.

    No step loops over frames in Python, and the samples are the same bits
    as filtering each speech frame with ``scipy.signal.lfilter`` by the
    ``np.convolve`` cascades of its present resonances and adding the
    windowed frames one by one in ascending order:

    * the cascades of all frames come from ``_present_cascades`` (see
      ``_cascade_rows`` for what keeps them bit-equal to ``convolve``), and
      all frames are filtered in one ``_filter_rows`` call; a silence frame
      is filtered from zero excitation, so it adds only zeros;
    * the overlap-add works in chunks of one hop: a sample takes its frames
      in ascending t, which is descending chunk c = offset // hop, so chunk c
      of every windowed frame is added at once, from the last chunk down to
      the first.  Within one chunk the target ranges do not overlap.
    """
    length = spec.frame_length
    hop = spec.hop
    n_frames = spec.n_frames
    total = (n_frames - 1) * hop + length
    fs = spec.sample_rate_hz

    rng = np.random.default_rng(spec.seed)
    excitation = {}
    if (spec.sources == "white_noise").any():
        excitation["white_noise"] = rng.standard_normal(total)
    if (spec.sources == "rosenberg").any():
        flow = rosenberg_source(np.where(np.isnan(spec.f0_hz), 100.0, spec.f0_hz), length, fs, hop=hop)
        # radiated pressure excitation: first difference of the glottal flow
        excitation["rosenberg"] = np.diff(flow, prepend=0.0)

    segments = np.zeros((n_frames, length))  # silence frames: no excitation, zero output
    for name, signal in excitation.items():
        rows = spec.sources == name
        segments[rows] = sliding_window_view(signal, length)[::hop][rows]
    dens = _present_cascades(spec.formant_freqs, spec.formant_bws, spec.formant_present, fs)
    nums = _present_cascades(spec.antiformant_freqs, spec.antiformant_bws, spec.antiformant_present, fs)
    # windowed frames as columns, (length, n_frames), and the output as hop-long columns
    frames = _filter_rows(nums, dens, segments).T * _periodic_window("hanning", length)[:, None]
    n_chunks = -(-length // hop)
    out = np.zeros((hop, n_frames + n_chunks))
    for c in reversed(range(n_chunks)):
        chunk = frames[c * hop : (c + 1) * hop]
        out[: len(chunk), c : c + n_frames] += chunk
    out = out.T.reshape(-1)[:total]

    peak = np.abs(out).max()
    if peak > 0:
        out *= 0.9 / peak

    columns = state_columns(spec.n_formants, spec.n_antiformants)
    dim = columns[-1].stop
    means = np.empty((n_frames, dim))
    blocks = spec.formant_freqs, spec.formant_bws, spec.antiformant_freqs, spec.antiformant_bws
    for cols, block in zip(columns, blocks):
        means[:, cols] = block
    activation = TrackActivation(spec.formant_present, spec.antiformant_present)
    speech = spec.sources != "silence"
    covs = np.zeros((n_frames, dim, dim))
    reference = _make_result(means, covs, speech, activation, n_cepstra=0, sample_rate_hz=fs, hop_s=hop / fs)
    return Waveform(out, fs), reference


def _keyframe_grid(n_frames: int, hop_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Frame times and the keyframe times, ~0.4 s apart, spanning them."""
    times = np.arange(n_frames) * hop_s
    n_keys = max(2, int(round(times[-1] / 0.4)) + 1)
    return times, np.linspace(0.0, max(times[-1], hop_s), n_keys)


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes (K,) of a monotone cubic (Fritsch-Carlson) through knots
    spaced ``h`` (K-1,) with secant slopes ``m`` (K-1,), by the operations
    of ``scipy.interpolate.PchipInterpolator``: the weighted harmonic mean
    of the neighbouring secants inside, zero where they differ in sign or
    one is zero, and a one-sided three-point estimate at each end, zeroed
    when its sign differs from the end secant's and capped at three times
    that secant where the two secants at that end differ in sign.  Two
    knots get the one secant at both."""
    if m.size == 1:
        return np.concatenate((m, m))
    d = np.zeros(m.size + 1)
    flat_or_turn = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat_or_turn] = 1.0 / whmean[~flat_or_turn]
    for end, far in ((0, 1), (-1, -2)):
        h0, h1, m0, m1 = h[end], h[far], m[end], m[far]
        edge = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(edge) != np.sign(m0):
            edge = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(edge) > 3.0 * abs(m0):
            edge = 3.0 * m0
        d[end] = edge
    return d


def _pchip(knots: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Piecewise cubic Hermite interpolant through (``knots``, ``values``)
    with ``_pchip_slopes``, evaluated ``at`` (extrapolating past either end
    with the end piece): the same bits as
    ``scipy.interpolate.PchipInterpolator(knots, values)(at)``, as its
    ``PPoly`` forms the piece coefficients and sums their terms in
    ascending powers."""
    h = np.diff(knots)
    m = np.diff(values) / h
    d = _pchip_slopes(h, m)
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = t / h, (m - d[:-1]) / h - t, d[:-1], values[:-1]
    k = np.clip(np.searchsorted(knots, at, side="right") - 1, 0, h.size - 1)
    s = at - knots[k]
    s2 = s * s
    return ((c0[k] + c1[k] * s) + c2[k] * s2) + c3[k] * (s2 * s)


def _smooth_contour(rng, n_frames: int, hop_s: float, lo: float, hi: float) -> np.ndarray:
    """Piecewise-smooth random contour: pchip through keyframes ~0.4 s apart."""
    times, key_t = _keyframe_grid(n_frames, hop_s)
    key_v = rng.uniform(lo, hi, key_t.size)
    return _pchip(key_t, key_v, times)


def random_trajectory(
    n_formants: int,
    duration_s: float,
    seed: int,
    sample_rate_hz: float,
    source: str = "white_noise",
    frame_ms: float = 20.0,
    overlap_fraction: float = 0.5,
) -> TrajectorySpec:
    """Random piecewise-smooth formant trajectories for a desk-scale corpus.

    Frequencies stay inside per-formant plausible ranges with ascending
    order and at least 150 Hz separation; bandwidths stay in [40, 250] Hz.
    Deterministic for a fixed seed.  A frequency at or above the Nyquist
    rate is rejected, so four formants need a sample rate of 7.8 kHz or more.
    ``duration_s`` must be finite and positive, and ``n_formants`` at most
    four, one per defined range.
    """
    if not 0 <= n_formants <= len(FORMANT_RANGES):
        raise ValueError(f"n_formants must be in 0..{len(FORMANT_RANGES)}")
    if not (np.isfinite(duration_s) and duration_s > 0):
        raise ValueError("duration_s must be finite and positive")
    fs = sample_rate_hz
    length, hop = frame_length_and_hop(frame_ms, overlap_fraction, fs)
    n_frames = max(1, 1 + int(round((duration_s * fs - length) / hop)))
    hop_s = hop / fs

    rng = np.random.default_rng(seed)
    freqs = np.zeros((n_frames, n_formants))
    bws = np.zeros((n_frames, n_formants))
    times, key_t = _keyframe_grid(n_frames, hop_s)
    n_keys = key_t.size
    # sample keyframes jointly with a comfortable gap so neighboring
    # resonances do not merge into a single spectral mass
    key_f = np.zeros((n_keys, n_formants))
    for k in range(n_formants):
        lo, hi = FORMANT_RANGES[k]
        if k > 0:
            lo_vec = np.maximum(lo, key_f[:, k - 1] + 2 * MIN_FORMANT_SEPARATION)
        else:
            lo_vec = np.full(n_keys, lo)
        key_f[:, k] = rng.uniform(lo_vec, np.maximum(lo_vec + 1.0, hi))
    for k in range(n_formants):
        freqs[:, k] = _pchip(key_t, key_f[:, k], times)
        bws[:, k] = _smooth_contour(rng, n_frames, hop_s, *BANDWIDTH_RANGE)
    for k in range(1, n_formants):
        lo, hi = FORMANT_RANGES[k]
        floor = np.maximum(freqs[:, k - 1] + MIN_FORMANT_SEPARATION, lo)
        freqs[:, k] = np.maximum(freqs[:, k], floor)

    f0 = _smooth_contour(rng, n_frames, hop_s, *F0_RANGE) if source == "rosenberg" else None
    no_tracks = np.zeros((n_frames, 0))
    return TrajectorySpec(
        freqs, bws, no_tracks, no_tracks, np.full(n_frames, source), frame_ms, overlap_fraction, fs, seed, f0
    )


def nasal_utterance_spec(seed: int = 715) -> TrajectorySpec:
    """Nasal-vowel-nasal demo utterance with a known antiformant.

    Three 25-frame segments (nasal, open vowel, nasal) of 100 ms frames at
    10 kHz with 50 % overlap and a declining-pitch glottal source.  The
    nasal segments carry two formants at 257 Hz (32 Hz) and 1891 Hz
    (100 Hz) plus one antiformant at 1223 Hz (52 Hz); the vowel uses
    850 Hz (80 Hz) and 1500 Hz (120 Hz) with the antiformant absent.
    Segment boundaries interpolate linearly over 5 frames; every frequency
    follows a seeded random walk (std 10 Hz per frame) while bandwidths get
    independent per-frame jitter around their nominal values (std 10/3 Hz,
    floored at 8 Hz) so resonances stay observable.  A frequency that
    walks below 50 Hz is reflected about 50 Hz (F1 does on 7 of seeds
    0-2999, the first 155; never on seeds 700-739, whose lowest F1 is
    122 Hz), so every seed gives a valid spec.
    """
    n_segment_frames, transition_frames, walk_std_hz, min_freq_hz = 25, 5, 10.0, 50.0
    fs = 10000.0
    nasal_f = np.array([257.0, 1891.0])
    nasal_b = np.array([32.0, 100.0])
    vowel_f = np.array([850.0, 1500.0])
    vowel_b = np.array([80.0, 120.0])
    anti_f, anti_b = 1223.0, 52.0

    n_frames = 3 * n_segment_frames
    segment = np.repeat([0, 1, 0], n_segment_frames)  # 0 = nasal, 1 = vowel

    def blend(a, b):
        """Per-frame values: a in nasal segments, b in vowel, linear transitions."""
        vals = np.where(segment == 0, a, b).astype(float)
        w = np.arange(1, transition_frames + 1) / (transition_frames + 1)
        for boundary in (n_segment_frames, 2 * n_segment_frames):
            vals[boundary : boundary + transition_frames] = (1 - w) * vals[boundary - 1] + w * vals[boundary]
        return vals

    rng = np.random.default_rng(seed)

    def walk(std):
        return np.cumsum(rng.normal(0.0, std, n_frames))

    def jitter(std):
        return rng.normal(0.0, std, n_frames)

    def reflect(freqs):
        return np.where(freqs < min_freq_hz, 2.0 * min_freq_hz - freqs, freqs)

    freq_tracks = reflect(np.column_stack(
        [blend(nasal_f[0], vowel_f[0]) + walk(walk_std_hz), blend(nasal_f[1], vowel_f[1]) + walk(walk_std_hz)]
    ))
    bw_tracks = np.column_stack(
        [
            np.maximum(blend(nasal_b[0], vowel_b[0]) + jitter(walk_std_hz / 3.0), 8.0),
            np.maximum(blend(nasal_b[1], vowel_b[1]) + jitter(walk_std_hz / 3.0), 8.0),
        ]
    )
    anti_freq = reflect(anti_f + walk(walk_std_hz))
    anti_bw = np.maximum(anti_b + jitter(walk_std_hz / 3.0), 8.0)
    return TrajectorySpec(
        freq_tracks,
        bw_tracks,
        anti_freq[:, None],
        anti_bw[:, None],
        np.full(n_frames, "rosenberg"),
        frame_ms=100.0,
        overlap_fraction=0.5,
        sample_rate_hz=fs,
        seed=seed,
        f0_hz=np.linspace(128.0, 96.0, n_frames),
        antiformant_present=(segment == 0)[:, None],
    )


def nasal_demo_config() -> RunConfig:
    """The nasal demo's analysis: ARMA(6,4) on the demo's own frame grid
    (10 kHz, 100 ms frames at 50 % overlap), pre-emphasis 0.9, two formants
    and one antiformant.  A fresh config on each call, since ``RunConfig``
    is mutable."""
    return RunConfig(
        target_sample_rate_hz=10000.0,
        frame_ms=100.0,
        overlap=0.5,
        gamma=0.9,
        lpc_order=6,
        ma_order=4,
        n_cepstra=15,
        n_formants=2,
        n_antiformants=1,
    )


def spec_to_json(spec: TrajectorySpec) -> dict:
    """Plain-dict form of a trajectory spec, one entry per frame (schema documented in README)."""
    frames = []
    for t, source in enumerate(spec.sources.tolist()):
        entry = {"source": source}
        for key in TRACK_COLUMNS:
            entry[key] = getattr(spec, key)[t].tolist()
        if not np.isnan(spec.f0_hz[t]):
            entry["f0_hz"] = float(spec.f0_hz[t])
        for key in ("formant_present", "antiformant_present"):
            if not getattr(spec, key)[t].all():
                entry[key] = getattr(spec, key)[t].tolist()
        frames.append(entry)
    return {
        "sample_rate_hz": spec.sample_rate_hz,
        "frame_ms": spec.frame_ms,
        "overlap_fraction": spec.overlap_fraction,
        "seed": spec.seed,
        "frames": frames,
    }


def spec_from_json(data: dict) -> TrajectorySpec:
    """Columnar spec from the per-frame dict form; a malformed one raises ``ValueError``."""
    try:
        frames = data["frames"]

        def column(key, default, dtype=float):
            return np.array([entry.get(key, default) for entry in frames], dtype=dtype)

        tracks = {key: column(key, []) for key in TRACK_COLUMNS}
        n_formants, n_antiformants = tracks["formant_freqs"].shape[-1], tracks["antiformant_freqs"].shape[-1]
        return TrajectorySpec(
            **tracks,
            sources=column("source", "white_noise", str),
            frame_ms=float(data["frame_ms"]),
            overlap_fraction=float(data["overlap_fraction"]),
            sample_rate_hz=float(data["sample_rate_hz"]),
            seed=data.get("seed", 0),
            f0_hz=column("f0_hz", None),
            formant_present=column("formant_present", [True] * n_formants, bool),
            antiformant_present=column("antiformant_present", [True] * n_antiformants, bool),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"invalid trajectory spec: {exc}") from exc


def load_spec(path) -> TrajectorySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def save_spec(spec: TrajectorySpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=1)
        fh.write("\n")
