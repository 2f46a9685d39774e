"""Waveform I/O, framing, pre-emphasis, resampling, and speech-activity detection.

The analysis front end turns a mono PCM waveform into windowed,
pre-emphasized short-time frames plus a per-frame speech-activity mask.
Every function returns new arrays, except ``preemphasize`` given an
``out=``, which may be its input.

Memory: the resampler and the framer are generators.  ``_resampled``
hands out the resampled signal a chunk at a time, and ``_frame_blocks``
turns such chunks into windowed frames, a block of rows of at most
``_BLOCK_BYTES`` (and at least one row) at a time, holding only the
samples of the frames it has not yet handed out.  ``resample`` and
``window_frames`` join them into whole arrays; the tracking pipeline
instead runs over the blocks twice (activity, then observations), so it
holds neither the resampled signal nor a (T, L) frame matrix.  The other
functions make only their result at full size and their temporaries a
block of rows at a time.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Waveform",
    "FrameSequence",
    "LabelInterval",
    "frame_length_and_hop",
    "window_frames",
    "preemphasize",
    "read_wav",
    "write_wav",
    "resample",
    "detect_activity",
    "read_label_file",
    "activity_from_labels",
    "DEFAULT_SILENCE_LABELS",
]

# TIMIT-style pause, closure-interval, and glottal-stop labels treated as silence.
DEFAULT_SILENCE_LABELS = frozenset(
    {"pau", "epi", "h#", "bcl", "dcl", "gcl", "pcl", "tcl", "kcl", "q"}
)

# Periodic (DFT-even) windows so 50 % overlap-add sums to a constant: the
# coefficients a_k of each kind's cosine sum, sum_k a_k cos(k x).
_WINDOWS = {"hamming": (0.54, 1.0 - 0.54), "hanning": (0.5, 0.5), "rectangular": (1.0,)}

# Multiply-adds per matrix product in the resampler, below OpenBLAS's
# threshold for threading one (4 * 65536).
_GEMM_WORK = 1 << 16

# Byte budget of one block of rows: the framer's frame blocks (the squared
# frames of detect_activity), a quarter of it for the resampler's input
# groups, preemphasize's shifted products, the real cepstrum's FFT blocks
# and the frames the parametric route gathers.
_BLOCK_BYTES = 1 << 20


def _row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, each of as many rows of
    ``row_bytes`` bytes as fit in ``_BLOCK_BYTES``, and at least one row."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _join(pieces: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out``, filled along its first axis with the consecutive ``pieces``."""
    at = 0
    for piece in pieces:
        out[at : at + len(piece)] = piece
        at += len(piece)
    return out


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples (dimensionless amplitude) with their sampling rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).ravel()
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSequence:
    """Short-time frames of a waveform, one row per frame."""

    frames: np.ndarray  # (n_frames, frame_length)
    frame_length: int
    hop: int
    sample_rate_hz: float

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_length):
            raise ValueError("hop must satisfy 0 < hop <= frame_length")
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != self.frame_length:
            raise ValueError("frames must be (n_frames, frame_length)")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def hop_s(self) -> float:
        return self.hop / self.sample_rate_hz


@dataclass(frozen=True)
class LabelInterval:
    """One line of a label file: a half-open sample span and its label."""

    start_sample: int
    end_sample: int
    label: str


def frame_length_and_hop(frame_ms: float, overlap_fraction: float, sample_rate_hz: float) -> tuple[int, int]:
    """Samples per frame, round(frame_ms * fs / 1000), and per hop,
    round(frame_length * (1 - overlap_fraction)) but at least one: the one
    framing formula, shared by analysis, synthesis and config checks.
    A non-finite frame length (a huge ``frame_ms`` overflows) raises
    ``ValueError``."""
    samples = frame_ms * 1e-3 * sample_rate_hz
    if not math.isfinite(samples):
        raise ValueError("frame_ms yields a non-finite frame length")
    frame_length = int(round(samples))
    return frame_length, max(1, int(round(frame_length * (1.0 - overlap_fraction))))


def _periodic_window(kind: str, length: int) -> np.ndarray:
    """Periodic cosine-sum window of ``length`` samples, by the operations of
    ``scipy.signal.get_window(..., fftbins=True)``, so its values are the same bits."""
    if length <= 1:
        return np.ones(length)
    fac = np.linspace(-np.pi, np.pi, length + 1)
    w = np.zeros(length + 1)
    for k, a in enumerate(_WINDOWS[kind]):
        w += a * np.cos(k * fac)
    return w[:-1]


def window_frames(
    w: Waveform,
    frame_ms: float,
    overlap_fraction: float,
    window_kind: str = "hamming",
) -> FrameSequence:
    """Split ``w`` into overlapping frames and apply the analysis window.

    Frame t covers samples [t*hop, t*hop + frame_length).  A trailing
    partial frame, if any samples remain uncovered, is zero padded rather
    than dropped so track lengths match spectrogram conventions.  The
    frame matrix is the join of ``_frame_blocks`` over the samples.
    """
    if not 0 <= overlap_fraction < 1:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if window_kind not in _WINDOWS:
        raise ValueError(f"unknown window kind {window_kind!r}")
    frame_length, hop = frame_length_and_hop(frame_ms, overlap_fraction, w.sample_rate_hz)
    if frame_length < 1:
        raise ValueError("frame_ms yields no samples at this rate")
    n_frames = _frame_count(w.samples.size, frame_length, hop)
    frames = np.empty((n_frames, frame_length))
    for rows, block in _frame_blocks((w.samples,), n_frames, frame_length, hop, window_kind):
        frames[rows] = block
    return FrameSequence(frames, frame_length, hop, w.sample_rate_hz)


def _frame_count(n_samples: int, frame_length: int, hop: int) -> int:
    """Frames ``window_frames`` makes of ``n_samples`` samples: the full
    frames, plus a zero-padded tail frame when samples remain uncovered.
    Fewer samples than one frame raise ``ValueError("input too short")``."""
    if n_samples < frame_length:
        raise ValueError("input too short")
    n_full = (n_samples - frame_length) // hop + 1
    return n_full + int((n_full - 1) * hop + frame_length < n_samples)


def _padded(pieces: Iterable[np.ndarray], n_samples: int) -> Iterator[np.ndarray]:
    """The first ``n_samples`` samples of the consecutive ``pieces``, as
    views of them, then zeros up to ``n_samples`` samples in all."""
    left = n_samples
    for piece in pieces:
        piece = piece[:left]
        left -= piece.size
        yield piece
    yield np.zeros(left)


def _frame_blocks(
    pieces: Iterable[np.ndarray], n_frames: int, frame_length: int, hop: int, window_kind: str
) -> Iterator[tuple[slice, np.ndarray]]:
    """The ``n_frames`` windowed frames of the signal that the consecutive
    sample chunks ``pieces`` make up, as (rows, block) pairs in time order:
    ``block`` holds the frames ``rows``, at most ``_BLOCK_BYTES`` of them
    (and at least one row), and the zero-padded tail frame comes last.

    Every block is a view of one array that the next block overwrites, so a
    caller may change a block in place and must copy what it keeps.  Each
    chunk's frames are windowed into the block as the chunk arrives; only
    the samples of the frame not yet complete (fewer than L) are carried
    to the next chunk.  So the framer holds one block and about one chunk,
    whatever the signal's length.
    """
    window = _periodic_window(window_kind, frame_length)
    block = np.empty((min(n_frames, max(1, _BLOCK_BYTES // (8 * frame_length))), frame_length))
    done, filled = 0, 0  # frames handed out, and rows of ``block`` filled since
    buf = np.empty(0)  # the samples from frame done + filled's first on
    for piece in _padded(pieces, (n_frames - 1) * hop + frame_length):
        buf = np.concatenate((buf, piece)) if buf.size else piece
        while done + filled < n_frames and buf.size >= frame_length:
            k = min(len(block) - filled, n_frames - done - filled, (buf.size - frame_length) // hop + 1)
            frames = sliding_window_view(buf[: (k - 1) * hop + frame_length], frame_length)[::hop]
            np.multiply(frames, window, out=block[filled : filled + k])
            buf, filled = buf[k * hop :], filled + k
            if filled == len(block) or done + filled == n_frames:
                yield slice(done, done + filled), block[:filled]
                done, filled = done + filled, 0


def preemphasize(frame: np.ndarray, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """First-difference high-pass: out[m] = in[m] - gamma*in[m-1], with in[-1] = 0.

    Works on a single frame or on a stack of frames (last axis = time).
    The result goes to ``out`` when given (an array of the input's shape,
    which may be the input itself), else to a new array; a stack is
    filtered in blocks of rows of at most a quarter of ``_BLOCK_BYTES``,
    so filtering a frame block in place adds at most a quarter block.
    """
    if abs(gamma) > 1:
        raise ValueError("|gamma| must be <= 1")
    x = np.asarray(frame, dtype=float)
    if out is None:
        out = np.empty_like(x)
    stack, dest = (x, out) if x.ndim > 1 else (x[None], out[None])
    for rows in _row_blocks(len(stack), 4 * stack[:1].nbytes):  # a quarter of the budget
        xb, ob = stack[rows], dest[rows]
        ob[..., :1] = xb[..., :1]
        np.subtract(xb[..., 1:], gamma * xb[..., :-1], out=ob[..., 1:])
    return out


# WAV format tags: integer PCM, IEEE float, and WAVE_FORMAT_EXTENSIBLE,
# whose sub-format GUID carries one of the other two tags.
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The last eight bytes of a KSDATAFORMAT_SUBTYPE_* GUID.  The tag (32 bits)
# and the 16-bit fields 0x0000 and 0x0010 come first, in the file's byte order.
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_fmt(raw: bytes, order: str, at: int, size: int) -> tuple[int, int, int, int, int]:
    """(format tag, channels, sample rate, bytes per sample, bits per
    sample) of the 'fmt ' chunk whose body starts at ``at``.  An extensible
    format reports the tag in its sub-format GUID."""
    if size < 16:
        raise ValueError("unsupported wav")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", raw, at)
    if tag == _WAVE_EXTENSIBLE and size >= 18:
        if struct.unpack_from(order + "H", raw, at + 16)[0] < 22:
            raise ValueError("unsupported wav")
        guid = raw[at + 24 : at + 40]
        if guid[4:] == struct.pack(order + "HH", 0, 0x0010) + _GUID_TAIL:
            tag = struct.unpack(order + "I", guid[:4])[0]
    if not 1 <= channels <= block_align:
        raise ValueError("unsupported wav")
    return tag, channels, rate, block_align // channels, bits


def _wav_samples(data, order: str, tag: int, width: int, bits: int) -> np.ndarray:
    """The samples in the bytes ``data``, scaled as ``read_wav`` documents."""
    if tag == _WAVE_FLOAT and bits in (32, 64) and width in (4, 8):
        return np.frombuffer(data, f"{order}f{width}").astype(float)
    if tag != _WAVE_PCM or width > 4 or (width == 1) != (1 <= bits <= 8):
        raise ValueError("unsupported codec")
    if width == 1:  # 8-bit PCM is unsigned
        return (np.frombuffer(data, np.uint8).astype(float) - 128.0) / 128.0
    if width == 3:  # each sample as the top three bytes of a 32-bit one
        words = np.zeros((len(data) // 3, 4), np.uint8)
        top = words[:, 1:] if order == "<" else words[:, :3]
        top[...] = np.frombuffer(data, np.uint8).reshape(-1, 3)
        return words.view(f"{order}i4")[:, 0] / 2.0**31
    return np.frombuffer(data, f"{order}i{width}") / 2.0 ** (8 * width - 1)


def read_wav(path) -> Waveform:
    """Read a WAV file as a mono waveform: 8-bit unsigned, 16-, 24- or
    32-bit integer PCM, or 32- or 64-bit float, plain or
    WAVE_FORMAT_EXTENSIBLE, in a RIFF, RIFX (big-endian) or RF64 file.

    Integer samples are scaled to [-1, 1) (24-bit ones as the top three
    bytes of a 32-bit sample); float samples are kept as they are.
    Channels are averaged.  Chunks other than 'fmt ' and 'data' are
    skipped, and a data chunk cut short by the end of the file yields the
    whole sample frames it holds.  A file that is not a WAV file, or whose
    header is cut short, raises ``ValueError("unsupported wav")``; any
    other sample format raises ``ValueError("unsupported codec")``.
    """
    raw = Path(path).read_bytes()
    try:
        magic, _, form = struct.unpack_from("<4sI4s", raw)
        if magic not in (b"RIFF", b"RIFX", b"RF64") or form != b"WAVE":
            raise ValueError("unsupported wav")
        order = ">" if magic == b"RIFX" else "<"
        at = 12
        if magic == b"RF64":  # a ds64 chunk first: the 64-bit sizes, the data's second
            cid, size, _, rf64_size = struct.unpack_from("<4sIQQ", raw, at)
            if cid != b"ds64":
                raise ValueError("unsupported wav")
            at += 8 + size + (size & 1)
        fmt = None
        while True:  # chunk by chunk up to the data; an odd-sized chunk has a pad byte
            cid, size = struct.unpack_from(order + "4sI", raw, at)
            at += 8
            if cid == b"data":
                break
            if cid == b"fmt ":
                fmt = _wav_fmt(raw, order, at, size)
            at += size + (size & 1)
    except struct.error as exc:  # a header cut short, or no data chunk
        raise ValueError("unsupported wav") from exc
    if fmt is None:
        raise ValueError("unsupported wav")
    tag, channels, rate, width, bits = fmt
    if magic == b"RF64":
        size = rf64_size
    n_bytes = min(size, len(raw) - at) // (width * channels) * (width * channels)
    samples = _wav_samples(memoryview(raw)[at : at + n_bytes], order, tag, width, bits)
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return Waveform(samples, float(rate))


def write_wav(path, w: Waveform) -> None:
    """Write a waveform as mono 16-bit PCM in a RIFF WAV file, clipping to
    the representable range: a 44-byte header, then the samples."""
    scaled = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    rate = int(round(w.sample_rate_hz))
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + scaled.nbytes, b"WAVE",
        b"fmt ", 16, _WAVE_PCM, 1, rate, 2 * rate, 2, 16,
        b"data", scaled.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.tobytes())


def _kaiser_lowpass(cutoff_hz: float, width_hz: float, fs: float) -> np.ndarray:
    """Linear-phase Kaiser-window low-pass FIR with unit DC gain, the design
    of ``scipy.signal.kaiserord`` and ``firwin``: 75 dB of stop-band
    attenuation over a ``width_hz`` transition centred on ``cutoff_hz``,
    and an odd number of taps."""
    nyq = 0.5 * fs
    atten = 75.0
    beta = 0.1102 * (atten - 8.7)  # Kaiser's beta for an attenuation above 50 dB
    n_taps = math.ceil((atten - 7.95) / 2.285 / (np.pi * (width_hz / nyq)) + 1) | 1
    c = (cutoff_hz - width_hz / 2.0) / nyq
    m = np.arange(n_taps) - 0.5 * (n_taps - 1)
    h = c * np.sinc(c * m) * np.kaiser(n_taps, beta)
    return h / h.sum()


def _polyphase_chunks(x: np.ndarray, h: np.ndarray, up: int, down: int) -> Iterator[np.ndarray]:
    """Upsample ``x`` by ``up``, filter with ``h`` scaled by ``up``, keep every
    ``down``-th sample: y[j] = up * sum_i x[i] h[j*down + half - i*up], with
    half = (len(h) - 1) // 2, for the ceil(len(x)*up/down) samples of
    ``scipy.signal.resample_poly``, centred as it centres them.  The output
    comes a chunk at a time, each chunk a new array.

    With j = b*up + u and i = c*down + d, the tap index is
    (b - c)*up*down + u*down - d*up + half, so output block b (``up``
    samples) is the sum over block shifts s = b - c of input block b - s
    (``down`` samples) times a (down, up) tap matrix G_s: one batched
    matmul per shift, about len(h)/(up*down) + 2 of them, over each chunk
    of block groups.  A chunk gathers its own zero-padded input blocks, at
    most a quarter of ``_BLOCK_BYTES`` of them, so that a chunk's input and
    output sit beside a frame block of ``_frame_blocks`` within about the
    block budget; the input is let go before the chunk is handed out.
    """
    n_taps, half, span = h.size, (h.size - 1) // 2, up * down
    n_out = -(-x.size * up // down)
    n_blocks = -(-n_out // up)
    s_lo = -((half + (up - 1) * down) // span)  # the shifts that reach a tap
    s_hi = (n_taps - 1 - half + (down - 1) * up) // span
    taps = np.arange(s_lo, s_hi + 1)[:, None, None] * span + (
        np.arange(up) * down - np.arange(down)[:, None] * up + half
    )
    inside = (taps >= 0) & (taps < n_taps)
    g = np.where(inside, up * h[np.clip(taps, 0, n_taps - 1)], 0.0)  # (shifts, down, up)
    # Blocks go through in groups small enough that BLAS runs each product
    # on one thread: a threaded product this small is slower, and far
    # slower on a busy host.
    group = max(1, _GEMM_WORK // span)
    for chunk in _row_blocks(-(-n_blocks // group), 4 * 8 * group * down):  # 4 x a group's input rows
        n_groups = chunk.stop - chunk.start
        n_rows = n_groups * group
        # input blocks b - s for this chunk's output blocks b and every shift s, zeros outside x
        first = (chunk.start * group - s_hi) * down  # the sample in row 0
        rows = np.zeros((n_rows + s_hi - s_lo, down))
        lo, hi = max(first, 0), min(first + rows.size, x.size)
        rows.reshape(-1)[lo - first : hi - first] = x[lo:hi]
        y = np.zeros((n_groups, group, up))
        for k, s in enumerate(range(s_lo, s_hi + 1)):
            y += rows[s_hi - s : s_hi - s + n_rows].reshape(n_groups, group, down) @ g[k]
        del rows
        yield y.reshape(-1)[: n_out - chunk.start * group * up]


def _resampled_length(w: Waveform, target_hz: float) -> int:
    """Samples of ``w`` resampled to ``target_hz``: round(len * target / source)."""
    return int(round(w.samples.size * target_hz / w.sample_rate_hz))


def _resampled(w: Waveform, target_hz: float) -> Iterator[np.ndarray]:
    """``resample``'s output samples, a chunk at a time (views of
    ``w.samples`` when the reduced rate ratio is 1)."""
    ratio = Fraction(target_hz / w.sample_rate_hz).limit_denominator(1000)
    up, down = ratio.numerator, ratio.denominator
    if up == down:
        pieces = (w.samples,)
    else:
        cutoff = 0.5 * min(w.sample_rate_hz, target_hz)
        fir = _kaiser_lowpass(cutoff, 0.10 * cutoff, w.sample_rate_hz * up)
        pieces = _polyphase_chunks(w.samples, fir, up, down)
    return _padded(pieces, _resampled_length(w, target_hz))


def resample(w: Waveform, target_hz: float) -> Waveform:
    """Band-limited polyphase resampling to ``target_hz``.

    The rate ratio is approximated as up/down with down at most 1000.  The
    anti-aliasing filter is a Kaiser-window low-pass at the upsampled rate
    (``_kaiser_lowpass``): content above the smaller Nyquist rate is
    attenuated by at least 75 dB, over a transition 10 % of that rate wide.
    ``_polyphase_chunks`` applies it in blocks, as a few small matmuls over
    the whole signal, with ``scipy.signal.resample_poly``'s centring; the
    two agree to rounding.  Output length is round(len * target / source),
    trimmed or zero padded.  The result is the join of ``_resampled``.
    """
    if target_hz <= 0:
        raise ValueError("target rate must be positive")
    y = _join(_resampled(w, target_hz), np.empty(_resampled_length(w, target_hz)))
    return Waveform(y, float(target_hz))


def _activity_of_blocks(
    blocks: Iterable[tuple[slice, np.ndarray]], n_frames: int, threshold_db: float
) -> np.ndarray:
    """``detect_activity``'s mask from the frames of ``n_frames`` (rows,
    block) pairs, each block squared in place: frame RMS in dB relative to
    the loudest frame of them all."""
    rms = np.empty(n_frames)
    for rows, block in blocks:
        rms[rows] = np.mean(np.square(block, out=block), axis=1)
    np.sqrt(rms, out=rms)
    ref = rms.max() if rms.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.where(rms > 0, 20.0 * np.log10(rms / ref) if ref > 0 else -np.inf, -np.inf)
    return db >= threshold_db


def detect_activity(frames: FrameSequence, threshold_db: float = -40.0) -> np.ndarray:
    """Energy-based activity, (T,) bool: frame RMS in dB relative to the loudest frame.
    The frames are squared a block of rows at a time."""
    x = frames.frames
    blocks = ((rows, x[rows].copy()) for rows in _row_blocks(len(x), x[:1].nbytes))
    return _activity_of_blocks(blocks, len(x), threshold_db)


def read_label_file(path) -> list[LabelInterval]:
    """Parse 'start_sample end_sample label' lines; blank lines are skipped."""
    intervals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected 'start end label'")
            try:
                start, end = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer sample index") from exc
            intervals.append(LabelInterval(start, end, parts[2]))
    return intervals


def activity_from_labels(
    intervals: list[LabelInterval],
    n_samples: int,
    frame_length: int,
    hop: int,
    n_frames: int,
    sample_scale: float = 1.0,
) -> np.ndarray:
    """Label-based activity, (T,) bool: a frame is silent only if every sample it covers
    lies inside an interval labelled with one of ``DEFAULT_SILENCE_LABELS``.

    ``sample_scale`` rescales label sample indices (use target_rate/source_rate
    when the waveform was resampled after labeling).
    """
    # zero-padded tail samples count as silence
    silent = np.ones(max(n_samples, (n_frames - 1) * hop + frame_length, frame_length), dtype=bool)
    silent[:n_samples] = False
    for iv in intervals:
        if iv.label in DEFAULT_SILENCE_LABELS:
            lo = max(0, int(round(iv.start_sample * sample_scale)))
            hi = min(n_samples, int(round(iv.end_sample * sample_scale)))
            silent[lo:hi] = True
    covered = sliding_window_view(silent, frame_length)[::hop][:n_frames]
    return ~covered.all(axis=1)
