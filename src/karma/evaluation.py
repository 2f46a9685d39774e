"""Error metrics and track-file I/O.

RMSE is computed per formant over speech-labeled frames, with the overall
figure pooled across all counted (formant, frame) pairs.  Tracks round-trip
through a CSV schema with one row per frame:

    time_s,f1..fI,b1..bI,af1..afJ,ab1..abJ,vf1..,vb1..,vaf1..,vab1..,speech

where v-columns are posterior variances (diagonal covariance entries) and
speech is 0/1.  Values are written with six decimal places.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frontend import ActivityMask
from .tracker import TrackResult, _speech_flags

__all__ = ["RmseReport", "rmse", "write_tracks", "read_tracks", "read_vtr_matrix"]


@dataclass(frozen=True)
class RmseReport:
    """Per-formant and pooled frequency RMSE in Hz."""

    per_formant: np.ndarray
    overall: float
    frames_counted: int
    frames_skipped: int

    def as_dict(self) -> dict:
        return {
            "per_formant_hz": [float(v) for v in self.per_formant],
            "overall_hz": float(self.overall),
            "frames_counted": self.frames_counted,
            "frames_skipped": self.frames_skipped,
        }


def _aligned_freqs(estimated, reference, formant_count, offset):
    est = estimated.formant_freqs
    ref = reference.formant_freqs
    if formant_count > min(est.shape[1], ref.shape[1]):
        raise ValueError("formant_count exceeds available tracks")
    if offset is None:
        if est.shape[0] != ref.shape[0]:
            raise ValueError("frame count mismatch; supply an alignment offset")
        offset = 0
    lo_est = max(0, offset)
    lo_ref = max(0, -offset)
    n = min(est.shape[0] - lo_est, ref.shape[0] - lo_ref)
    if n < 1:
        raise ValueError("alignment leaves no overlapping frames")
    sl_est = slice(lo_est, lo_est + n)
    sl_ref = slice(lo_ref, lo_ref + n)
    return est[sl_est, :formant_count], ref[sl_ref, :formant_count], sl_ref, n


def rmse(
    estimated: TrackResult,
    reference: TrackResult,
    mask: ActivityMask | np.ndarray | None = None,
    formant_count: int = 3,
    offset: int | None = None,
) -> RmseReport:
    """Frequency RMSE of ``estimated`` against ``reference`` tracks.

    Only frames where ``mask`` is true are counted (mask indexes reference
    frames).  ``offset`` shifts the estimate relative to the reference and
    trims both to the overlap; without it the frame counts must match.
    Reference entries that are not finite are skipped per formant.
    """
    est, ref, sl_ref, n = _aligned_freqs(estimated, reference, formant_count, offset)
    flags = _speech_flags(mask, reference.n_frames)[sl_ref]
    counted = int(np.count_nonzero(flags))
    if counted == 0:
        raise ValueError("empty evaluation set")

    err = est[flags] - ref[flags]
    usable = np.isfinite(ref[flags])
    per_formant = np.full(formant_count, np.nan)
    pooled = []
    for k in range(formant_count):
        col = err[usable[:, k], k]
        if col.size:
            per_formant[k] = np.sqrt(np.mean(col**2))
            pooled.append(col)
    if not pooled:
        raise ValueError("empty evaluation set")
    pooled = np.concatenate(pooled)
    return RmseReport(
        per_formant=per_formant,
        overall=float(np.sqrt(np.mean(pooled**2))),
        frames_counted=counted,
        frames_skipped=int(n - counted),
    )


def _header(n_formants: int, n_antiformants: int) -> list[str]:
    cols = ["time_s"]
    cols += [f"f{k+1}" for k in range(n_formants)]
    cols += [f"b{k+1}" for k in range(n_formants)]
    cols += [f"af{k+1}" for k in range(n_antiformants)]
    cols += [f"ab{k+1}" for k in range(n_antiformants)]
    cols += [f"vf{k+1}" for k in range(n_formants)]
    cols += [f"vb{k+1}" for k in range(n_formants)]
    cols += [f"vaf{k+1}" for k in range(n_antiformants)]
    cols += [f"vab{k+1}" for k in range(n_antiformants)]
    cols.append("speech")
    return cols


def write_tracks(result: TrackResult, path) -> None:
    """Write a track result to CSV (LF line endings, six decimal places)."""
    table = np.column_stack((result.times, result.means, result.variances, result.speech))
    fmt = ["%.6f"] * (table.shape[1] - 1) + ["%d"]
    header = ",".join(_header(result.n_formants, result.n_antiformants))
    with open(path, "w", encoding="utf-8") as fh:  # a handle: savetxt would gzip a .gz path
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=header, comments="")


def _count_prefixed(cols: list[str], prefix: str) -> int:
    return sum(c.startswith(prefix) and c[len(prefix):].isdigit() for c in cols)


def read_tracks(path) -> TrackResult:
    """Read a track CSV back into a TrackResult (diagonal covariances; the
    sample rate is not stored, so it reads 0)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no frames")
    cols = lines[0].split(",")
    # the f<k> and af<k> columns fix every other column of a valid header
    n_form, n_anti = _count_prefixed(cols, "f"), _count_prefixed(cols, "af")
    expected = _header(n_form, n_anti)
    if cols != expected:
        raise ValueError("header mismatch: formant/antiformant column counts disagree")
    if len(lines) == 1:
        raise ValueError("no frames")

    dim = 2 * (n_form + n_anti)
    n_frames = len(lines) - 1
    means = np.zeros((n_frames, dim))
    variances = np.zeros((n_frames, dim))
    speech = np.zeros(n_frames, dtype=bool)
    times = np.zeros(n_frames)
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(expected):
            raise ValueError(f"line {idx}: expected {len(expected)} fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts[:-1]]
            speech_val = int(parts[-1])
        except ValueError as exc:
            raise ValueError(f"line {idx}: malformed value") from exc
        t = idx - 2
        times[t] = values[0]
        means[t] = values[1 : 1 + dim]
        variances[t] = values[1 + dim : 1 + 2 * dim]
        speech[t] = bool(speech_val)

    hop_s = float(times[1] - times[0]) if n_frames > 1 else 0.01
    covs = np.zeros((n_frames, dim, dim))
    covs[:, np.arange(dim), np.arange(dim)] = variances
    return TrackResult(
        means=means,
        covariances=covs,
        speech=speech,
        formant_active=np.ones((n_frames, n_form), dtype=bool),
        antiformant_active=np.ones((n_frames, n_anti), dtype=bool),
        n_formants=n_form,
        n_antiformants=n_anti,
        n_cepstra=0,
        sample_rate_hz=0.0,
        hop_s=hop_s,
    )


def read_vtr_matrix(path, n_tracks: int = 4, hop_s: float = 0.01) -> TrackResult:
    """Read a reference-database-style matrix of per-frame tracks.

    Each row holds ``n_tracks`` center frequencies followed by ``n_tracks``
    bandwidths, all in kHz, whitespace or comma separated.  Values are
    returned in Hz.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.replace(",", " ").split()
            if not parts:
                continue
            if len(parts) != 2 * n_tracks:
                raise ValueError(f"line {lineno}: expected {2 * n_tracks} values")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed value") from exc
    if not rows:
        raise ValueError("no frames")
    data = np.asarray(rows) * 1000.0  # kHz to Hz
    n_frames = data.shape[0]
    means = np.hstack([data[:, :n_tracks], data[:, n_tracks:]])
    return TrackResult(
        means=means,
        covariances=np.zeros((n_frames, 2 * n_tracks, 2 * n_tracks)),
        speech=np.ones(n_frames, dtype=bool),
        formant_active=np.ones((n_frames, n_tracks), dtype=bool),
        antiformant_active=np.ones((n_frames, 0), dtype=bool),
        n_formants=n_tracks,
        n_antiformants=0,
        n_cepstra=0,
        sample_rate_hz=0.0,
        hop_s=hop_s,
    )
