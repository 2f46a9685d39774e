import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import karma.frontend
from karma.frontend import (
    DEFAULT_SILENCE_LABELS,
    FrameSequence,
    LabelInterval,
    Waveform,
    _kaiser_lowpass,
    _periodic_window,
    _polyphase_chunks,
    activity_from_labels,
    detect_activity,
    frame_length_and_hop,
    preemphasize,
    read_label_file,
    read_wav,
    resample,
    window_frames,
    write_wav,
)

from conftest import (
    frozen_detect_activity,
    frozen_polyphase,
    frozen_preemphasize,
    frozen_window_frames,
)


def loop_window_frames(x, frame_length, hop, window):
    """Frame-by-frame reference for ``window_frames``."""
    n_full = (x.size - frame_length) // hop + 1
    covered = (n_full - 1) * hop + frame_length
    n_frames = n_full + (1 if covered < x.size else 0)
    frames = np.zeros((n_frames, frame_length))
    for t in range(n_frames):
        seg = x[t * hop : t * hop + frame_length]
        frames[t, : seg.size] = seg
    frames *= window
    return frames


def loop_activity_from_labels(intervals, n_samples, frame_length, hop, n_frames, sample_scale):
    """Frame-by-frame reference for ``activity_from_labels``."""
    silent = np.zeros(n_samples, dtype=bool)
    for iv in intervals:
        if iv.label in DEFAULT_SILENCE_LABELS:
            lo = max(0, int(round(iv.start_sample * sample_scale)))
            hi = min(n_samples, int(round(iv.end_sample * sample_scale)))
            silent[lo:hi] = True
    flags = np.empty(n_frames, dtype=bool)
    for t in range(n_frames):
        seg = silent[t * hop : t * hop + frame_length]
        flags[t] = not (bool(seg.all()) if seg.size else True)
    return flags


def make_wave(n, fs=16000.0, value=None, rng=None):
    if value is not None:
        x = np.full(n, value, dtype=float)
    else:
        x = (rng or np.random.default_rng(0)).standard_normal(n)
    return Waveform(x, fs)


class TestWindowFrames:
    def test_exact_fit_single_frame(self):
        w = make_wave(160)
        fr = window_frames(w, 10.0, 0.5)
        assert fr.n_frames == 1
        assert fr.frame_length == 160
        assert fr.hop == 80

    def test_count_formula(self):
        w = make_wave(320)
        fr = window_frames(w, 10.0, 0.5)
        assert fr.n_frames == 3

    def test_rectangular_identity(self):
        w = make_wave(320, value=1.0)
        fr = window_frames(w, 10.0, 0.5, "rectangular")
        assert np.allclose(fr.frames, 1.0)

    def test_tail_zero_padded(self):
        w = make_wave(330)
        fr = window_frames(w, 10.0, 0.5, "rectangular")
        assert fr.n_frames == 4
        # last frame starts at 240 and covers to 400; samples beyond 330 are zero
        assert np.all(fr.frames[-1, 90:] == 0.0)

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="too short"):
            window_frames(make_wave(100), 10.0, 0.5)

    def test_overlap_add_reconstruction(self):
        rng = np.random.default_rng(1)
        w = make_wave(3200, rng=rng)
        fr = window_frames(w, 10.0, 0.5, "hanning")
        recon = np.zeros(w.samples.size + fr.frame_length)
        for t in range(fr.n_frames):
            recon[t * fr.hop : t * fr.hop + fr.frame_length] += fr.frames[t]
        interior = slice(fr.frame_length, w.samples.size - fr.frame_length)
        scale = recon[interior] / w.samples[interior]
        assert np.allclose(scale, scale[0], atol=1e-10)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(160, 2000),
        overlap=st.floats(0.0, 0.95),
        kind=st.sampled_from(["hamming", "hanning", "rectangular"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_frame_loop(self, n, overlap, kind, seed):
        w = make_wave(n, rng=np.random.default_rng(seed))
        fr = window_frames(w, 10.0, overlap, kind)
        name = {"hamming": "hamming", "hanning": "hann", "rectangular": "boxcar"}[kind]
        window = sps.get_window(name, fr.frame_length, fftbins=True)
        expected = loop_window_frames(w.samples, fr.frame_length, fr.hop, window)
        assert fr.frames.shape == expected.shape
        assert np.array_equal(fr.frames, expected)


    @pytest.mark.parametrize("n", [1, 2, 7, 140, 320])
    @pytest.mark.parametrize("kind,name", [("hamming", "hamming"), ("hanning", "hann"), ("rectangular", "boxcar")])
    def test_window_equals_scipy_periodic_window(self, kind, name, n):
        assert np.array_equal(_periodic_window(kind, n), sps.get_window(name, n, fftbins=True))

    def test_non_finite_frame_length_raises_value_error(self):
        with pytest.raises(ValueError, match="non-finite frame length"):
            frame_length_and_hop(1e308, 0.5, 16000.0)


class TestPreemphasize:
    def test_gamma_zero_identity(self):
        x = np.arange(5.0)
        assert np.array_equal(preemphasize(x, 0.0), x)

    def test_first_difference(self):
        out = preemphasize(np.ones(4), 1.0)
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])

    @settings(deadline=None, max_examples=50)
    @given(
        gamma=st.floats(-0.95, 0.95),
        seed=st.integers(0, 2**31),
    )
    def test_inverse_filter_roundtrip(self, gamma, seed):
        x = np.random.default_rng(seed).standard_normal(64)
        y = preemphasize(x, gamma)
        recovered = np.empty_like(y)
        prev = 0.0
        for m in range(y.size):
            prev = y[m] + gamma * prev
            recovered[m] = prev
        assert np.max(np.abs(recovered - x)) < 1e-12

    def test_two_dimensional_frames(self):
        frames = np.random.default_rng(3).standard_normal((4, 16))
        out = preemphasize(frames, 0.7)
        for t in range(4):
            assert np.allclose(out[t], preemphasize(frames[t], 0.7))


class TestWavIo:
    def test_scaling_16bit(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "a.wav"
        wavfile.write(path, 16000, np.array([16384, -16384], dtype=np.int16))
        w = read_wav(path)
        assert w.samples[0] == pytest.approx(0.5)
        assert w.sample_rate_hz == 16000.0

    def test_one_second_length(self, tmp_path):
        path = tmp_path / "b.wav"
        write_wav(path, make_wave(16000))
        assert read_wav(path).samples.size == 16000

    def test_stereo_averaged(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "c.wav"
        data = np.array([[0.2, 0.4]], dtype=np.float32)
        wavfile.write(path, 8000, data)
        w = read_wav(path)
        assert w.samples[0] == pytest.approx(0.3, abs=1e-7)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ints = rng.integers(-32768, 32768, 1000).astype(np.int16)
        w = Waveform(ints / 32768.0, 8000.0)
        path = tmp_path / "d.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert np.array_equal(back.samples, w.samples)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(ValueError, match="unsupported"):
            read_wav(path)

    def test_missing_file_is_not_a_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")


# (format tag, bytes per sample, bits per sample, dtype of the samples as stored)
WAV_FORMATS = {
    "uint8": (1, 1, 8, "u1"),
    "int16": (1, 2, 16, "i2"),
    "int24": (1, 3, 24, None),
    "int32": (1, 4, 32, "i4"),
    "float32": (3, 4, 32, "f4"),
    "float64": (3, 8, 64, "f8"),
}
GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_chunk(cid, body, order="<"):
    return cid + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def wav_file(kind, channels, n_frames, rng, order="<", extensible=False, extra=b""):
    """A WAV file of random samples in format ``kind``, built byte by byte:
    the 'fmt ' chunk (plain or WAVE_FORMAT_EXTENSIBLE), ``extra`` chunks,
    then the 'data' chunk."""
    tag, width, bits, dtype = WAV_FORMATS[kind]
    n = n_frames * channels
    if dtype is None:  # 24-bit: three bytes of a random 32-bit word
        words = rng.integers(-(2**31), 2**31, n).astype(order + "i4").view(np.uint8)
        keep = slice(1, None) if order == "<" else slice(0, 3)
        data = words.reshape(n, 4)[:, keep].tobytes()
    elif dtype[0] == "f":
        data = rng.uniform(-1.0, 1.0, n).astype(order + dtype).tobytes()
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, n, endpoint=True).astype(order + dtype).tobytes()
    rate = 11025
    fmt = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                      rate * width * channels, width * channels, bits)
    if extensible:
        guid = struct.pack(order + "IHH", tag, 0, 0x0010) + GUID_TAIL
        fmt += struct.pack(order + "HHI", 22, bits, 0) + guid
    elif tag == 3:
        fmt += struct.pack(order + "H", 0)
    chunks = wav_chunk(b"fmt ", fmt, order) + extra + wav_chunk(b"data", data, order)
    magic = b"RIFX" if order == ">" else b"RIFF"
    return magic + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks


def scipy_read_wav(path):
    """``read_wav``'s result by way of ``scipy.io.wavfile.read``: integers
    scaled to [-1, 1), floats kept, channels averaged."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        samples = (data.astype(float) - 128.0) / 128.0
    elif data.dtype.kind == "i":
        samples = data / float(2 ** (8 * data.dtype.itemsize - 1))
    else:
        samples = data.astype(float)
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


class TestWavParity:
    """The numpy RIFF reader and writer against ``scipy.io.wavfile``."""

    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("kind", list(WAV_FORMATS))
    def test_read_equals_scipy(self, tmp_path, kind, channels, extensible):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_file(kind, channels, 101, np.random.default_rng(3), extensible=extensible))
        rate, want = scipy_read_wav(path)
        got = read_wav(path)
        assert got.sample_rate_hz == rate
        assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("kind", ["int16", "int24", "float32"])
    def test_big_endian_riff_equals_scipy(self, tmp_path, kind):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_file(kind, 2, 64, np.random.default_rng(4), order=">"))
        assert np.array_equal(read_wav(path).samples, scipy_read_wav(path)[1])

    def test_odd_sized_extra_chunk_is_skipped(self, tmp_path):
        path = tmp_path / "a.wav"
        extra = wav_chunk(b"LIST", b"abc") + wav_chunk(b"fact", struct.pack("<I", 50))
        path.write_bytes(wav_file("int16", 1, 50, np.random.default_rng(5), extra=extra))
        assert np.array_equal(read_wav(path).samples, scipy_read_wav(path)[1])

    def test_rf64_equals_riff(self, tmp_path):
        riff = wav_file("float32", 1, 40, np.random.default_rng(6))
        body = riff[12:]  # the chunks
        data_size = len(riff) - riff.index(b"data") - 8
        ds64 = wav_chunk(b"ds64", struct.pack("<QQQI", 0, data_size, 40, 0))
        rf64 = b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + body.replace(
            b"data" + struct.pack("<I", data_size), b"data" + b"\xff" * 4)
        (tmp_path / "a.wav").write_bytes(riff)
        (tmp_path / "b.wav").write_bytes(rf64)
        assert np.array_equal(read_wav(tmp_path / "b.wav").samples, read_wav(tmp_path / "a.wav").samples)

    def test_data_cut_short_keeps_whole_frames(self, tmp_path):
        full = wav_file("int16", 2, 30, np.random.default_rng(7))
        (tmp_path / "a.wav").write_bytes(full)
        (tmp_path / "b.wav").write_bytes(full[:-7])  # 26 whole frames and 3 bytes
        assert np.array_equal(read_wav(tmp_path / "b.wav").samples, read_wav(tmp_path / "a.wav").samples[:28])

    @pytest.mark.parametrize("cut", [0, 6, 11, 20, 30, 36, 40])
    def test_truncated_header_is_unsupported_wav(self, tmp_path, cut):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_file("int16", 1, 10, np.random.default_rng(8))[:cut])
        with pytest.raises(ValueError, match="^unsupported wav$"):
            read_wav(path)

    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("tag", [0x0002, 0x0006, 0x0055])  # MS ADPCM, A-law, MP3
    def test_compressed_format_is_unsupported_codec(self, tmp_path, tag, extensible):
        raw = bytearray(wav_file("int16", 1, 10, np.random.default_rng(9), extensible=extensible))
        at = raw.index(b"fmt ") + 8 + (24 if extensible else 0)  # the tag, or the GUID's
        raw[at : at + 2] = struct.pack("<H", tag)
        path = tmp_path / "a.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^unsupported codec$"):
            read_wav(path)

    @pytest.mark.parametrize("kind", ["wave", "riff"])
    def test_other_files_are_unsupported_wav(self, tmp_path, kind):
        raw = wav_file("int16", 1, 10, np.random.default_rng(10))
        raw = raw.replace(b"WAVE", b"AVI ") if kind == "wave" else b"OggS" + raw[4:]
        path = tmp_path / "a.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^unsupported wav$"):
            read_wav(path)

    @pytest.mark.parametrize("n", [0, 1, 999])
    def test_write_equals_scipy_bytes(self, tmp_path, n):
        from scipy.io import wavfile

        rng = np.random.default_rng(n)
        w = Waveform(rng.uniform(-1.2, 1.2, n), 7999.6)
        write_wav(tmp_path / "a.wav", w)
        ints = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(tmp_path / "b.wav", 8000, ints)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


class TestResample:
    def test_identity_rate(self):
        w = make_wave(1000)
        out = resample(w, w.sample_rate_hz)
        assert np.array_equal(out.samples, w.samples)

    def test_passband_sinusoid_preserved(self):
        fs = 16000.0
        t = np.arange(int(fs)) / fs
        w = Waveform(np.sin(2 * np.pi * 1000 * t), fs)
        out = resample(w, 8000.0)
        assert out.samples.size == 8000
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(out.samples.size)))
        freqs = np.fft.rfftfreq(out.samples.size, 1 / 8000.0)
        peak = freqs[np.argmax(spec)]
        assert abs(peak - 1000.0) < 2.0
        amp = np.abs(out.samples[2000:6000]).max()
        assert abs(amp - 1.0) < 0.01

    def test_stopband_sinusoid_removed(self):
        fs = 16000.0
        t = np.arange(int(fs)) / fs
        w = Waveform(np.sin(2 * np.pi * 5000 * t), fs)
        out = resample(w, 8000.0)
        assert np.abs(out.samples[1000:7000]).max() < 0.001

    @pytest.mark.parametrize(
        "source_hz,target_hz,n",
        [(16000, 7000, 16000), (44100, 7000, 44100), (8000, 7000, 8000), (10000, 7000, 10000), (7000, 16000, 7000),
         (16000, 7000, 300)],  # the last input is shorter than the filter
    )
    def test_matches_resample_poly_with_the_same_filter(self, source_hz, target_hz, n):
        w = make_wave(n, fs=float(source_hz), rng=np.random.default_rng(n))
        ratio = Fraction(target_hz / source_hz).limit_denominator(1000)
        up, down = ratio.numerator, ratio.denominator
        fs_up = source_hz * up
        cutoff = 0.5 * min(source_hz, target_hz)
        width = 0.10 * cutoff
        n_taps, beta = sps.kaiserord(75.0, width / (fs_up / 2.0))
        fir = sps.firwin(n_taps | 1, cutoff - width / 2.0, window=("kaiser", beta), fs=fs_up)
        assert fir.size > 300
        assert np.allclose(_kaiser_lowpass(cutoff, width, fs_up), fir, rtol=0, atol=1e-15)
        expected = sps.resample_poly(w.samples, up, down, window=fir)
        n_out = int(round(n * target_hz / source_hz))
        expected = np.pad(expected, (0, max(0, n_out - expected.size)))[:n_out]
        out = resample(w, float(target_hz)).samples
        assert out.size == expected.size == n_out
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_output_length_rounding(self):
        w = make_wave(1001)
        out = resample(w, 7000.0)
        assert out.samples.size == round(1001 * 7000 / 16000)


class TestActivity:
    def test_all_zero_frame_inactive(self):
        frames = window_frames(make_wave(480, value=0.0), 10.0, 0.0, "rectangular")
        mask = detect_activity(frames)
        assert mask.dtype == bool and mask.shape == (frames.n_frames,)
        assert not mask.any()

    def test_threshold_minus_inf_all_active(self):
        frames = window_frames(make_wave(480, value=0.0), 10.0, 0.0, "rectangular")
        mask = detect_activity(frames, threshold_db=-np.inf)
        assert mask.all()

    def test_relative_threshold(self):
        x = np.concatenate([np.full(160, 1.0), np.full(160, 10 ** (-50 / 20.0))])
        frames = window_frames(Waveform(x, 16000.0), 10.0, 0.0, "rectangular")
        mask = detect_activity(frames, threshold_db=-40.0)
        assert mask.tolist() == [True, False]

    def test_label_file_roundtrip(self, tmp_path):
        path = tmp_path / "x.lbl"
        path.write_text("0 800 h#\n800 1600 aa\n1600 2400 pau\n")
        labels = read_label_file(path)
        assert len(labels) == 3
        mask = activity_from_labels(labels, 2400, 800, 800, 3)
        assert mask.tolist() == [False, True, False]

    def test_label_scaling(self, tmp_path):
        path = tmp_path / "y.lbl"
        path.write_text("0 1600 h#\n1600 3200 iy\n")
        labels = read_label_file(path)
        mask = activity_from_labels(labels, 1600, 800, 800, 2, sample_scale=0.5)
        assert mask.tolist() == [False, True]

    def test_malformed_label_line(self, tmp_path):
        path = tmp_path / "z.lbl"
        path.write_text("0 800\n")
        with pytest.raises(ValueError, match="expected"):
            read_label_file(path)

    def test_negative_sample_index_rejected(self, tmp_path):
        path = tmp_path / "neg.lbl"
        path.write_text("0 800 aa\n0 -100 pau\n")
        with pytest.raises(ValueError, match="neg.lbl:2: negative sample index"):
            read_label_file(path)

    @pytest.mark.parametrize("start, end", [(0, -100), (-300, -100), (900, 400)])
    def test_empty_interval_covers_nothing(self, start, end):
        """An interval covers [max(start, 0), min(end, n)): nothing when that
        is empty, where a slice to a negative end would wrap around."""
        mask = activity_from_labels([LabelInterval(start, end, "pau")], 2400, 800, 800, 3)
        assert mask.tolist() == [True, True, True]

    @settings(deadline=None, max_examples=80)
    @given(
        bounds=st.lists(st.integers(0, 3000), min_size=0, max_size=12),
        labels=st.lists(st.sampled_from(["h#", "pau", "aa", "iy", "tcl"]), min_size=6, max_size=6),
        n_samples=st.integers(1, 2500),
        frame_length=st.integers(1, 400),
        hop=st.integers(1, 400),
        n_frames=st.integers(0, 40),
        sample_scale=st.sampled_from([1.0, 0.5, 0.4375]),
    )
    def test_labels_match_frame_loop(
        self, bounds, labels, n_samples, frame_length, hop, n_frames, sample_scale
    ):
        edges = sorted(bounds)
        intervals = [
            LabelInterval(lo, hi, labels[k % len(labels)])
            for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        ]
        mask = activity_from_labels(
            intervals, n_samples, frame_length, hop, n_frames, sample_scale=sample_scale
        )
        expected = loop_activity_from_labels(
            intervals, n_samples, frame_length, hop, n_frames, sample_scale
        )
        assert mask.tolist() == expected.tolist()


# 16 KB: a resampler chunk of one block group, a few frames per block
SMALL_BLOCK_BYTES = 1 << 14


@pytest.fixture(params=["default", "small"])
def block_bytes(request, monkeypatch):
    """Run under the default block budget and under a small one, which splits
    short inputs into many blocks."""
    if request.param == "small":
        monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", SMALL_BLOCK_BYTES)


class TestFrozenFrontEnd:
    """The blocked front end gives the same bits as whole-array copies of it."""

    @pytest.mark.parametrize(
        "source_hz,target_hz",
        [(16000, 7000), (16000, 10000), (44100, 7000), (8000, 16000)],
    )
    # 300 is shorter than the filter; 131040 fills whole chunks of the default
    # budget at 16 -> 7 kHz; 330001 spans about three of them; the small
    # budget splits the short inputs into one-group chunks
    @pytest.mark.parametrize(
        "n,budget",
        [(300, None), (4001, None), (131040, None), (330001, None), (300, SMALL_BLOCK_BYTES),
         (4001, SMALL_BLOCK_BYTES)],
    )
    def test_polyphase_equals_frozen(self, monkeypatch, source_hz, target_hz, n, budget):
        if budget is not None:
            monkeypatch.setattr(karma.frontend, "_BLOCK_BYTES", budget)
        x = np.random.default_rng(n).standard_normal(n)
        ratio = Fraction(target_hz, source_hz)
        up, down = ratio.numerator, ratio.denominator
        cutoff = 0.5 * min(source_hz, target_hz)
        fir = _kaiser_lowpass(cutoff, 0.1 * cutoff, source_hz * up)
        joined = np.concatenate(list(_polyphase_chunks(x, fir, up, down)))
        assert np.array_equal(joined, frozen_polyphase(x, fir, up, down))

    @pytest.mark.parametrize(
        "n,frame_ms,overlap",
        [
            (3200, 10.0, 0.5),  # no padded tail
            (3330, 10.0, 0.5),  # a padded tail frame
            (3330, 10.0, 0.0),  # no overlap, a padded tail frame
            (400, 10.0, 0.999),  # hop 1
            (160, 10.0, 0.5),  # a single frame
            (20000, 20.0, 0.5),  # many blocks under the small budget
        ],
    )
    @pytest.mark.parametrize("kind", ["hamming", "rectangular"])
    def test_window_frames_equal_frozen(self, block_bytes, n, frame_ms, overlap, kind):
        w = make_wave(n, rng=np.random.default_rng(n))
        frames = window_frames(w, frame_ms, overlap, kind)
        expected = frozen_window_frames(w.samples, w.sample_rate_hz, frame_ms, overlap, kind)
        assert frames.frames.shape == expected.shape
        assert np.array_equal(frames.frames, expected)
        for threshold in (-40.0, -3.0, -np.inf):
            assert np.array_equal(
                detect_activity(frames, threshold), frozen_detect_activity(expected, threshold)
            )

    # (1000, 140) is two blocks under the default budget
    @pytest.mark.parametrize("shape", [(140,), (1, 140), (1000, 140), (3, 50, 16)])
    @pytest.mark.parametrize("gamma", [0.0, 0.7, -1.0])
    def test_preemphasize_equals_frozen(self, block_bytes, shape, gamma):
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        expected = frozen_preemphasize(x, gamma)
        assert np.array_equal(preemphasize(x, gamma), expected)
        out = np.full_like(x, np.nan)
        assert preemphasize(x, gamma, out=out) is out
        assert np.array_equal(out, expected)
        assert preemphasize(x, gamma, out=x) is x  # out= aliasing the input
        assert np.array_equal(x, expected)


def riff(chunks, magic=b"RIFF"):
    return magic + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def patched_wav(at_in_fmt, value, extensible=False):
    """An int16 WAV file with the 16-bit field ``at_in_fmt`` bytes into its
    'fmt ' body set to ``value``."""
    raw = bytearray(wav_file("int16", 1, 10, np.random.default_rng(11), extensible=extensible))
    struct.pack_into("<H", raw, raw.index(b"fmt ") + 8 + at_in_fmt, value)
    return bytes(raw)


# each file passes every read_wav check but one; without that check it
# would read (or fail with another error)
UNSUPPORTED_WAVS = {
    # a 14-byte WAVEFORMAT body: no bits-per-sample field
    "fmt-under-16-bytes": riff(
        wav_chunk(b"fmt ", struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)) + wav_chunk(b"data", bytes(20))
    ),
    "extensible-cb-under-22": patched_wav(16, 0, extensible=True),
    "zero-channels": patched_wav(2, 0),
    "channels-over-block-align": patched_wav(2, 3),
    "no-fmt-chunk": riff(wav_chunk(b"data", bytes(20))),
    # RF64 whose first chunk is not 'ds64'
    "rf64-without-ds64": riff(
        wav_chunk(b"JUNK", bytes(16)) + wav_file("int16", 1, 10, np.random.default_rng(12))[12:],
        magic=b"RF64",
    ),
}


def write_and_read(raw, tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(raw)
    return read_wav(path)


FRONTEND_INPUT_CHECKS = {
    "waveform-zero-rate": (lambda _: Waveform(np.ones(4), 0.0), "sample rate must be positive"),
    "waveform-non-finite": (lambda _: Waveform([0.0, np.nan], 8000.0), "non-finite samples"),
    "frames-zero-hop": (lambda _: FrameSequence(np.zeros((2, 4)), 4, 0, 8000.0), "hop must satisfy"),
    "frames-hop-over-length": (lambda _: FrameSequence(np.zeros((2, 4)), 4, 5, 8000.0), "hop must satisfy"),
    "frames-wrong-width": (lambda _: FrameSequence(np.zeros((2, 3)), 4, 2, 8000.0), r"frames must be \(n_frames"),
    "frames-one-dimensional": (lambda _: FrameSequence(np.zeros(4), 4, 2, 8000.0), r"frames must be \(n_frames"),
    "window-overlap-one": (lambda _: window_frames(make_wave(480), 10.0, 1.0), "overlap_fraction must be"),
    "window-overlap-negative": (lambda _: window_frames(make_wave(480), 10.0, -0.5), "overlap_fraction must be"),
    "window-unknown-kind": (lambda _: window_frames(make_wave(480), 10.0, 0.5, "blackman"), "unknown window kind"),
    # 0.02 ms is a third of a sample at 16 kHz
    "window-empty-frame": (lambda _: window_frames(make_wave(480), 0.02, 0.5), "yields no samples"),
    "preemphasize-gamma": (lambda _: preemphasize(np.ones(4), 1.5), r"\|gamma\| must be <= 1"),
    "resample-zero-target": (lambda _: resample(make_wave(480), 0.0), "target rate must be positive"),
    **{
        f"read-wav-{name}": (lambda tmp_path, raw=raw: write_and_read(raw, tmp_path), "^unsupported wav$")
        for name, raw in UNSUPPORTED_WAVS.items()
    },
}


@pytest.mark.parametrize("case", list(FRONTEND_INPUT_CHECKS))
def test_input_checks(tmp_path, case):
    call, message = FRONTEND_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


def test_blank_label_lines_are_skipped(tmp_path):
    path = tmp_path / "x.lbl"
    path.write_text("0 800 h#\n\n   \n800 1600 aa\n")
    assert read_label_file(path) == [LabelInterval(0, 800, "h#"), LabelInterval(800, 1600, "aa")]
