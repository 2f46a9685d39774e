import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karma.evaluation import _header, read_tracks, rmse, write_tracks
from karma.tracker import TrackResult


def make_result(means, n_formants=3, n_antiformants=0, speech=None, variances=None):
    means = np.asarray(means, dtype=float)
    n = means.shape[0]
    dim = means.shape[1]
    covs = np.zeros((n, dim, dim))
    if variances is not None:
        covs[:, np.arange(dim), np.arange(dim)] = variances
    return TrackResult(
        means=means,
        covariances=covs,
        speech=np.ones(n, bool) if speech is None else np.asarray(speech, bool),
        formant_active=np.ones((n, n_formants), bool),
        antiformant_active=np.ones((n, n_antiformants), bool),
        n_formants=n_formants,
        n_antiformants=n_antiformants,
        n_cepstra=0,
        sample_rate_hz=7000.0,
        hop_s=0.01,
    )


def random_tracks(rng, n=20, i=3):
    freqs = rng.uniform(200, 3000, (n, i))
    bws = rng.uniform(40, 250, (n, i))
    return make_result(np.hstack([freqs, bws]), n_formants=i)


class TestRmse:
    def test_identical_tracks_zero(self, rng):
        ref = random_tracks(rng)
        report = rmse(ref, ref, formant_count=3)
        assert np.all(report.per_formant == 0.0)
        assert report.overall == 0.0

    def test_constant_offset_single_formant(self, rng):
        ref = random_tracks(rng)
        est_means = ref.means.copy()
        est_means[:, 1] += 10.0
        est = make_result(est_means)
        report = rmse(est, ref, formant_count=3)
        assert report.per_formant[1] == pytest.approx(10.0)
        assert report.per_formant[0] == 0.0 and report.per_formant[2] == 0.0
        assert report.overall == pytest.approx(10.0 / np.sqrt(3.0))

    def test_sign_symmetric(self, rng):
        ref = random_tracks(rng)
        up = make_result(ref.means + 25.0)
        down = make_result(ref.means - 25.0)
        assert rmse(up, ref).overall == pytest.approx(rmse(down, ref).overall)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**31))
    def test_permutation_invariant_with_mask(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_tracks(rng, n=15)
        est = make_result(ref.means + rng.standard_normal(ref.means.shape))
        mask = rng.random(15) > 0.3
        if not mask.any():
            mask[0] = True
        base = rmse(est, ref, mask=mask).overall
        perm = rng.permutation(15)
        ref_p = make_result(ref.means[perm])
        est_p = make_result(est.means[perm])
        assert rmse(est_p, ref_p, mask=mask[perm]).overall == pytest.approx(base)

    def test_pooled_definition(self, rng):
        ref = random_tracks(rng)
        est = make_result(ref.means + rng.standard_normal(ref.means.shape) * 30)
        report = rmse(est, ref, formant_count=3)
        assert report.overall**2 == pytest.approx(np.mean(report.per_formant**2))

    def test_mask_filters_frames(self, rng):
        ref = random_tracks(rng, n=10)
        est_means = ref.means.copy()
        est_means[5:, 0] += 100.0
        est = make_result(est_means)
        mask = np.r_[np.ones(5, bool), np.zeros(5, bool)]
        report = rmse(est, ref, mask=mask)
        assert report.overall == 0.0
        assert report.frames_counted == 5
        assert report.frames_skipped == 5

    def test_empty_evaluation_set(self, rng):
        ref = random_tracks(rng, n=4)
        with pytest.raises(ValueError, match="empty evaluation"):
            rmse(ref, ref, mask=np.zeros(4, bool))

    @pytest.mark.parametrize("length", [9, 11])
    def test_mask_length_checked(self, rng, length):
        ref = random_tracks(rng, n=10)
        with pytest.raises(ValueError, match="activity mask length"):
            rmse(ref, ref, mask=np.ones(length, bool))

    def test_frame_count_mismatch_without_offset(self, rng):
        ref = random_tracks(rng, n=10)
        est = random_tracks(rng, n=12)
        with pytest.raises(ValueError, match="offset"):
            rmse(est, ref)

    def test_offset_alignment(self, rng):
        ref = random_tracks(rng, n=10)
        est = make_result(np.vstack([np.zeros((2, 6)), ref.means]))
        report = rmse(est, ref, offset=2)
        assert report.overall == 0.0

    def test_nan_reference_skipped(self, rng):
        ref_means = random_tracks(rng, n=8).means.copy()
        ref_means[3, 2] = np.nan
        ref = make_result(ref_means)
        est = make_result(np.nan_to_num(ref_means, nan=123.0))
        report = rmse(est, ref)
        assert report.overall == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_on_a_scored_frame_raises(self, rng, value):
        ref = random_tracks(rng, n=8)
        est_means = ref.means.copy()
        est_means[5, 1] = value
        with pytest.raises(ValueError, match="estimate f2 is not finite at scored reference frame 7"):
            rmse(make_result(est_means), ref, offset=-2)

    def test_non_finite_estimate_off_the_scored_set_is_ignored(self, rng):
        ref_means = random_tracks(rng, n=8).means.copy()
        ref_means[3, 2] = np.nan  # skipped per formant
        est_means = ref_means.copy()
        est_means[3, 2] = np.inf
        est_means[6, 0] = np.nan  # a frame the mask leaves out
        mask = np.ones(8, bool)
        mask[6] = False
        report = rmse(make_result(est_means), make_result(ref_means), mask=mask)
        assert report.overall == 0.0
        assert (report.frames_counted, report.frames_skipped) == (7, 1)


def frozen_write_tracks(result, path):
    """The per-row f-string writer that ``write_tracks`` replaced."""
    times = result.times
    variances = result.variances
    lines = [",".join(_header(result.n_formants, result.n_antiformants))]
    for t in range(result.n_frames):
        row = [f"{times[t]:.6f}"]
        row += [f"{v:.6f}" for v in result.means[t]]
        row += [f"{v:.6f}" for v in variances[t]]
        row.append(str(int(result.speech[t])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def special_values(rng, shape):
    """Random values with NaN, infinities, signed zeros and large magnitudes mixed in."""
    values = rng.uniform(-5e3, 5e3, shape)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e20, -4.9999995e-7, 5e-7])
    pick = rng.random(shape) < 0.3
    values[pick] = rng.choice(specials, np.count_nonzero(pick))
    return values


class TestTrackCsv:
    @pytest.mark.parametrize("n_frames,i,j", [(1, 3, 0), (1, 2, 1), (40, 3, 0), (40, 2, 2), (0, 1, 1)])
    def test_bytes_equal_frozen_writer(self, tmp_path, n_frames, i, j):
        rng = np.random.default_rng([n_frames, i, j])
        dim = 2 * (i + j)
        res = make_result(
            special_values(rng, (n_frames, dim)),
            n_formants=i,
            n_antiformants=j,
            speech=rng.random(n_frames) > 0.5,
            variances=special_values(rng, (n_frames, dim)),
        )
        write_tracks(res, tmp_path / "new.csv")
        frozen_write_tracks(res, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_roundtrip(self, tmp_path, rng):
        res = make_result(
            np.hstack([rng.uniform(100, 3000, (12, 4)), rng.uniform(30, 200, (12, 4))])[:, :8],
            n_formants=2,
            n_antiformants=2,
            speech=rng.random(12) > 0.5,
            variances=rng.uniform(0, 1e4, (12, 8)),
        )
        path = tmp_path / "t.csv"
        write_tracks(res, path)
        back = read_tracks(path)
        assert back.n_formants == 2 and back.n_antiformants == 2
        assert np.abs(back.means - res.means).max() < 1e-4
        assert np.abs(back.variances - res.variances).max() < 1e-4
        assert np.array_equal(back.speech, res.speech)

    def test_header_shape(self, tmp_path, rng):
        res = random_tracks(rng, n=3)
        path = tmp_path / "h.csv"
        write_tracks(res, path)
        header = path.read_text().splitlines()[0]
        assert header == "time_s,f1,f2,f3,b1,b2,b3,vf1,vf2,vf3,vb1,vb2,vb3,speech"

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f1,f2,b1,vf1,vf2,vb1,speech\n0.0,1,2,3,4,5,6,1\n")
        with pytest.raises(ValueError, match="header mismatch"):
            read_tracks(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no frames"):
            read_tracks(path)
        path.write_text("time_s,f1,b1,vf1,vb1,speech\n")
        with pytest.raises(ValueError, match="no frames"):
            read_tracks(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("time_s,f1,b1,vf1,vb1,speech\n0.0,bad,3,4,5,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_tracks(path)

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("time_s,f1,b1,vf1,vb1,speech\n0.0,1,2,3\n")
        with pytest.raises(ValueError, match="line 2"):
            read_tracks(path)



def rmse_case(n_est=20, n_ref=20, ref_value=1000.0, **options):
    est = make_result(np.full((n_est, 6), 1000.0))
    ref = make_result(np.full((n_ref, 6), ref_value))
    return lambda: rmse(est, ref, **options)


EVALUATION_INPUT_CHECKS = {
    "formant-count-zero": (rmse_case(formant_count=0), "^formant_count must be positive"),
    "formant-count-negative": (rmse_case(formant_count=-1), "^formant_count must be positive"),
    "formant-count-over-tracks": (rmse_case(formant_count=4), "^formant_count exceeds available tracks"),
    "offset-past-the-end": (rmse_case(offset=20), "^alignment leaves no overlapping frames"),
    "offset-before-the-start": (rmse_case(n_est=5, offset=-20), "^alignment leaves no overlapping frames"),
    # every scored frame counts, but no reference entry is finite
    "all-reference-entries-skipped": (rmse_case(ref_value=np.nan), "^empty evaluation set"),
}


@pytest.mark.parametrize("case", list(EVALUATION_INPUT_CHECKS))
def test_input_checks(case):
    call, message = EVALUATION_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
