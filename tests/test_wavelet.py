import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavestack import wavelet as wv
from wavestack.errors import NonFiniteInput, ResolutionTooFine, SeriesTooShort

KINDS = ["haar", "db2", "sym4"]
SQ2 = np.sqrt(2.0)


class TestFilterBank:
    def test_haar_coefficients(self):
        pair = wv.filter_bank("haar")
        np.testing.assert_allclose(pair.low, [1 / SQ2, 1 / SQ2], atol=1e-15)
        np.testing.assert_allclose(pair.high, [1 / SQ2, -1 / SQ2], atol=1e-15)

    def test_db2_has_four_coefficients(self):
        pair = wv.filter_bank("db2")
        assert len(pair.low) == 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_energy(self, kind):
        pair = wv.filter_bank(kind)
        assert abs(pair.low @ pair.low - 1.0) < 1e-12
        assert abs(pair.high @ pair.high - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_cross_orthogonality(self, kind):
        pair = wv.filter_bank(kind)
        assert abs(pair.low @ pair.high) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_mirror_relation(self, kind):
        pair = wv.filter_bank(kind)
        k = len(pair.low)
        mirror = [(-1.0) ** i * pair.low[k - 1 - i] for i in range(k)]
        np.testing.assert_allclose(pair.high, mirror, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_short_filters(self, kind):
        assert len(wv.filter_bank(kind).low) <= 8

    @pytest.mark.parametrize("kind", KINDS)
    def test_cached_and_read_only(self, kind):
        pair = wv.filter_bank(kind)
        assert wv.filter_bank(wv.FilterKind(kind)) is pair
        for filt in (pair.low, pair.high):
            with pytest.raises(ValueError):
                filt[0] = 0.0

    def test_vanishing_moment_db2(self):
        # one vanishing moment beyond Haar: high filter kills linear ramps
        pair = wv.filter_bank("db2")
        ramp = np.arange(len(pair.low), dtype=float)
        assert abs(pair.high @ ramp) < 1e-10


class TestMdwd:
    def test_constant_series(self):
        x = np.full(32, 3.7)
        pyramid = wv.mdwd(x, 3, "haar")
        for lvl in range(3):
            np.testing.assert_allclose(pyramid.detail[lvl], 0.0, atol=1e-10)
            np.testing.assert_allclose(pyramid.approx[lvl], x, atol=1e-10)

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 16)
        pyramid = wv.mdwd(x, 1, "haar")
        np.testing.assert_allclose(pyramid.approx[0], 0.0, atol=1e-10)
        np.testing.assert_allclose(pyramid.detail[0], x, atol=1e-10)

    def test_quarter_rate_tone_haar_detail(self):
        # A period-4 tone lies on the level-1 band crossover.  Haar's
        # level-1 detail is the antisymmetric part of each decimated pair:
        # (0, 1) -> (-1/2, 1/2) and (0, -1) -> (1/2, -1/2).
        x = np.sin(2 * np.pi * np.arange(512) / 4)
        pyramid = wv.mdwd(x, 3, "haar")
        np.testing.assert_allclose(pyramid.detail[0],
                                   np.tile([-0.5, 0.5, 0.5, -0.5], 128),
                                   atol=1e-12)

    def test_half_rate_coefficients(self):
        pyramid = wv.mdwd([1.0, 2.0, 3.0, 4.0], 1, "haar")
        np.testing.assert_allclose(pyramid.raw_low[0],
                                   [3 / SQ2, 7 / SQ2], atol=1e-12)
        np.testing.assert_allclose(pyramid.raw_high[0],
                                   [-1 / SQ2, -1 / SQ2], atol=1e-12)

    def test_raw_coeff_lengths(self):
        pyramid = wv.mdwd(np.arange(20.0), 3, "haar")
        lengths = [len(c) for c in pyramid.raw_low]
        assert lengths == [10, 5, 3]  # ceil of the previous length / 2

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            wv.mdwd(np.ones(7), 3, "haar")

    def test_no_levels(self):
        with pytest.raises(ValueError):
            wv.mdwd(np.ones(8), 0, "haar")

    def test_non_finite(self):
        x = np.ones(16)
        x[3] = np.nan
        with pytest.raises(NonFiniteInput):
            wv.mdwd(x, 1, "haar")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("length", [8, 64, 720])
    def test_perfect_reconstruction(self, kind, length):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=length)
            pyramid = wv.mdwd(x, 3, kind)
            recon = pyramid.approx[-1] + sum(pyramid.detail)
            assert np.max(np.abs(recon - x)) < 1e-8

    @pytest.mark.parametrize("kind", KINDS)
    def test_energy_preservation(self, kind):
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        pyramid = wv.mdwd(x, 3, kind)
        prev = x
        for lvl in range(3):
            e_low = np.sum(pyramid.raw_low[lvl] ** 2)
            e_high = np.sum(pyramid.raw_high[lvl] ** 2)
            assert abs(e_low + e_high - np.sum(prev ** 2)) < 1e-8
            prev = pyramid.raw_low[lvl]

    @pytest.mark.parametrize("kind", KINDS)
    def test_linearity(self, kind):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=64), rng.normal(size=64)
        a, b = 1.7, -0.3
        p_mix = wv.mdwd(a * x + b * y, 2, kind)
        p_x, p_y = wv.mdwd(x, 2, kind), wv.mdwd(y, 2, kind)
        for lvl in range(2):
            np.testing.assert_allclose(
                p_mix.detail[lvl],
                a * p_x.detail[lvl] + b * p_y.detail[lvl], atol=1e-8)
            np.testing.assert_allclose(
                p_mix.approx[lvl],
                a * p_x.approx[lvl] + b * p_y.approx[lvl], atol=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("length", [45, 64, 720])
    def test_finer_approximations_match_direct_synthesis(self, kind, length):
        # mdwd synthesises only the coarsest approximation and sums the
        # finer ones from it; each must agree with its own synthesis to
        # the transform's reconstruction error (sym4's coefficient table
        # is unit-energy only to 5e-13)
        atol = 1e-11 if kind == "sym4" else 1e-13
        x = np.random.default_rng(6).normal(size=(3, length))
        pyramid = wv.mdwd(x, 4, kind)
        pair = wv.filter_bank(kind)
        input_lengths = [length] + [c.shape[-1] for c in pyramid.raw_low[:-1]]
        for lvl in range(1, 5):
            direct = pyramid.raw_low[lvl - 1]
            for n_in in input_lengths[lvl - 1::-1]:
                direct = wv._synthesis_step(direct, pair.low)[..., :n_in]
            if lvl == 4:
                np.testing.assert_array_equal(pyramid.approx[-1], direct)
            np.testing.assert_allclose(pyramid.approx[lvl - 1], direct,
                                       rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ["haar", "db2"])
    @pytest.mark.parametrize("length", [45, 91])
    def test_odd_length_reconstruction(self, kind, length):
        # over lengths 17-1043 at 3 levels the worst error is about 5e-15
        rng = np.random.default_rng(3)
        x = rng.normal(size=length)
        pyramid = wv.mdwd(x, 3, kind)
        recon = pyramid.approx[-1] + sum(pyramid.detail)
        assert np.max(np.abs(recon - x)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), levels=st.integers(1, 3),
           extra=st.integers(0, 40), rows=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_rows_equal_single_calls(self, kind, levels, extra, rows,
                                           seed):
        # odd and even lengths: an odd level input is padded per row
        x = np.random.default_rng(seed).normal(
            size=(rows, 2 ** levels + extra))
        batch = wv.mdwd(x, levels, kind)
        for r in range(rows):
            single = wv.mdwd(x[r], levels, kind)
            for got, want in zip(batch.approx + batch.detail + batch.raw_low
                                 + batch.raw_high,
                                 single.approx + single.detail
                                 + single.raw_low + single.raw_high):
                np.testing.assert_array_equal(got[r], want)


def _index_analysis(x, filt):
    t = x.shape[-1]
    ext = x[..., np.arange(t + len(filt) - 1) % t]
    y = filt[0] * ext[..., 0:t:2]
    for j in range(1, len(filt)):
        y = y + filt[j] * ext[..., j:j + t:2]
    return y


def _index_synthesis(coeffs, filt, out_len):
    x = np.zeros(coeffs.shape[:-1] + (out_len,))
    positions = 2 * np.arange(coeffs.shape[-1])
    for j, f in enumerate(filt):
        x[..., (positions + j) % out_len] += coeffs * f
    return x


def _index_mdwd(x, n_levels, kind):
    """mdwd with every periodic step written as a gather or scatter by a
    `% T` index array: the slow reference for the slice-based steps."""
    pair = wv.filter_bank(kind)
    raw_low, raw_high, lengths = [], [], []
    cur = x
    for _ in range(n_levels):
        lengths.append(cur.shape[-1])
        if cur.shape[-1] % 2 == 1:
            cur = np.concatenate([cur, cur[..., :1]], axis=-1)
        raw_low.append(_index_analysis(cur, pair.low))
        raw_high.append(_index_analysis(cur, pair.high))
        cur = raw_low[-1]

    def synthesise(cur, level, filt):
        for lvl in range(level, 0, -1):
            n_in = lengths[lvl - 1]
            cur = _index_synthesis(cur, filt, n_in + n_in % 2)[..., :n_in]
            filt = pair.low
        return cur

    detail = [synthesise(raw_high[lvl - 1], lvl, pair.high)
              for lvl in range(1, n_levels + 1)]
    approx = [synthesise(raw_low[-1], n_levels, pair.low)]
    for lvl in range(n_levels - 1, 0, -1):
        approx.insert(0, approx[0] + detail[lvl])
    return approx, detail, raw_low, raw_high


class TestSliceStepsMatchIndexReference:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           length=st.sampled_from(list(range(2, 81)) + [127, 720, 721, 1043]),
           lead=st.sampled_from([(), (3,), (2, 2)]),
           log_scale=st.floats(-5, 5),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_bit_identical(self, kind, length, lead, log_scale, zero_share,
                           seed, data):
        levels = data.draw(st.integers(1, min(6, length.bit_length() - 1)))
        rng = np.random.default_rng(seed)
        x = 10.0 ** log_scale * rng.normal(size=lead + (length,))
        # about zero_share of the samples exactly +0.0 or -0.0
        draw = rng.random(x.shape)
        x[draw < zero_share / 2] = -0.0
        x[(zero_share / 2 <= draw) & (draw < zero_share)] = 0.0
        pyramid = wv.mdwd(x, levels, kind)
        want = _index_mdwd(x, levels, kind)
        got = (pyramid.approx, pyramid.detail, pyramid.raw_low,
               pyramid.raw_high)
        for got_list, want_list in zip(got, want):
            assert len(got_list) == len(want_list) == levels
            for g, w in zip(got_list, want_list):
                np.testing.assert_array_equal(g, w)
                np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


class TestReconstructedSubseries:
    def test_single_level_sum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64)
        pyramid = wv.mdwd(x, 1, "haar")
        total = pyramid.approx[0] + pyramid.detail[0]
        np.testing.assert_allclose(total, x, atol=1e-10)

    def test_zero_series(self):
        pyramid = wv.mdwd(np.zeros(32), 3, "db2")
        for branch in pyramid.approx + pyramid.detail:
            np.testing.assert_allclose(branch, 0.0)

    def test_frequency_separation(self):
        t = np.arange(512)
        slow = np.sin(2 * np.pi * t / 64)
        fast = np.sin(2 * np.pi * t / 4)
        pyramid = wv.mdwd(slow + fast, 3, "haar")
        corr = np.corrcoef(pyramid.approx[2], slow)[0, 1]
        assert corr > 0.95


class TestHaarProjection:
    def test_constant_function(self):
        f = np.full(64, 2.5)
        for w in range(0, 6):
            proj = wv.haar_project(f, w)
            np.testing.assert_allclose(proj.theta, 2.5)
            assert wv.haar_l1_error(f, proj) == 0.0

    def test_identity_function_w1(self):
        # midpoint sampling makes interval means and the piecewise-linear
        # L1 integral exact
        n = 4096
        f = (np.arange(n) + 0.5) / n
        proj = wv.haar_project(f, 1)
        np.testing.assert_allclose(proj.theta, [0.25, 0.75], atol=1e-12)
        assert abs(wv.haar_l1_error(f, proj) - 0.125) < 1e-12

    def test_error_nonincreasing(self):
        rng = np.random.default_rng(5)
        n = 1024
        tau = (np.arange(n) + 0.5) / n
        f = np.sin(2 * np.pi * tau) + 0.3 * rng.normal(size=n).cumsum() / n
        errors = [wv.haar_l1_error(f, wv.haar_project(f, w))
                  for w in range(0, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_lipschitz_bound(self):
        n = 4096
        f = (np.arange(n) + 0.5) / n  # 1-Lipschitz
        for w in range(1, 9):
            err = wv.haar_l1_error(f, wv.haar_project(f, w))
            assert err <= 2.0 ** (-w) + 1e-12

    def test_resolution_too_fine(self):
        with pytest.raises(ResolutionTooFine):
            wv.haar_project(np.ones(8), 4)

    def test_negative_resolution(self):
        with pytest.raises(ValueError):
            wv.haar_project(np.ones(8), -1)

    def test_coefficient_count_and_knots(self):
        proj = wv.haar_project(np.ones(64), 3)
        assert len(proj.theta) == 8
        np.testing.assert_allclose(proj.knots, np.linspace(0, 1, 9))
