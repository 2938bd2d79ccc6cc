import hashlib

import numpy as np
import pytest

from wavestack import dataio
from wavestack.errors import (
    EmptySeries,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
    PartitionTooShort,
    ZeroVariance,
)


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        series = np.array([1.5, -2.25, 1e-7, 3.0])
        dataio.save_csv(path, series)
        loaded = dataio.load_csv(path, "value")
        np.testing.assert_allclose(loaded, series, atol=1e-12)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "series.csv"
        series = np.random.default_rng(0).normal(size=50)
        dataio.save_csv(path, series)
        np.testing.assert_array_equal(dataio.load_csv(path, "value"), series)

    def test_custom_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("date,price\n2020-01-01,10.5\n2020-01-02,11.0\n")
        np.testing.assert_array_equal(dataio.load_csv(path, "price"),
                                      [10.5, 11.0])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n")
        with pytest.raises(MissingColumn):
            dataio.load_csv(path, "price")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1,oops\n2,3.0\n")
        with pytest.raises(NonNumericCell) as exc:
            dataio.load_csv(path, "value")
        assert exc.value.row == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1,nan\n")
        with pytest.raises(NonNumericCell):
            dataio.load_csv(path, "value")

    def test_empty(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n")
        with pytest.raises(EmptySeries):
            dataio.load_csv(path, "value")

    def test_malformed_names_the_line_that_holds_the_fault(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1\n1," + "1" * 131073 + "\n")
        with pytest.raises(MalformedCsv, match=r": line 3: field larger "
                                               r"than field limit"):
            dataio.load_csv(path, "value")


class TestSplit:
    def test_default_fractions_on_100(self):
        ds = dataio.split(np.arange(100.0))
        assert ds.train_range == (0, 70)
        assert ds.val_range == (70, 80)
        assert ds.test_range == (80, 100)

    def test_chronological_order(self):
        ds = dataio.split(np.arange(50.0))
        assert ds.train[-1] < ds.val[0] < ds.test[0]

    @pytest.mark.parametrize("n", range(10, 31))
    def test_full_coverage_no_overlap(self, n):
        ds = dataio.split(np.arange(float(n)))
        joined = np.concatenate([ds.train, ds.val, ds.test])
        np.testing.assert_array_equal(joined, np.arange(float(n)))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dataio.split(np.arange(10.0), 0.5, 0.2, 0.2)

    def test_min_len(self):
        with pytest.raises(PartitionTooShort):
            dataio.split(np.arange(100.0), min_len=15)


class TestStandardize:
    def test_train_stats(self):
        ds = dataio.split(np.random.default_rng(0).normal(2.0, 3.0, 200))
        scaled, scaler = dataio.standardize(ds)
        assert abs(np.mean(scaled.train)) < 1e-12
        assert abs(np.std(scaled.train) - 1.0) < 1e-12
        assert scaler.mean == pytest.approx(np.mean(ds.train))

    def test_round_trip(self):
        ds = dataio.split(np.random.default_rng(1).normal(5.0, 0.5, 120))
        scaled, scaler = dataio.standardize(ds)
        np.testing.assert_allclose(
            dataio.destandardize(scaled.raw, scaler), ds.raw, atol=1e-12)

    def test_zero_variance(self):
        ds = dataio.split(np.full(100, 3.0))
        with pytest.raises(ZeroVariance):
            dataio.standardize(ds)

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_tiny_values_that_vary_are_scaled(self, scale):
        # the squares inside np.std underflow to zero at these magnitudes
        sine = np.sin(np.arange(400) / 3)
        assert np.std(sine * scale) == 0.0
        scaled, scaler = dataio.standardize(dataio.split(sine * scale))
        reference, ref_scaler = dataio.standardize(dataio.split(sine))
        assert scaler.std == pytest.approx(ref_scaler.std * scale, rel=1e-9)
        np.testing.assert_allclose(scaled.raw, reference.raw, rtol=1e-9,
                                   atol=1e-9)


class TestBenchmark:
    def test_noiseless_is_two_sines(self):
        x = dataio.multi_frequency_benchmark(length=128)
        t = np.arange(128)
        expected = np.sin(2 * np.pi * t / 64) + \
            0.5 * np.sin(2 * np.pi * t / 8)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_noise_seeds_differ(self):
        a = dataio.multi_frequency_benchmark(noise_level=0.05, seed=0)
        b = dataio.multi_frequency_benchmark(noise_level=0.05, seed=1)
        assert not np.array_equal(a, b)

    def test_multiplicative_noise_bound(self):
        noisy = dataio.multi_frequency_benchmark(length=256, noise_level=0.1,
                                                 seed=3)
        clean = dataio.multi_frequency_benchmark(length=256)
        assert np.all(np.abs(noisy - clean) <= 0.1 * np.abs(clean) + 1e-12)

    def test_seeded_determinism(self):
        kwargs = dict(length=64, noise_level=0.2, seed=9)
        np.testing.assert_array_equal(
            dataio.multi_frequency_benchmark(**kwargs),
            dataio.multi_frequency_benchmark(**kwargs))

    @pytest.mark.parametrize("length", [0, -1])
    def test_length_below_one(self, length):
        with pytest.raises(ValueError, match="length must be >= 1"):
            dataio.multi_frequency_benchmark(length=length)

    # SHA-256 of the little-endian float64 bytes; every test, demo and
    # benchmark figure computed on this series depends on these bits
    @pytest.mark.parametrize("length,noise_level,seed,digest", [
        (480, 0.0, 0, "abfb0a203423321451b6ea4c9d640d3e"
                      "fa678228127255eed53f31eded2deb9f"),
        (960, 0.05, 0, "1ad7256ec5f7d5adee61bf76945324b9"
                       "482f2d5a7e3ef47067854ddc9f1a5e6a"),
        (960, 0.05, 3, "46d8f14882ab2a2f9dcf269c57b62569"
                       "6c400a3eed94dea46e7a39c35d42d5fb"),
        (257, 0.1, 7, "167a15921e9ce353d8f8b5538d6ddb95"
                      "a4bebf7b372f119023a20f5839fd6d4a"),
    ], ids=["480-0.0-0", "960-0.05-0", "960-0.05-3", "257-0.1-7"])
    def test_bits_pinned(self, length, noise_level, seed, digest):
        x = dataio.multi_frequency_benchmark(length=length,
                                             noise_level=noise_level,
                                             seed=seed)
        assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == \
            digest
