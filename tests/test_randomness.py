"""Randomness battery: known vectors, degenerate inputs, cross-checks.

Expected p-values are recomputed with straight-line statistics and
50-digit special functions (mpmath) in ``_oracles``; the package's
scipy-backed path must agree to 1e-6 or better.
"""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gammaincc

from platoonkey import randomness
from platoonkey.randomness import (
    _BINCOUNT_SLICE,
    InsufficientData,
    _as_bits,
    _pattern_counts,
    _walk_range,
    approx_entropy_test,
    block_frequency_test,
    cusum_test,
    dft_test,
    frequency_test,
    longest_run_test,
    run_battery,
    runs_test,
    serial_test,
)

import _oracles as orc


def bits_of(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


# NIST SP 800-22 Rev. 1a: the first 100 bits of the binary expansion of
# pi, the input of the worked examples in sections 2.1.8, 2.2.8, 2.3.8
# and 2.13.8
PI_100 = bits_of("1100100100001111110110101010001000100001011010001100"
                 "001000110100110001001100011001100010100010111000")


def biased_bits(n, p, seed):
    return (np.random.default_rng(seed).random(n) < p).astype(np.uint8)


ALTERNATING = np.tile([0, 1], 500)
ZEROS = np.zeros(1000, dtype=np.uint8)


class TestSpecialFunctionAccuracy:
    def test_erfc_matches_high_precision(self):
        for x in np.linspace(0.0, 8.0, 64):
            assert erfc(x) == pytest.approx(orc.erfc_hp(x), abs=1e-10)

    def test_gammaincc_matches_high_precision(self):
        for a in (0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 64.0):
            for x in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0):
                assert gammaincc(a, x) == pytest.approx(
                    orc.gammaincc_hp(a, x), abs=1e-10)


class TestFrequency:
    def test_alternating_is_perfect(self):
        assert frequency_test(ALTERNATING) == 1.0

    def test_all_zeros_rejected(self):
        assert frequency_test(ZEROS) < 1e-6

    def test_short_vector_closed_form(self):
        # S = 16 over n = 100: erfc(16 / sqrt(200)), 50-digit reference,
        # and the worked example's 0.109599
        p = frequency_test(PI_100)
        assert p == pytest.approx(orc.erfc_hp(16 / np.sqrt(200)), abs=1e-12)
        assert round(p, 6) == 0.109599

    def test_complement_symmetry(self):
        b = random_bits(2000, 1)
        assert frequency_test(b) == frequency_test(1 - b)

    def test_floor_enforced(self):
        with pytest.raises(InsufficientData):
            frequency_test(bits_of("1011010101"))


class TestBlockFrequency:
    def test_balanced_blocks_perfect(self):
        b = np.tile([0, 1], 500)
        assert block_frequency_test(b, block_size=20) == 1.0

    def test_all_ones_rejected(self):
        assert block_frequency_test(np.ones(1000, dtype=np.uint8)) < 1e-6

    def test_matches_reference_implementation(self):
        b = random_bits(10_000, 5)
        m = 128
        assert block_frequency_test(b, block_size=m) == pytest.approx(
            orc.block_frequency_p(b.tolist(), m), abs=1e-6)

    def test_short_known_vector(self):
        p = block_frequency_test(PI_100, block_size=10)
        assert p == pytest.approx(orc.block_frequency_p(PI_100.tolist(), 10),
                                  abs=1e-12)
        assert round(p, 6) == 0.706438


class TestCusum:
    def test_alternating_near_one(self):
        assert cusum_test(ALTERNATING) > 0.99

    def test_all_zeros_rejected(self):
        assert cusum_test(ZEROS) < 1e-6

    def test_reverse_equals_forward_of_reversed(self):
        b = random_bits(3000, 9)
        assert cusum_test(b, "reverse") == cusum_test(b[::-1], "forward")

    def test_nist_worked_example(self):
        assert round(cusum_test(PI_100, "forward"), 6) == 0.219194
        assert round(cusum_test(PI_100, "reverse"), 6) == 0.114866

    def test_matches_reference(self):
        for seed in range(5):
            b = random_bits(2000, seed)
            for direction, rev in (("forward", False), ("reverse", True)):
                assert cusum_test(b, direction) == pytest.approx(
                    orc.cusum_p(b.tolist(), reverse=rev), abs=1e-9)

    @pytest.mark.parametrize("n", [127, 128, 129, 32_767, 32_768, 32_769])
    def test_constant_streams_at_walk_dtype_edges(self, n):
        # a constant stream's walk ends at +-n, the edge of the narrowest
        # integer dtype that holds it; the two signs are mirror images
        ones, zeros = np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
        for direction in ("forward", "reverse"):
            assert cusum_test(ones, direction) == cusum_test(zeros, direction)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(100, 20_000), p=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_property_reverse_is_forward_of_reversed(self, n, p, seed):
        # the reverse excursion is read off the forward walk, with no
        # reversed copy, so the reversed stream is an independent check
        b = biased_bits(n, p, seed)
        reverse = cusum_test(b, "reverse")
        assert reverse == cusum_test(b[::-1], "forward")
        assert reverse == pytest.approx(orc.cusum_p(b.tolist(), reverse=True),
                                        abs=1e-9)


def plain_walk_range(bits):
    """(max, min, S_n) of the walk S_0 = 0, ..., S_n from a plain cumsum."""
    walk = np.concatenate([[0], np.cumsum(2 * bits.astype(np.int64) - 1)])
    return int(walk.max()), int(walk.min()), int(walk[-1])


class TestWalkRange:
    # the walk is read a packed byte of steps at a time, the last n mod 8
    # steps one by one
    def test_matches_cumsum_at_every_short_length(self):
        for n in range(1, 201):
            for bits in (random_bits(n, n), biased_bits(n, 0.8, n),
                         np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)):
                assert _walk_range(bits) == plain_walk_range(bits), n

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 20_000), p=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_cumsum(self, n, p, seed):
        bits = biased_bits(n, p, seed)
        assert _walk_range(bits) == plain_walk_range(bits)
        assert _walk_range(bits[::-1]) == plain_walk_range(bits[::-1])


class TestRuns:
    def test_biased_input_precheck(self):
        assert runs_test(ZEROS) == 0.0

    def test_alternating_rejected(self):
        # maximal run count is as non-random as a constant stream
        assert runs_test(ALTERNATING) < 1e-6

    def test_nist_worked_example(self):
        assert round(runs_test(PI_100), 6) == 0.500798

    def test_matches_reference(self):
        for seed in range(5):
            b = random_bits(1500, seed + 20)
            assert runs_test(b) == pytest.approx(orc.runs_p(b.tolist()), abs=1e-9)


class TestLongestRun:
    def test_all_zeros_rejected(self):
        assert longest_run_test(np.zeros(6272, dtype=np.uint8)) < 1e-6

    def test_minimum_length(self):
        with pytest.raises(InsufficientData):
            longest_run_test(random_bits(100, 0))

    def test_random_stream_passes(self):
        assert longest_run_test(random_bits(20_000, 3)) > 0.01

    # 128, 6271: 8-bit blocks; 6272: 128-bit blocks; 750000: 10000-bit blocks
    @pytest.mark.parametrize("n", [128, 6271, 6272, 750_000])
    @pytest.mark.parametrize("stream", [
        lambda n: random_bits(n, 5),
        lambda n: np.zeros(n, dtype=np.uint8),
        lambda n: np.ones(n, dtype=np.uint8),
        lambda n: biased_bits(n, 0.1, 6),
        lambda n: biased_bits(n, 0.9, 7),
    ], ids=["random", "zeros", "ones", "p0.1", "p0.9"])
    def test_matches_per_block_loop(self, n, stream):
        bits = stream(n)
        assert longest_run_test(bits) == orc.reference_longest_run_test(bits)

    @pytest.mark.parametrize("n, m", [(128, 8), (6272, 128), (750_000, 10_000)])
    def test_runs_past_the_top_category(self, n, m):
        # block i holds one run of i % (m + 1) ones: every category and
        # lengths below the first and above the last one
        rows = np.zeros((n // m, m), dtype=np.uint8)
        for i, row in enumerate(rows):
            length = i % (m + 1)
            start = i % (m - length + 1)
            row[start:start + length] = 1
        bits = rows.ravel()
        assert longest_run_test(bits) == orc.reference_longest_run_test(bits)

    def test_run_straddling_blocks_is_split(self):
        # two ones closing block 0 and two opening block 1 are two runs
        # of 2, as if they sat in blocks 0 and 2, not one run of 4
        straddle = np.zeros(128, dtype=np.uint8)
        straddle[6:10] = 1
        apart = np.zeros(128, dtype=np.uint8)
        apart[[6, 7, 16, 17]] = 1
        assert longest_run_test(straddle) == longest_run_test(apart)
        assert longest_run_test(straddle) == \
            orc.reference_longest_run_test(straddle)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(128, 20_000), p=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_per_block_loop(self, n, p, seed):
        bits = biased_bits(n, p, seed)
        assert longest_run_test(bits) == orc.reference_longest_run_test(bits)


class TestDft:
    def test_periodic_rejected(self):
        assert dft_test(np.tile([0, 0, 1, 1], 2500)) < 1e-6

    def test_random_stream_passes(self):
        assert dft_test(random_bits(10_000, 4)) > 0.01


class TestPatternCounts:
    def test_every_width_matches_direct_count(self):
        b = random_bits(3001, 8)
        counts = _pattern_counts(b.astype(np.int64), 5)
        ext = "".join(map(str, b)) + "".join(map(str, b[:4]))
        for k in range(6):
            direct = [0] * (1 << k)
            for i in range(len(b)):
                direct[int(ext[i:i + k] or "0", 2)] += 1
            assert counts[k].tolist() == direct, k

    # the codes are uint8 up to 8 bits, uint16 up to 16 and uint32 above
    @pytest.mark.parametrize("m", [1, 2, 8, 9, 16, 17])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_code_dtype_widths_match_direct_count(self, m, dtype):
        b = random_bits(1031, m)
        counts = _pattern_counts(b.astype(dtype), m)
        ext = "".join(map(str, b)) + "".join(map(str, b[:m - 1]))
        for k in range(m + 1):
            direct = [0] * (1 << k)
            for i in range(len(b)):
                direct[int(ext[i:i + k] or "0", 2)] += 1
            assert counts[k].tolist() == direct, k


    # lengths on both sides of a multiple of the slice bincount reads
    @pytest.mark.parametrize("n", [_BINCOUNT_SLICE - 1, _BINCOUNT_SLICE,
                                   _BINCOUNT_SLICE + 1, 3 * _BINCOUNT_SLICE + 7])
    def test_sliced_count_matches_whole_count(self, n):
        b = random_bits(n, n)
        ext = np.concatenate([b, b[:4]]).astype(np.int64)
        codes = sum(ext[k:k + n] << (4 - k) for k in range(5))
        assert _pattern_counts(b, 5)[5].tolist() == \
            np.bincount(codes, minlength=32).tolist()


@pytest.mark.parametrize("test, n, m", [
    (serial_test, 16, 18), (serial_test, 16, 17), (serial_test, 16, 5),
    (approx_entropy_test, 64, 63), (approx_entropy_test, 64, 64),
    (approx_entropy_test, 64, 6),
])
def test_pattern_width_past_the_stream_rejected(test, n, m):
    # 2**m (serial) or 2**(m+1) (approximate entropy) patterns need at
    # least as many windows
    with pytest.raises(ValueError, match=f"m={m}, n={n}"):
        test(random_bits(n, m), m=m)


@pytest.mark.parametrize("test, n, m", [(serial_test, 16, 4),
                                        (approx_entropy_test, 64, 5)])
def test_widest_pattern_the_stream_allows_runs(test, n, m):
    ps = test(random_bits(n, m), m=m)
    assert all(0.0 <= p <= 1.0 for p in np.atleast_1d(ps))


class TestApproxEntropy:
    def test_all_zeros_rejected(self):
        assert approx_entropy_test(ZEROS, m=2) < 1e-6

    def test_matches_reference(self):
        b = random_bits(4000, 6)
        assert approx_entropy_test(b, m=2) == pytest.approx(
            orc.apen_p(b.tolist(), 2), abs=1e-6)

    def test_period_four_rejected(self):
        assert approx_entropy_test(np.tile([0, 0, 1, 1], 2500), m=3) < 1e-6


class TestSerial:
    def test_period_four_rejected(self):
        p1, p2 = serial_test(np.tile([0, 0, 1, 1], 2500), m=3)
        assert p1 < 1e-6

    def test_matches_reference(self):
        b = random_bits(4000, 7)
        ours = serial_test(b, m=3)
        ref = orc.serial_p(b.tolist(), 3)
        assert ours[0] == pytest.approx(ref[0], abs=1e-6)
        assert ours[1] == pytest.approx(ref[1], abs=1e-6)


class TestBattery:
    def test_good_stream_all_pass(self):
        report = run_battery(random_bits(20_000, 44))
        assert report.all_passed
        assert [r.name for r in report.results] == [
            "frequency", "block_frequency", "cusum_forward", "cusum_reverse",
            "runs", "longest_run", "dft", "approx_entropy", "serial"]
        assert len(report.results[-1].p_values) == 2

    def test_pass_flag_matches_threshold(self):
        report = run_battery(random_bits(20_000, 11))
        for r in report.results:
            assert r.passed == all(p > 0.01 for p in r.p_values)

    def test_determinism(self):
        b = random_bits(15_000, 2)
        r1 = run_battery(b)
        r2 = run_battery(b)
        for a, c in zip(r1.results, r2.results):
            assert a.p_values == c.p_values

    def test_degenerate_stream_fails(self):
        report = run_battery(np.zeros(10_000, dtype=np.uint8))
        assert not report.all_passed
        by_name = {r.name: r for r in report.results}
        assert by_name["frequency"].p_values[0] < 1e-6
        # the runs frequency precheck fails, so the runs test returns 0
        assert by_name["runs"].p_values == (0.0,)

    def test_p_values_in_unit_interval(self):
        for seed in range(10):
            report = run_battery(random_bits(5_000, seed + 100))
            for r in report.results:
                for p in r.p_values:
                    assert 0.0 <= p <= 1.0


class TestConcurrentBattery:
    """The spectral test runs on the calling thread, the rest on one
    worker thread; the report must be the tests' results in order."""

    @pytest.mark.parametrize("n", [100, 128, 999, 1000, 6271, 6272,
                                   68_179, 200_000])
    def test_equals_the_tests_called_one_by_one(self, n):
        b = random_bits(n, n)
        expected = []
        for name, test in BATTERY_ORDER:
            try:
                ps = test(b)
            except InsufficientData:
                ps = ()
            expected.append((name, ps if isinstance(ps, tuple) else (ps,)))
        assert [(r.name, r.p_values) for r in run_battery(b).results] == expected

    @pytest.mark.parametrize("name", ["serial_test", "frequency_test", "dft_test"])
    def test_error_is_raised_and_no_thread_outlives_the_call(self, monkeypatch,
                                                             name):
        b = random_bits(2000, 5)
        before = threading.active_count()
        run_battery(b)
        assert threading.active_count() == before

        def broken(*args, **kwargs):
            raise RuntimeError("broken test")
        monkeypatch.setattr(randomness, name, broken)
        with pytest.raises(RuntimeError, match="broken test"):
            run_battery(b)
        assert threading.active_count() == before

    def test_every_test_is_called_through_its_module_attribute(self, monkeypatch):
        names = ("frequency_test", "block_frequency_test", "cusum_test",
                 "runs_test", "longest_run_test", "dft_test",
                 "approx_entropy_test", "serial_test")
        calls = []
        for name in names:
            def counted(*args, _name=name, _test=getattr(randomness, name),
                        **kwargs):
                calls.append(_name)
                return _test(*args, **kwargs)
            monkeypatch.setattr(randomness, name, counted)
        run_battery(random_bits(2000, 6))
        assert Counter(calls) == {name: 2 if name == "cusum_test" else 1
                                  for name in names}


def cusum_forward(bits):
    return cusum_test(bits, "forward")


def cusum_reverse(bits):
    return cusum_test(bits, "reverse")


BATTERY_ORDER = (
    ("frequency", frequency_test), ("block_frequency", block_frequency_test),
    ("cusum_forward", cusum_forward), ("cusum_reverse", cusum_reverse),
    ("runs", runs_test), ("longest_run", longest_run_test), ("dft", dft_test),
    ("approx_entropy", approx_entropy_test), ("serial", serial_test),
)


SINGLE_TESTS = [
    frequency_test, block_frequency_test, cusum_forward, cusum_reverse,
    runs_test, longest_run_test, dft_test, approx_entropy_test, serial_test,
]


def battery_rows(bits):
    report = run_battery(bits)
    return report.input_length, report.results, report.parameters


class TestInputDtype:
    """A uint8 stream is used as is, any other input converted: the
    results must not depend on which way a stream arrived."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_result_for_every_input_type(self, seed):
        b = biased_bits(5003, 0.5 if seed else 0.48, seed)
        inputs = [b.astype(bool), b.astype(np.int64), b.tolist(),
                  b.reshape(1, -1)]
        expected = battery_rows(b)
        for bits in inputs:
            assert battery_rows(bits) == expected
        for test in SINGLE_TESTS:
            ref = test(b)
            for bits in inputs:
                assert test(bits) == ref

    # a cast to uint8 would truncate 0.5 and 1.2 and wrap -1
    @pytest.mark.parametrize("bad", [
        np.array([0, 1, 2] * 2000, dtype=np.uint8),
        np.array([0, 1, -1] * 2000, dtype=np.int64),
        [0.5, 1.0] * 3000, [0, 1, 1.2] * 2000, [0, 1, -1] * 2000,
        np.array([0.5, 1.0] * 3000), np.array([0.0, 1.0, 1.2] * 2000),
        np.array([0.0, 1.0, -1.0] * 2000),
    ], ids=["uint8_2", "int64_minus_1", "list_half", "list_1.2", "list_minus_1",
            "float_half", "float_1.2", "float_minus_1"])
    # ids drop a private name's underscore, so an id does not follow its visibility
    @pytest.mark.parametrize("run", [run_battery, *SINGLE_TESTS],
                             ids=lambda run: run.__name__.lstrip("_"))
    def test_non_bit_values_rejected(self, bad, run):
        with pytest.raises(ValueError, match="only bits 0/1"):
            run(bad)

    def test_uint8_stream_is_shared_and_left_unchanged(self):
        b = random_bits(5000, 3)
        assert np.shares_memory(_as_bits(b), b)
        before = b.copy()
        run_battery(b)
        assert np.array_equal(b, before)


class TestUniformitySmoke:
    def test_rejection_rates_near_alpha(self):
        # 200 seeded uniform streams; at alpha = 0.01 each test should
        # reject between 0 and 5 percent of them
        n_streams = 200
        rejects = {}
        for seed in range(n_streams):
            report = run_battery(random_bits(10_000, seed + 1000))
            for r in report.results:
                bad = any(p <= 0.01 for p in r.p_values)
                rejects[r.name] = rejects.get(r.name, 0) + int(bad)
        for name, count in rejects.items():
            assert count / n_streams <= 0.05, (name, count)
