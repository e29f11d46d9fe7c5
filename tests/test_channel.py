"""Channel model: closed forms, round trips, estimation, trace generation."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from platoonkey import channel
from platoonkey.channel import (
    ChannelParams,
    PlatoonGeometry,
    _ar1,
    _child,
    _estimate_rows,
    generate_trace,
    rss_of_link,
    trace_key,
)

from _oracles import (copying_ar1, copying_estimate_rows, copying_trace,
                      distance_from_rss, exact_estimate, reference_cycle_seeds,
                      reference_trace, sheppard_mismatch)


def params(**kw):
    base = dict(channel_constant_db=0.0,
                path_loss_exponent=2.0, shadowing_sigma_db=0.0,
                rss_decode_floor_db=-100.0)
    base.update(kw)
    return ChannelParams(**base)


class TestRssOfLink:
    def test_unit_distance_zero_constant(self):
        assert rss_of_link(params(), 1.0, 0.0) == 0.0

    def test_negates_receive_power_example(self):
        # a beacon loses 20 dB over 10 m, whatever its transmit power
        assert rss_of_link(params(), 10.0, 0.0) == pytest.approx(20.0, abs=1e-12)

    def test_closed_form(self):
        # 25*log10(4) - 3 - 1.2, evaluated independently to 12 digits
        p = params(channel_constant_db=3.0, path_loss_exponent=2.5)
        assert rss_of_link(p, 4.0, 1.2) == pytest.approx(10.85149978319906, abs=1e-11)

    def test_nonpositive_distance_rejected(self):
        for d in (0.0, -3.0, [2.0, 0.0], math.nan, [2.0, math.nan]):
            with pytest.raises(ValueError, match="distance_m must be > 0"):
                rss_of_link(params(), d, 0.0)

    def test_round_trip(self):
        p = params(channel_constant_db=2.0, path_loss_exponent=2.3)
        h = rss_of_link(p, 7.3, -2.1)
        assert distance_from_rss(p, h, -2.1) == pytest.approx(7.3, rel=1e-9)

    def test_round_trip_many(self):
        rng = np.random.default_rng(3)
        p = params(channel_constant_db=1.5, path_loss_exponent=2.7)
        for _ in range(200):
            d = float(rng.uniform(0.1, 500.0))
            phi = float(rng.normal(0, 6.0))
            h = rss_of_link(p, d, phi)
            assert distance_from_rss(p, h, phi) == pytest.approx(d, rel=1e-9)

    def test_monotone_in_distance(self):
        p = params(path_loss_exponent=2.5)
        d = np.linspace(0.5, 80.0, 200)
        h = rss_of_link(p, d, 0.0)
        assert np.all(np.diff(h) > 0)


class TestDistanceFromRss:
    def test_inverse_cases(self):
        assert distance_from_rss(params(), 20.0, 0.0) == pytest.approx(10.0, rel=1e-12)
        assert distance_from_rss(params(), 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form(self):
        p = params(channel_constant_db=3.0, path_loss_exponent=2.5)
        assert distance_from_rss(p, 12.0, 0.5) == pytest.approx(
            4.168693834703354, rel=1e-12)

    def test_always_positive(self):
        p = params()
        for h in (-500.0, -20.0, 0.0, 90.0):
            assert distance_from_rss(p, h, 0.0) > 0


class TestEstimateLeaderRss:
    def test_exact_under_zero_shadowing(self):
        p = params(channel_constant_db=3.0, path_loss_exponent=2.2)
        dv = 4.0
        h13 = rss_of_link(p, 3 * dv, 0.0)
        h23 = rss_of_link(p, 2 * dv, 0.0)
        est = _estimate_rows(p, h13, h23, np.empty(np.shape(h13)))
        assert est == pytest.approx(rss_of_link(p, dv, 0.0), rel=1e-9)

    def test_zero_difference_fails(self):
        p = params()
        h = rss_of_link(p, 5.0, 0.0)
        assert np.isnan(_estimate_rows(p, h, h, np.empty(np.shape(h))))

    def test_negative_difference_fails(self):
        p = params()
        h1 = rss_of_link(p, 2.0, 0.0)
        assert np.isnan(_estimate_rows(p, h1, rss_of_link(p, 5.0, 0.0),
                                       np.empty(np.shape(h1))))

    def test_exactness_random_geometry(self):
        rng = np.random.default_rng(11)
        p = params(channel_constant_db=2.5, path_loss_exponent=2.0)
        for _ in range(50):
            d2 = float(rng.uniform(1.0, 40.0))
            d1 = d2 + float(rng.uniform(0.5, 30.0))
            h1 = rss_of_link(p, d1, 0.0)
            est = _estimate_rows(p, h1, rss_of_link(p, d2, 0.0), np.empty(np.shape(h1)))
            assert est == pytest.approx(rss_of_link(p, d1 - d2, 0.0), rel=1e-9)

    # the largest error of an estimate against the exact one rounded, per
    # reading gap h1 - h2 in dB, in ulps of max(|h2|, |exact|): the estimate
    # is h2 plus a log term, so it is no finer than h2's floats, and one
    # near 0 dB would make a bound in its own ulps read the draw.  Each is
    # the worst over this test's draw at seeds 0-29, at distances U(1, 100)
    # m and U(1, 40) m
    ULP_BOUNDS = {1e-9: 1, 1e-6: 2, 1e-3: 1, 0.1: 1, 3.0: 3, 20.0: 2}

    def test_matches_the_exact_estimate(self):
        p = ChannelParams()
        rng = np.random.default_rng(13)
        for gap, bound in self.ULP_BOUNDS.items():
            h2 = rss_of_link(p, rng.uniform(1.0, 100.0, 400), 0.0)
            h1 = h2 + gap
            got = _estimate_rows(p, h1, h2, np.empty(np.shape(h1)))
            want = np.array([exact_estimate(p, a, b) for a, b in zip(h1, h2)])
            ulp = np.spacing(np.maximum(np.abs(h2), np.abs(want)))
            assert (np.abs(got - want) / ulp).max() <= bound, gap
            # reversed, equal and NaN readings: valid exactly when h1 > h2
            a = np.concatenate((h1, h2, h2, h1[:3], [np.nan]))
            b = np.concatenate((h2, h1, h2, [np.nan] * 3, h2[:1]))
            est = _estimate_rows(p, a, b, np.empty(np.shape(a)))
            np.testing.assert_array_equal(~np.isnan(est), a > b)


# Frozen regression curve: mean |estimate - truth| in dB at vehicle 3 over
# 10^4 slots, seed 777, sigma 2 dB with the calibrated-style noise knobs.
# Values recorded from the first run of this configuration.
ESTIMATION_ERROR_BASELINE = {
    2.0: 1.393577626327248,
    4.0: 1.7308373611116774,
    6.0: 2.199149310343485,
    8.0: 2.762536321978868,
}


class TestEstimationErrorCurve:
    def test_error_positive_and_grows_with_distance(self):
        p = ChannelParams(shadowing_sigma_db=2.0, shadowing_common_fraction=0.9,
                          measurement_noise_db=0.12, rss_decode_floor_db=-100.0)
        curve = {}
        for dv in (2.0, 4.0, 6.0, 8.0):
            g = PlatoonGeometry(n_vehicles=3, pair_distance_m=dv)
            t = generate_trace(p, g, 10_000, 777)[0]
            ok = ~np.isnan(t[2])
            err = np.abs(t[2][ok] - t[0][ok])
            curve[dv] = float(err.mean())
        values = [curve[d] for d in sorted(curve)]
        assert all(v > 0 for v in values)
        assert values == sorted(values)
        for dv, frozen in ESTIMATION_ERROR_BASELINE.items():
            assert curve[dv] == pytest.approx(frozen, rel=1e-9)


class TestGenerateTrace:
    def test_noise_scale_is_formed_only_with_measurement_noise(self):
        # the scale 10 ** (H / 20) of a reading's noise overflows a float
        # once the mean attenuation H passes about 6165 dB
        g = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0)
        p = ChannelParams(channel_constant_db=-7000.0)
        (t,) = generate_trace(p, g, 20, 1)
        assert np.isfinite(t[:2]).all()
        with pytest.raises(ValueError,
                           match="measurement_noise_db.*channel_constant_db"):
            generate_trace(replace(p, measurement_noise_db=0.05), g, 20, 1)

    def test_noiseless_sequences_identical(self):
        p = params()
        g = PlatoonGeometry(n_vehicles=5, pair_distance_m=3.0)
        t = generate_trace(p, g, 30, 5)[0]
        assert not np.isnan(t[:-1]).any()
        for i in range(2, 6):
            np.testing.assert_allclose(t[i - 1], t[0], rtol=1e-9)

    def test_same_seed_bit_identical(self):
        p = ChannelParams(shadowing_sigma_db=3.0, measurement_noise_db=0.1,
                          reciprocity_sigma_db=0.2)
        g = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0)
        a = generate_trace(p, g, 100, 123)[0]
        b = generate_trace(p, g, 100, 123)[0]
        np.testing.assert_array_equal(a[:-1], b[:-1])
        np.testing.assert_array_equal(a[-1], b[-1])

    def test_different_seed_differs(self):
        p = ChannelParams(shadowing_sigma_db=3.0)
        g = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        a = generate_trace(p, g, 50, 1)[0]
        b = generate_trace(p, g, 50, 2)[0]
        assert not np.array_equal(a[:-1], b[:-1])

    def test_reciprocity_default_identical_lead_pair(self):
        p = ChannelParams(shadowing_sigma_db=4.0)
        g = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        t = generate_trace(p, g, 200, 9)[0]
        np.testing.assert_array_equal(t[0], t[1])

    def test_reciprocity_noise_separates_lead_pair(self):
        p = ChannelParams(shadowing_sigma_db=4.0, reciprocity_sigma_db=0.5)
        g = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        t = generate_trace(p, g, 200, 9)[0]
        assert not np.array_equal(t[0], t[1])

    def test_eavesdropper_uncorrelated(self):
        p = ChannelParams(shadowing_sigma_db=4.0)
        g = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0,
                            eavesdropper_position="P2",
                            eavesdropper_distance_m=4.0)
        corrs = []
        for seed in range(10):
            t = generate_trace(p, g, 500, seed)[0]
            ok = ~np.isnan(t[-1])
            if ok.sum() < 50:
                continue
            c = np.corrcoef(t[0][ok], t[-1][ok])[0, 1]
            corrs.append(abs(c))
        assert corrs and max(corrs) < 0.2

    def test_eavesdropper_stream_disjoint_from_platoon(self):
        # moving the eavesdropper must not perturb the platoon's draws
        p = ChannelParams(shadowing_sigma_db=3.0, measurement_noise_db=0.1)
        g1 = PlatoonGeometry(4, 2.0, "P1", 3.0)
        g2 = PlatoonGeometry(4, 2.0, "P3", 6.0)
        a = generate_trace(p, g1, 80, 55)[0]
        b = generate_trace(p, g2, 80, 55)[0]
        np.testing.assert_array_equal(a[:-1], b[:-1])
        assert not np.array_equal(np.nan_to_num(a[-1]), np.nan_to_num(b[-1]))

    def test_slots_validated(self):
        with pytest.raises(ValueError):
            generate_trace(params(), PlatoonGeometry(3, 2.0), 0, 1)

    def test_noiseless_passes_are_one_read_only_trace(self):
        # without noise the passes are equal, so the cycle has one block
        p = ChannelParams(shadowing_sigma_db=3.0, shadowing_autocorr=0.5)
        g = PlatoonGeometry(n_vehicles=6, pair_distance_m=2.0)
        single = generate_trace(p, g, 120, 31)
        traces = generate_trace(p, g, 120, 31, passes=5)
        assert traces.shape == single.shape == (1, 7, 120)
        assert traces.dtype == np.float64
        assert traces.tobytes() == single.tobytes()
        assert not traces.flags.writeable
        with pytest.raises(ValueError):
            traces[0, 0, 0] = 0.0

    @pytest.mark.parametrize("noise", [
        dict(measurement_noise_db=0.1),
        dict(reciprocity_sigma_db=0.5),
        dict(measurement_noise_db=0.1, reciprocity_sigma_db=0.5),
    ])
    def test_noisy_passes_share_no_memory(self, noise):
        p = ChannelParams(shadowing_sigma_db=3.0, **noise)
        g = PlatoonGeometry(n_vehicles=6, pair_distance_m=2.0)
        traces = generate_trace(p, g, 120, 31, passes=3)
        assert traces.shape == (3, 7, 120)
        assert not traces.flags.writeable
        for i, t in enumerate(traces):
            for u in traces[i + 1:]:
                assert not np.shares_memory(t, u)
                assert t.tobytes() != u.tobytes()

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_lag1_bit_agreement_matches_sheppard(self, rho):
        # AR(1) shadowing correlates consecutive readings at rho, so the
        # L=2 bits (reading against its median) of consecutive slots agree
        # with probability 1/2 + arcsin(rho)/pi, not 1/2
        p = ChannelParams(shadowing_autocorr=rho)
        g = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        agree = []
        for seed in range(40):
            reading = generate_trace(p, g, 2000, seed)[0, 0]
            bits = reading >= np.median(reading)
            agree.append(np.mean(bits[1:] == bits[:-1]))
        se = np.std(agree, ddof=1) / math.sqrt(len(agree))
        assert abs(np.mean(agree) - (1.0 - sheppard_mismatch(rho))) < 5 * se

    # sha256 over every returned array's bytes (each pass's vehicle rows,
    # then its eavesdropper row), in the test's loop order, recorded with
    # one estimator call for the followers and one for the eavesdropper:
    # stacking them moves no byte
    TRACE_DIGEST = "fee9a363eba796b25761b33be5447be2beb2deed36df20131bc94f777e4f1e16"

    def test_trace_bytes_pinned(self):
        h = hashlib.sha256()
        for noise in (dict(), dict(measurement_noise_db=0.1),
                      dict(reciprocity_sigma_db=0.5), dict(shadowing_autocorr=0.7)):
            p = ChannelParams(shadowing_common_fraction=0.5, **noise)
            for n in (3, 4, 10):
                g = PlatoonGeometry(n, 2.0, "P3", 6.0)
                for passes in (1, 3):
                    for seed in range(5):
                        h.update(generate_trace(p, g, 40, seed, passes=passes).tobytes())
        assert h.hexdigest() == self.TRACE_DIGEST

    @staticmethod
    def warm_peaks(monkeypatch, p, passes):
        """Peak bytes above the start of a warm N=10, T=1000 call, over its
        draw (until the passes begin) and over the whole call."""
        g = PlatoonGeometry(n_vehicles=10, pair_distance_m=2.0)
        draw_peaks, draws_per_pass = [], channel._draws_per_pass

        def passes_begin(params):  # the peak so far is the draw's
            draw_peaks.append(tracemalloc.get_traced_memory()[1])
            return draws_per_pass(params)
        monkeypatch.setattr(channel, "_draws_per_pass", passes_begin)
        generate_trace(p, g, 1000, 1, passes)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base, _ = tracemalloc.get_traced_memory()
            generate_trace(p, g, 1000, 1, passes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        return draw_peaks[-1] - base, peak - base

    # N=10, T=1000: a float row is 8 kB.  A broadcast in-place ufunc takes
    # numpy's 8192-element buffer (64 KiB), and the estimator's subtraction
    # of two strided row views one for each view; the slacks are those
    # buffers and 32 KiB more
    ROW, DRAW_SLACK, CALL_SLACK = 8 * 1000, 96 * 1024, 160 * 1024

    def test_a_warm_call_allocates_the_faded_block_and_its_outputs(self, monkeypatch):
        # The draw writes the 2N-row faded block in place, so until the
        # passes begin it holds that block and the common row; a fresh
        # (2N-3)-row private block is 136 kB.  Then comes the returned
        # block of N rows and the eavesdropper row, into which the
        # estimator writes
        n = 10
        draw, peak = self.warm_peaks(monkeypatch, ChannelParams(), 1)
        assert draw < 2 * n * self.ROW + self.DRAW_SLACK
        assert peak < (2 * n + n + 1) * self.ROW + self.CALL_SLACK

    def test_noisy_passes_reuse_one_readings_block(self, monkeypatch):
        # per-pass noise adds one 2N-row readings block, which every pass
        # rewrites, and a reciprocity row; each pass's estimates go straight
        # into its block of the returned (Z, N+1, T) array
        n, z = 10, 3
        _, peak = self.warm_peaks(monkeypatch, ChannelParams(measurement_noise_db=0.05), z)
        assert peak < (2 * n + 2 * n + z * (n + 1) + 1) * self.ROW + self.CALL_SLACK


class TestAr1:
    @pytest.mark.parametrize("rho", [0.0, -0.9, 0.5, 0.99])
    @pytest.mark.parametrize("shape", [(500,), (7, 300)])
    def test_colors_its_argument_as_the_copying_filter_does(self, rho, shape):
        draws = np.random.default_rng(17).standard_normal(shape)
        want = copying_ar1(draws.copy(), rho)
        got = _ar1(draws, rho)
        assert got is draws
        assert got.tobytes() == want.tobytes()


class TestTraceKey:
    """Platoons of equal trace_key read the same numbers at a seed."""

    @pytest.mark.parametrize("common", [0.0, 0.9])
    @pytest.mark.parametrize("autocorr", [0.0, 0.6])
    @pytest.mark.parametrize("noise", [{}, {"measurement_noise_db": 0.05},
                                       {"reciprocity_sigma_db": 0.3}],
                             ids=["noiseless", "measurement", "reciprocity"])
    def test_equal_keys_give_the_first_rows(self, noise, autocorr, common):
        p = ChannelParams(shadowing_common_fraction=common,
                          shadowing_autocorr=autocorr, **noise)
        for position in ("P1", "P2", "P3"):
            draws = {}  # (n_vehicles, passes) -> (key, traces)
            for n in (3, 4, 7):
                if position == "P2" and n < 4:
                    continue
                g = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0,
                                    eavesdropper_position=position)
                for passes in (1, 3):
                    draws[n, passes] = (trace_key(p, g, 40, passes),
                                        generate_trace(p, g, 40, 11, passes))
            shared = 0
            for (n, _), (key, narrow) in draws.items():
                for (m, _), (other, wide) in draws.items():
                    if m <= n or key != other:
                        continue
                    shared += 1
                    assert len(narrow) == len(wide)
                    for a, b in zip(narrow, wide):
                        assert a[:-1].tobytes() == b[:n].tobytes()
                        assert a[-1].tobytes() == b[-1].tobytes()
            # every noiseless platoon shares its draw, except behind P3
            assert bool(shared) == (not noise and position != "P3")


class TestChild:
    # each stream's path below the cycle's seed
    PATHS = {"cska": (0,), "cska_loss": (0, 0), "traces": (0, 1, 0),
             "platoon": (0, 1, 0, 0), "eavesdropper": (0, 1, 0, 1), "evcd": (1,)}

    @pytest.mark.parametrize("make", [
        lambda: 7,
        lambda: [3, 1],
        lambda: np.random.SeedSequence(2**70 + 5),
        lambda: np.random.SeedSequence([4, 0], spawn_key=(9, 2), pool_size=8),
    ])
    def test_nodes_equal_the_spawn_chain(self, make):
        want = reference_cycle_seeds(make())
        seed = make()
        for name, path in self.PATHS.items():
            node = _child(seed, *path)
            assert node.generate_state(8).tobytes() == want[name].generate_state(8).tobytes()
            assert node.pool_size == want[name].pool_size
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0


class TestGeometry:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PlatoonGeometry(n_vehicles=2, pair_distance_m=2.0)
        with pytest.raises(ValueError):
            PlatoonGeometry(n_vehicles=4, pair_distance_m=0.0)
        with pytest.raises(ValueError):
            PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0,
                            eavesdropper_distance_m=2.0)

    def test_positions(self):
        g = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0,
                            eavesdropper_position="P1",
                            eavesdropper_distance_m=3.0)
        d1, d2 = g.eavesdropper_link_distances()
        assert d1 == pytest.approx(d2)  # P1 is abreast of the pair midpoint
        g3 = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0,
                             eavesdropper_position="P3",
                             eavesdropper_distance_m=3.0)
        d1, d2 = g3.eavesdropper_link_distances()
        assert d1 - d2 == pytest.approx(2.0)  # collinear behind the tail

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            ChannelParams(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(rss_decode_floor_db=math.inf)
        with pytest.raises(ValueError):
            ChannelParams(shadowing_common_fraction=1.5)
        # values the scenario parser rejects as not finite, built in code
        for field, message in (("path_loss_exponent", "must be > 0"),
                               ("shadowing_sigma_db", "must be >= 0"),
                               ("reciprocity_sigma_db", "noise sigmas"),
                               ("measurement_noise_db", "noise sigmas")):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=message):
                    ChannelParams(**{field: value})


class TestVectorizedEstimators:
    @pytest.mark.parametrize("n", [3, 4, 6, 10, 16])
    @pytest.mark.parametrize("slots", [1, 7, 200])
    def test_bit_identical_to_per_vehicle_loop(self, n, slots):
        for seed in range(4):
            rng = np.random.default_rng([n, slots, seed])
            p = ChannelParams(
                shadowing_sigma_db=float(rng.uniform(0.5, 6.0)),
                shadowing_common_fraction=float(rng.uniform(0.0, 1.0)),
                shadowing_autocorr=0.7 if seed % 2 else 0.0,
                reciprocity_sigma_db=float(rng.uniform(0.0, 1.0)),
                measurement_noise_db=0.2 if seed < 2 else 0.0)
            dv = float(rng.uniform(1.0, 20.0))
            for position in ("P1" if n < 4 else "P2", "P3"):
                g = PlatoonGeometry(n_vehicles=n, pair_distance_m=dv,
                                    eavesdropper_position=position)
                t = generate_trace(p, g, slots, seed)[0]
                values, valid, eaves, eaves_valid = reference_trace(p, g, slots, seed)
                for ours, theirs, ok in ((t[:-1], values, valid),
                                         (t[-1], eaves, eaves_valid)):
                    assert ours.shape == theirs.shape
                    assert ours.tobytes() == theirs.tobytes()
                    np.testing.assert_array_equal(np.isnan(ours), ~ok)


CHANNELS = {
    "noiseless": dict(shadowing_sigma_db=3.0),
    "noisy": dict(shadowing_sigma_db=3.0, measurement_noise_db=0.2),
    "ar1": dict(shadowing_sigma_db=2.0, shadowing_autocorr=0.8,
                shadowing_common_fraction=0.6),
    "reciprocity": dict(shadowing_sigma_db=3.0, reciprocity_sigma_db=0.5),
    # noise about 1e300 dB wide: reading gaps overflow expm1, estimates are NaN
    "overflowing": dict(channel_constant_db=-6000.0, measurement_noise_db=0.1),
}


class TestEstimatorWithoutCopies:
    """The estimator on strided views, without its zero passes or a
    gathered copy of the readings, gives the bytes of the copying one."""

    def test_estimator_bytes_scalar_and_zero_d(self):
        rng = np.random.default_rng(21)
        for eta, c in ((0.5, -1.5), (2.0, 3.0), (3.7, 0.0), (2.0, -0.0)):
            p = params(channel_constant_db=c, path_loss_exponent=eta)
            h1, h2 = rng.normal(0.0, 400.0, (2, 6, 120))
            h1[0, :6] = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e5]
            h2[0, :7] = [np.inf, 1.0, 0.0, -0.0, 0.0, 1.0, 1e5]
            for a, b in ((h1, h2), (h1[1::2], h2[::2]), (h1[0, 3], h2[0, 3]),
                         (np.asarray(h1[2, 0]), np.asarray(h2[2, 0])), (-0.0, 0.0)):
                want = copying_estimate_rows(p, a, b)
                got = _estimate_rows(p, a, b, np.empty(np.shape(a)))
                assert type(got) is type(want) is np.ndarray
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [1, 3])
    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_trace_bytes_equal_the_copying_generator(self, channel, z):
        p = ChannelParams(**CHANNELS[channel])
        for slots in (1, 7, 200, 2000):
            for n in (3, 4, 10):
                for position in ("P1", "P2", "P3") if n >= 4 else ("P1", "P3"):
                    g = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0,
                                        eavesdropper_position=position)
                    seed = np.random.SeedSequence([slots, n, z])
                    ours = generate_trace(p, g, slots, seed, passes=z)
                    theirs = copying_trace(p, g, slots, seed, passes=z)
                    assert len(ours) == len(theirs)
                    for t, (values, eaves) in zip(ours, theirs):
                        assert t[:-1].tobytes() == values.tobytes()
                        assert t[-1].tobytes() == eaves.tobytes()
        if channel == "overflowing":
            assert np.isnan(ours[0, 2:]).all()
