"""Protocol cycle: beacon accounting, cipher, EVCD retries, full cycles."""

import numpy as np
import pytest

from platoonkey import protocol, quantizer
from platoonkey.channel import ChannelParams, PlatoonGeometry, generate_trace
from platoonkey.keygen import KeygenConfig, SecretKey
from platoonkey.protocol import (
    CycleAbort,
    CycleLog,
    DisseminationFailure,
    ProtocolConfig,
    _nan_mean,
    cycle_traces,
    run_cska,
    run_cycle,
    run_evcd,
)
from platoonkey.quantizer import QuantizerConfig, retained_slots
from platoonkey.randomness import bits_from_ascii

from _oracles import (
    evcd_expected_attempts,
    follower_rho,
    reference_cska_tries,
    reference_evcd_tries,
    sheppard_mismatch,
    stacked_nan_mean,
    xor_cipher,
)

QUIET = ChannelParams(shadowing_sigma_db=0.0, rss_decode_floor_db=-40.0)
GEOM4 = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0)


def make_keys(n, bits="1011010011"):
    return {i: SecretKey(bits_from_ascii(bits)) for i in range(1, n + 1)}


def within_5se(rates, expected):
    """True when the mean of ``rates`` is within 5 standard errors of
    ``expected``."""
    se = rates.std(ddof=1) / np.sqrt(len(rates))
    return abs(rates.mean() - expected) <= 5 * se


def event_tuples(log):
    return [(e.slot, e.stage, e.sender, e.receiver, e.kind, e.outcome)
            for e in log.events]


def evcd_attempts(events, cap):
    """End-to-end EVCD attempts in an event list: each ends in the tail's
    ACK or in a hop whose cap + 1 tries were all lost."""
    attempts = lost_run = 0
    for e in events:
        lost_run = lost_run + 1 if e.kind == "data" and e.outcome == "lost" else 0
        if e.kind == "ack" or lost_run == cap + 1:
            attempts += 1
            lost_run = 0
    return attempts


class TestRunCska:
    def test_paper_overhead_case(self):
        cfg = ProtocolConfig(z_iterations=5, beacon_bits=4)
        geom = PlatoonGeometry(n_vehicles=10, pair_distance_m=2.0)
        log = run_cska(cfg, geom, seed=0)
        assert log.beacon_transmissions == 50
        assert log.overhead_bits == 200
        assert log.retransmissions == 0

    def test_lossless_no_retransmissions(self):
        for n in (3, 6, 9):
            cfg = ProtocolConfig(z_iterations=2)
            geom = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0)
            log = run_cska(cfg, geom, seed=1)
            assert log.retransmissions == 0
            assert log.beacon_transmissions == 2 * n
            # the noiseless channel's two passes are one trace
            assert len(cycle_traces(QUIET, geom, 4, 1, passes=2)) == 1

    def test_overhead_identity_holds_under_loss(self):
        cfg = ProtocolConfig(beacon_loss_prob=0.3, beacon_bits=6)
        for seed in range(20):
            log = run_cska(cfg, GEOM4, seed=seed)
            assert log.overhead_bits == log.beacon_transmissions * cfg.beacon_bits

    def test_retransmission_expectation(self):
        # each beacon repeats as a capped geometric: at p = 0.5 the mean
        # transmission count doubles the lossless count
        cfg = ProtocolConfig(beacon_loss_prob=0.5)
        total = 0
        n_cycles = 10_000
        for seed in range(n_cycles):
            try:
                log = run_cska(cfg, GEOM4, seed=seed)
            except CycleAbort:
                continue
            total += log.beacon_transmissions
        lossless = GEOM4.n_vehicles
        expected = lossless * evcd_expected_attempts(0.5, cfg.retransmission_cap)
        mean = total / n_cycles
        assert mean == pytest.approx(2.0 * lossless, rel=0.05)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_cap_aborts(self):
        cfg = ProtocolConfig(beacon_loss_prob=1.0, retransmission_cap=3)
        with pytest.raises(CycleAbort):
            run_cska(cfg, GEOM4, seed=0)

    def test_half_duplex_one_transmission_per_slot(self):
        cfg = ProtocolConfig(z_iterations=3, beacon_loss_prob=0.2)
        log = run_cska(cfg, GEOM4, seed=3)
        slots = [e.slot for e in log.events]
        assert len(slots) == len(set(slots))
        for e in log.events:
            assert e.sender != e.receiver

    def test_passes_share_shadowing_and_draw_own_noise(self):
        noiseless = ChannelParams(shadowing_sigma_db=3.0,
                                  rss_decode_floor_db=-40.0)
        assert len(cycle_traces(noiseless, GEOM4, 50, 5, passes=4)) == 1
        noisy = ChannelParams(shadowing_sigma_db=3.0, rss_decode_floor_db=-40.0,
                              measurement_noise_db=0.1, reciprocity_sigma_db=0.5)
        traces = cycle_traces(noisy, GEOM4, 50, 5, passes=4)
        assert len(traces) == 4
        for t in traces[1:]:
            assert t[:-1].tobytes() != traces[0, :-1].tobytes()
            assert t[-1].tobytes() != traces[0, -1].tobytes()

    def test_sequential_order(self):
        cfg = ProtocolConfig(z_iterations=1)
        log = run_cska(cfg, GEOM4, seed=4)
        assert [e.sender for e in log.events] == [1, 2, 3, 4]

    def test_counters_equal_event_tallies(self):
        cfg = ProtocolConfig(z_iterations=3, beacon_loss_prob=0.3)
        for seed in range(20):
            try:
                log = run_cska(cfg, GEOM4, seed=seed)
            except CycleAbort:
                continue
            assert log.beacon_transmissions == len(log.events)
            assert all(e.kind == "beacon" for e in log.events)
            assert log.retransmissions == sum(e.outcome == "lost" for e in log.events)
            assert [e.slot for e in log.events] == list(range(1, len(log.events) + 1))


class TestXorCipher:
    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            payload = rng.integers(0, 2, 123, dtype=np.uint8)
            key = SecretKey(bits=tuple(rng.integers(0, 2, 17).tolist()))
            assert np.array_equal(xor_cipher(xor_cipher(payload, key), key),
                                  payload)

    def test_single_key_bit_flip_pattern(self):
        rng = np.random.default_rng(1)
        payload = rng.integers(0, 2, 100, dtype=np.uint8)
        key_bits = rng.integers(0, 2, 10).tolist()
        key = SecretKey(bits=tuple(key_bits))
        flipped_bits = list(key_bits)
        flip_at = 3
        flipped_bits[flip_at] ^= 1
        other = SecretKey(bits=tuple(flipped_bits))
        enc = xor_cipher(payload, key)
        dec = xor_cipher(enc, other)
        diff = np.flatnonzero(dec != payload)
        assert diff.tolist() == [i for i in range(100) if i % 10 == flip_at]

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            xor_cipher(np.array([1, 0], dtype=np.uint8), SecretKey(bits=()))


class TestRunEvcd:
    def test_identical_keys_recover_command_at_every_hop(self):
        log = run_evcd(ProtocolConfig(), make_keys(4), seed=0)
        assert log.decode_failure_hops == []

    def test_one_bit_key_mismatch_detected_downstream(self):
        keys = make_keys(4)
        bad = keys[3].bits.copy()
        bad[2] ^= 1
        keys[3] = SecretKey(bad)
        cmd = np.random.default_rng(3).integers(0, 2, 50, dtype=np.uint8)
        log = run_evcd(ProtocolConfig(), keys, seed=0)
        # vehicle 3 degarbles wrongly; its re-encryption cancels its own
        # key, so vehicle 4 re-absorbs the error and decodes
        assert log.decode_failure_hops == [2]
        # vehicle 2 decodes, so vehicle 3 receives the command under key 2
        at_3 = xor_cipher(xor_cipher(cmd, keys[2]), keys[3])
        wrong = np.flatnonzero(at_3 != cmd)
        assert wrong.tolist() == [i for i in range(50) if i % 10 == 2]

    def test_per_hop_retransmission_expectation(self):
        # per-transmission iid loss with hop-local retries: expected extra
        # transmissions per hop traversal are p / (1 - p), checked against
        # the truncated-geometric chain at p = 0.2 (0.25 within 10 percent).
        # A lost tail ACK restarts the whole dissemination, so a run
        # traverses each hop about 1.25 times and the retry counter sums
        # over every traversal: the denominator is the number of hop
        # traversals (delivered data events); runs * hops reads about 0.30.
        # The estimator's standard error is about 0.28 / sqrt(runs), so
        # 4000 runs put the 10 percent band at more than 5 standard
        # errors (at 1000 runs it spans only 2.8).
        cfg = ProtocolConfig(data_loss_prob=0.2)
        keys = make_keys(4)
        total_retx = traversals = 0
        for seed in range(4000):
            log = run_evcd(cfg, keys, seed=seed)
            data = [e.outcome for e in log.events if e.kind == "data"]
            total_retx += data.count("lost")
            traversals += data.count("delivered")
        per_hop = total_retx / traversals
        oracle = evcd_expected_attempts(0.2, cfg.retransmission_cap) - 1.0
        assert per_hop == pytest.approx(0.25, rel=0.10)
        assert per_hop == pytest.approx(oracle, rel=0.10)

    @pytest.mark.parametrize("outcome", ["delivered", "key mismatch", "failure"])
    def test_counters_equal_event_tallies(self, outcome):
        cap = 2
        cfg = ProtocolConfig(data_loss_prob=1.0 if outcome == "failure" else 0.3,
                             retransmission_cap=cap)
        keys = make_keys(4)
        if outcome == "key mismatch":
            keys[2] = SecretKey(bits_from_ascii("0011010011"))
        restarted = False
        for seed in range(40):
            log = CycleLog()
            try:
                run_evcd(cfg, keys, seed, log)
            except DisseminationFailure:
                assert outcome == "failure"
            else:
                assert outcome != "failure"
                assert log.decode_failure_hops == ([1] if outcome == "key mismatch" else [])
            data = [e for e in log.events if e.kind == "data"]
            attempts = evcd_attempts(log.events, cap)
            restarted |= attempts > 1
            assert log.evcd_data_transmissions == len(data)
            assert log.leader_retransmissions == attempts - 1
            assert [e.slot for e in log.events] == list(range(1, len(log.events) + 1))
        assert restarted

    def test_latency_is_timeouts_plus_slots(self):
        # one timeout per failed end-to-end attempt and one slot per
        # transmission, whether the command got through or not
        cfg = ProtocolConfig(data_loss_prob=0.5, retransmission_cap=1,
                             dissemination_timeout_ms=100.0, slot_duration_ms=2.0)
        outcomes = set()
        for seed in range(40):
            log = CycleLog()
            try:
                run_evcd(cfg, make_keys(4), seed, log)
            except DisseminationFailure:
                outcomes.add("failed")
                timeouts = log.leader_retransmissions + 1
            else:
                outcomes.add("delivered")
                timeouts = log.leader_retransmissions
            assert log.evcd_latency_ms == timeouts * 100.0 + len(log.events) * 2.0
        assert outcomes == {"delivered", "failed"}

    def test_unequal_key_lengths_rejected(self):
        keys = make_keys(3)
        keys[2] = SecretKey(bits_from_ascii("101"))
        with pytest.raises(ValueError):
            run_evcd(ProtocolConfig(), keys, seed=0)


class TestRunCycle:
    def test_noiseless_full_agreement(self):
        rep = run_cycle(QUIET, GEOM4, ProtocolConfig(), QuantizerConfig(2, 16),
                        KeygenConfig(), slots=40, seed=5)
        assert all(v == 0.0 for v in rep.bmmr_per_vehicle.values())
        assert rep.dissemination_success
        assert rep.agreed_key_bits > 0

    def test_determinism(self):
        p = ChannelParams(shadowing_sigma_db=3.0, shadowing_common_fraction=0.95,
                          measurement_noise_db=0.1)
        a = run_cycle(p, GEOM4, ProtocolConfig(z_iterations=2),
                      QuantizerConfig(2, 32), KeygenConfig(), 60, 9)
        b = run_cycle(p, GEOM4, ProtocolConfig(z_iterations=2),
                      QuantizerConfig(2, 32), KeygenConfig(), 60, 9)
        assert a.bmmr_per_vehicle == b.bmmr_per_vehicle
        assert a.eavesdropper_bmmr == b.eavesdropper_bmmr
        assert a.leader_key == b.leader_key
        assert a.log.beacon_transmissions == b.log.beacon_transmissions

    def test_noisy_passes_do_not_fail_the_agreed_fit(self):
        # some noisy passes keep no slot at or above the decode floor at
        # every vehicle; only the averaged trace is fitted, and it keeps slots
        p = ChannelParams(measurement_noise_db=1.0)
        geom = PlatoonGeometry(n_vehicles=10, pair_distance_m=2.0)
        for seed in range(3):
            rep = run_cycle(p, geom, ProtocolConfig(z_iterations=10),
                            QuantizerConfig(4), KeygenConfig(), 50, seed)
            assert rep.agreed_key_bits > 0
            assert 0 in rep.retained_per_iteration

    def test_retained_per_iteration_counts_each_pass(self):
        p = ChannelParams(reciprocity_sigma_db=3.0, measurement_noise_db=0.5)
        geom = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        cfg = ProtocolConfig(z_iterations=3)
        rep = run_cycle(p, geom, cfg, QuantizerConfig(4), KeygenConfig(), 200, 0)
        traces = cycle_traces(p, geom, 200, 0, passes=3)
        assert rep.retained_per_iteration == [
            len(retained_slots(t, p.rss_decode_floor_db)) for t in traces]
        assert len(rep.retained_per_iteration) == 3

    @pytest.mark.parametrize("noise, z, calls", [(0.0, 3, 1), (0.5, 2, 3)],
                             ids=["noiseless", "noisy"])
    def test_slots_are_selected_once_per_cycle(self, monkeypatch, noise, z, calls):
        # one selection on the fitted trace; each distinct pass also counts
        # the slots it keeps, and the fit and the bins select none
        real, seen = quantizer.retained_slots, []

        def spy(trace, floor):
            seen.append(floor)
            return real(trace, floor)

        for module in (protocol, quantizer):
            monkeypatch.setattr(module, "retained_slots", spy)
        p = ChannelParams(measurement_noise_db=noise)
        rep = run_cycle(p, GEOM4, ProtocolConfig(z_iterations=z), QuantizerConfig(2, 16),
                        KeygenConfig(), 200, 5)
        assert len(seen) == calls and len(rep.retained_per_iteration) == z

    def test_an_aborted_cycle_draws_no_trace(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(protocol, "generate_trace", lambda *a, **k: drawn.append(a))
        cfg = ProtocolConfig(beacon_loss_prob=1.0)
        with pytest.raises(CycleAbort):
            run_cycle(QUIET, GEOM4, cfg, QuantizerConfig(2, 16), KeygenConfig(), 40, 5)
        assert drawn == []

    def test_more_iterations_do_not_hurt_agreement(self):
        p = ChannelParams(shadowing_sigma_db=4.0, shadowing_common_fraction=0.99,
                          measurement_noise_db=0.12)
        means = {}
        for z in (1, 20):
            vals = []
            for seed in range(60):
                rep = run_cycle(p, GEOM4, ProtocolConfig(z_iterations=z),
                                QuantizerConfig(2, 64), KeygenConfig(), 100,
                                seed + 400)
                vals.append(rep.mean_bmmr)
            means[z] = float(np.mean(vals))
        assert means[20] <= means[1]

    @pytest.mark.parametrize("z", [1, 4])
    def test_vehicle2_bmmr_matches_sheppard(self, z):
        # L = 2: the fitted threshold sits near the median.  Vehicle 2
        # reads the leader's shadowed RSS (sigma 3 dB, shared by the Z
        # passes) plus reciprocity noise (1 dB, fresh each pass), so the
        # averaged readings correlate at rho = sigma / sqrt(sigma^2 +
        # sigma_r^2 / Z) and disagree with Sheppard's probability.  The
        # band is 5 standard errors of the mean over 100 seeds (about
        # 0.004 at Z = 1 and 0.003 at Z = 4).
        p = ChannelParams(shadowing_sigma_db=3.0, reciprocity_sigma_db=1.0)
        geom = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        rates = np.array([
            run_cycle(p, geom, ProtocolConfig(z_iterations=z),
                      QuantizerConfig(2), KeygenConfig(), 2000, seed
                      ).bmmr_per_vehicle[2]
            for seed in range(100, 200)])
        assert within_5se(rates, sheppard_mismatch(3.0 / np.sqrt(9.0 + 1.0 / z)))

    @pytest.mark.parametrize("frac", [0.999, 0.99, 0.0])
    def test_follower_bmmr_matches_closed_form(self, frac):
        # L = 2 at N = 6: follower j's estimate correlates with the
        # leader's reading at follower_rho, so they disagree with
        # Sheppard's probability, which grows with j.  Without common
        # shadowing a follower shares nothing with the leader, and the
        # eavesdropper never does: both disagree half the time.  The band
        # is 5 standard errors of the mean over 60 seeds.
        p = ChannelParams(shadowing_sigma_db=3.0, shadowing_common_fraction=frac)
        geom = PlatoonGeometry(n_vehicles=6, pair_distance_m=2.0)
        reps = [run_cycle(p, geom, ProtocolConfig(), QuantizerConfig(2),
                          KeygenConfig(), 2000, seed) for seed in range(60)]
        for j in range(3, 7):
            rates = np.array([r.bmmr_per_vehicle[j] for r in reps])
            assert within_5se(rates, sheppard_mismatch(follower_rho(3.0, frac, j)))
        assert within_5se(np.array([r.eavesdropper_bmmr for r in reps]), 0.5)

    def test_success_needs_every_key_equal_to_the_leaders(self):
        # near-full common shadowing: the 2000-bit keys differ in 1-12
        # bits, at times none of them among the first 800, yet a cycle
        # succeeds only where every follower holds the leader's whole key
        p = ChannelParams(shadowing_common_fraction=0.99999)
        geom = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        reps = [run_cycle(p, geom, ProtocolConfig(), QuantizerConfig(2, 64),
                          KeygenConfig(), 2000, np.random.SeedSequence([s, 0]))
                for s in range(40)]
        for r in reps:
            assert r.dissemination_success == all(
                v == 0.0 for v in r.bmmr_per_vehicle.values())

    def test_latency_accounting(self):
        cfg = ProtocolConfig(z_iterations=4, slot_duration_ms=2.0)
        rep = run_cycle(QUIET, GEOM4, cfg, QuantizerConfig(2, 16),
                        KeygenConfig(), 20, 13)
        assert rep.log.cska_latency_ms == 4 * 4 * 2.0
        # lossless EVCD: three hops and the tail ACK, one slot each
        assert rep.log.evcd_latency_ms == 4 * 2.0


class TestSeeding:
    NOISY = ChannelParams(shadowing_sigma_db=3.0, measurement_noise_db=0.1,
                          reciprocity_sigma_db=0.3)
    LOSSY = ProtocolConfig(z_iterations=2, beacon_loss_prob=0.2, data_loss_prob=0.2)

    def test_one_seed_sequence_object_gives_the_same_results(self):
        ss = np.random.SeedSequence([21, 3])
        runs = [(generate_trace(self.NOISY, GEOM4, 30, ss, passes=2),
                 cycle_traces(self.NOISY, GEOM4, 30, ss, passes=2),
                 run_cska(self.LOSSY, GEOM4, ss),
                 run_cycle(self.NOISY, GEOM4, self.LOSSY, QuantizerConfig(2, 16),
                           KeygenConfig(), 30, ss))
                for _ in range(2)]
        (traces, drawn, cska_log, rep), again = runs
        for ours, theirs in ((traces, again[0]), (drawn, again[1])):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert cska_log == again[2]
        assert rep.leader_key == again[3].leader_key
        assert rep.bmmr_per_vehicle == again[3].bmmr_per_vehicle
        assert rep.log == again[3].log
        assert ss.n_children_spawned == 0

    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence([21, 3])], ids=["int", "ss"])
    def test_a_cycle_on_its_drawn_traces_is_the_cycle(self, seed):
        drawn = cycle_traces(self.NOISY, GEOM4, 30, seed, passes=2)
        quant = QuantizerConfig(2, 16)
        rep = run_cycle(self.NOISY, GEOM4, self.LOSSY, quant, KeygenConfig(), 30, seed,
                        traces=drawn)
        again = run_cycle(self.NOISY, GEOM4, self.LOSSY, quant, KeygenConfig(), 30, seed)
        assert rep.leader_key == again.leader_key
        assert rep.bmmr_per_vehicle == again.bmmr_per_vehicle
        assert rep.eavesdropper_bmmr == again.eavesdropper_bmmr
        assert rep.log == again.log

    def test_a_lossy_cska_draws_from_the_seeds_node_0_0(self):
        # run_cycle passes node (0,) to run_cska, which reads its child 0
        cfg = ProtocolConfig(z_iterations=2, beacon_loss_prob=0.4)
        for seed in range(20):
            rep = run_cycle(QUIET, GEOM4, cfg, QuantizerConfig(2, 16), KeygenConfig(), 40,
                            seed)
            cska = [e for e in rep.log.events if e.stage == "cska"]
            assert cska == run_cska(cfg, GEOM4, protocol._child(seed, 0)).events
            assert cska != run_cska(cfg, GEOM4, seed).events

    @pytest.mark.parametrize("loss, generators", [(0.0, 2), (0.1, 4)])
    def test_a_cycle_builds_a_generator_per_stream_it_reads(self, monkeypatch,
                                                           loss, generators):
        # platoon and eavesdropper always; CSKA and EVCD losses only when lossy
        built = []
        real = np.random.default_rng

        def spy(seed=None):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        cfg = ProtocolConfig(beacon_loss_prob=loss, data_loss_prob=loss)
        rep = run_cycle(QUIET, GEOM4, cfg, QuantizerConfig(2, 16), KeygenConfig(), 40, 5)
        assert rep.dissemination_success and len(built) == generators

    @pytest.mark.parametrize("loss, nodes", [(0.0, 1), (0.1, 4)])
    def test_a_cycle_builds_a_seed_node_per_stream_it_reads(self, monkeypatch,
                                                           loss, nodes):
        # the traces always; the CSKA stage and its losses, and the EVCD
        # losses, only when lossy
        paths = []
        real = protocol._child

        def spy(seed, *path):
            paths.append(path)
            return real(seed, *path)

        monkeypatch.setattr(protocol, "_child", spy)
        cfg = ProtocolConfig(beacon_loss_prob=loss, data_loss_prob=loss)
        rep = run_cycle(QUIET, GEOM4, cfg, QuantizerConfig(2, 16), KeygenConfig(), 40, 5)
        assert rep.dissemination_success and len(paths) == nodes


class TestAveragedTrace:
    def test_mean_over_the_passes_that_observed_a_slot(self):
        # three passes, vehicles 1..3, four slots; vehicle 3's estimate and
        # the eavesdropper's fail (NaN) in some passes
        nan = np.nan
        lead = np.array([[1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0],
                         [5.0, 6.0, 7.0, 8.0]])
        v3 = np.array([[nan, 2.0, nan, -1.0], [nan, nan, 5.0, 6.0],
                       [nan, 8.0, nan, 6.0]])
        eaves = np.array([[nan, 1.0, nan, nan], [nan, 3.0, 2.0, nan],
                          [nan, nan, 4.0, nan]])
        traces = np.stack([np.vstack([lead[z], lead[z], v3[z], eaves[z]])
                           for z in range(3)])
        avg = _nan_mean(traces)
        np.testing.assert_array_equal(avg[:-1], [
            [3.0, 4.0, 5.0, 6.0], [3.0, 4.0, 5.0, 6.0],
            [nan, (2.0 + 8.0) / 2, 5.0, (-1.0 + 6.0 + 6.0) / 3]])
        np.testing.assert_array_equal(avg[-1], [nan, 2.0, 3.0, nan])
        # a slot is NaN only where every pass is
        np.testing.assert_array_equal(np.isnan(avg[2]), np.isnan(v3).all(axis=0))
        np.testing.assert_array_equal(np.isnan(avg[-1]), np.isnan(eaves).all(axis=0))
        # each pass keeps only its own slots valid everywhere and at or
        # above the floor; the average keeps every slot some pass observed
        assert [len(retained_slots(t, 0.0)) for t in traces] == [1, 2, 2]
        assert retained_slots(avg, 0.0).tolist() == [1, 2, 3]

    def test_a_sum_past_the_float_range_drops_the_slot(self):
        # finite passes whose sum overflows: the slot is NaN, the mark of
        # a failed estimate, in place of an infinite mean
        big = np.finfo(float).max / 1.5
        values = np.array([[big, -big, 1.0, np.nan], [big, -big, 2.0, big]])
        avg = _nan_mean(np.stack([np.vstack([v, v, v]) for v in values]))
        np.testing.assert_array_equal(avg[:-1], [[np.nan, np.nan, 1.5, big]] * 2)
        np.testing.assert_array_equal(avg[-1], [np.nan, np.nan, 1.5, big])

    @pytest.mark.parametrize("z", [3, 10])
    def test_a_noiseless_cycle_fits_its_one_pass(self, z):
        # the cycle_large shape on the default, noiseless channel: the Z
        # passes are one block, fitted byte for byte as Z = 1 fits it
        p = ChannelParams()
        geom = PlatoonGeometry(n_vehicles=10, pair_distance_m=2.0)
        single = generate_trace(p, geom, 1000, 3)
        traces = generate_trace(p, geom, 1000, 3, passes=z)
        assert traces.shape == single.shape == (1, 11, 1000)
        assert traces.tobytes() == single.tobytes()

        def cycle(zi, seed):
            return run_cycle(p, geom, ProtocolConfig(z_iterations=zi),
                             QuantizerConfig(8, 64), KeygenConfig(), 1000, seed)
        assert (cycle(z, 3).retained_per_iteration
                == cycle(1, 3).retained_per_iteration * z)
        # the trace seed does not depend on Z
        for seed in range(4):
            assert cycle(z, seed).leader_key == cycle(1, seed).leader_key

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("slots", [1, 2, 8, 1000])
    @pytest.mark.parametrize("z", [1, 2, 3, 9, 10, 12])
    def test_bytes_equal_the_stacked_mean(self, z, slots, shared):
        # Z distinct passes, or one pass repeated Z times (a noiseless
        # cycle fits its one block alone, but repeats are still valid
        # input), in one (Z, N+1, slots) block: numpy's sum over its first
        # axis sets the mean's last bits, and the oracle's over the same
        # block reads them
        rng = np.random.default_rng([z, slots, shared])
        n = 4

        def nan_pass(always_nan):
            values = rng.normal(-70.0, 8.0, (n + 1, slots))
            values[(rng.random(values.shape) < 0.2) | always_nan] = np.nan
            return values

        for _ in range(20):
            # some slots fail in every pass
            always_nan = rng.random((n + 1, slots)) < 0.1
            traces = np.stack([nan_pass(always_nan)] * z if shared
                              else [nan_pass(always_nan) for _ in range(z)])
            assert _nan_mean(traces).tobytes() == stacked_nan_mean(traces).tobytes()


class TestLossDrawsMatchTheScalarLoop:
    """Losses drawn in blocks give every try the draw that one scalar
    ``rng.random()`` per try gives it, and with it the same events,
    counters, latencies and failures."""

    @pytest.mark.parametrize("n", [3, 4, 10])
    @pytest.mark.parametrize("cap", [0, 1, 10])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_cska(self, p, cap, n):
        geom = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0)
        for z in (1, 3):
            cfg = ProtocolConfig(z_iterations=z, beacon_loss_prob=p,
                                 retransmission_cap=cap, beacon_bits=3,
                                 slot_duration_ms=1.5)
            for seed in range(30):
                events, counters, failure = reference_cska_tries(cfg, n, seed)
                try:
                    log = run_cska(cfg, geom, seed=seed)
                except CycleAbort:
                    assert failure == "CycleAbort"
                    continue
                assert failure is None
                assert event_tuples(log) == events
                assert {k: getattr(log, k) for k in counters} == counters

    @pytest.mark.parametrize("n", [3, 4, 10])
    @pytest.mark.parametrize("cap", [0, 1, 10])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_evcd(self, p, cap, n):
        cfg = ProtocolConfig(data_loss_prob=p, retransmission_cap=cap,
                             dissemination_timeout_ms=50.0, slot_duration_ms=1.5)
        for seed in range(30):
            events, counters, failure = reference_evcd_tries(cfg, n, seed)
            log = CycleLog()
            try:
                run_evcd(cfg, make_keys(n), seed, log)
            except DisseminationFailure:
                assert failure == "DisseminationFailure"
            else:
                assert failure is None
            assert event_tuples(log) == events
            assert {k: getattr(log, k) for k in counters} == counters

    def test_events_are_immutable(self):
        log = run_cska(ProtocolConfig(), GEOM4, seed=0)
        with pytest.raises(AttributeError):
            log.events[0].outcome = "lost"


class TestEvcdDecode:
    @pytest.mark.parametrize("flip_span", [16, 800])
    @pytest.mark.parametrize("key_bits", [10, 126, 1350])
    def test_failure_hops_equal_the_hop_chain(self, key_bits, flip_span):
        # 0-3 vehicles, the leader among them, hold keys off by a bit or
        # two: within the key's first flip_span bits, or anywhere in it.
        # The command is as long as the key, so the XOR hop chain meets
        # every key bit
        rng = np.random.default_rng([key_bits, flip_span])
        seen = set()
        for trial in range(40):
            n = int(rng.integers(3, 9))
            span = min(key_bits, flip_span) if trial % 2 else key_bits
            base = rng.integers(0, 2, key_bits, dtype=np.uint8)
            bits = {v: base.copy() for v in range(1, n + 1)}
            for v in rng.choice(n, int(rng.integers(0, 4)), replace=False) + 1:
                bits[v][rng.choice(span, int(rng.integers(1, 3)), replace=False)] ^= 1
            keys = {v: SecretKey(b) for v, b in bits.items()}
            cmd = rng.integers(0, 2, key_bits, dtype=np.uint8)
            held = {1: cmd}
            for v in range(2, n + 1):
                held[v] = xor_cipher(xor_cipher(held[v - 1], keys[v - 1]), keys[v])
            want = [v - 1 for v in range(2, n + 1)
                    if not np.array_equal(held[v], cmd)]
            assert run_evcd(ProtocolConfig(), keys, seed=0).decode_failure_hops == want
            seen.add(len(want))
        assert 0 in seen and max(seen) >= 2

    @pytest.mark.parametrize("flip_at", [3, 1000])
    def test_a_flip_anywhere_in_the_key_fails_its_hop(self, flip_at):
        keys = make_keys(3, "10" * 675)
        bad = keys[2].bits.copy()
        bad[flip_at] ^= 1
        keys[2] = SecretKey(bad)
        assert run_evcd(ProtocolConfig(), keys, seed=0).decode_failure_hops == [1]

    def test_empty_keys_rejected(self):
        keys = {v: SecretKey(bits=()) for v in (1, 2, 3)}
        with pytest.raises(ValueError, match="keys must be non-empty"):
            run_evcd(ProtocolConfig(), keys, seed=0)
