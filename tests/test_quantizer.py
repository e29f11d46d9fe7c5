"""Quantizer: bin semantics, mismatch counting, the DP against exhaustive
search and against the full-matrix fit."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from platoonkey import quantizer
from platoonkey.channel import ChannelParams, PlatoonGeometry, RssTrace, generate_trace
from platoonkey.keygen import codeword_table, extract_key
from platoonkey.protocol import run_cycle
from platoonkey.quantizer import (
    InfeasiblePartition,
    _balance_target,
    _grid_ranks,
    IntervalSet,
    bin_indices,
    optimize_boundaries,
    optimize_intervals,
    quantize_trace,
    retained_slots,
)
from platoonkey.scenario import parse_scenario

from _oracles import (NoPartition, brute_force_boundaries, chained_mismatch,
                      matrix_boundaries, reference_bin_indices)

TWO_BIN = IntervalSet(boundaries=(0.0, 5.0, 10.0))


def bins_of(xs, intervals=TWO_BIN):
    return bin_indices(xs, intervals).tolist()


def kept(trace, floor):
    """The trace on the slots every vehicle keeps, as a cycle selects them."""
    keep = retained_slots(trace, floor)
    return RssTrace(values=trace.values[:, keep], eavesdropper=trace.eavesdropper[keep])


class TestQuantizeBit:
    def test_lower_bound_inclusive(self):
        assert bins_of([0.0, 5.0]) == [1, 2]

    def test_upper_bound_exclusive(self):
        # the top is exclusive too, and what lies at or above it clamps to L
        assert bins_of([4.99, 5.0, 10.0]) == [1, 2, 2]

    def test_below_floor_takes_bin_one(self):
        assert bins_of([-0.1, -1e9]) == [1, 1]


class TestBinIndex:
    def test_examples(self):
        assert bins_of([3.0, 5.0]) == [1, 2]

    def test_out_of_range(self):
        assert bins_of([10.0, -0.5]) == [2, 1]
        three = IntervalSet(boundaries=(0.0, 1.0, 2.0, 3.0))
        assert bins_of([3.0, 7.0, -0.5], three) == [3, 3, 1]

    def test_matches_quantize_bit(self):
        # the quantize bit of interval l is 1 iff b[l-1] <= x < b[l]
        rng = np.random.default_rng(2)
        iset = IntervalSet(boundaries=(0.0, 1.5, 4.0, 9.0))
        b = iset.boundaries
        xs = rng.uniform(0.0, 8.99, 100)
        for x, l in zip(xs, bins_of(xs, iset)):
            assert [int(b[k - 1] <= x < b[k]) for k in (1, 2, 3)] == \
                [int(k == l) for k in (1, 2, 3)]

    def test_vectorized_clamp(self):
        xs = np.array([-1.0, 3.0, 12.0, np.nan, -np.inf, np.inf])
        bins = bin_indices(xs, TWO_BIN)
        assert bins.tolist() == [1, 1, 2, 1, 1, 2]
        assert bins.dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_search_over_every_boundary(self, data):
        # the interior search plus 1 is the clipped search over b_0..b_L
        L = data.draw(st.integers(2, 8))
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        b = sorted(data.draw(st.sets(finite, min_size=L + 1, max_size=L + 1)))
        iset = IntervalSet(boundaries=tuple(b))
        special = [np.nan, np.inf, -np.inf, *b, b[0] - 1.0, np.nextafter(b[0], -np.inf),
                   np.nextafter(b[-1], np.inf), b[-1] + 1.0]
        xs = np.array(special + data.draw(st.lists(finite, max_size=20)))
        got = bin_indices(xs, iset)
        want = reference_bin_indices(xs, iset)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("L", range(2, 9))
    def test_a_block_equals_the_search_over_every_boundary(self, L):
        # rows: the specials, each boundary, the float on either side of
        # each, and draws from below the floor to above the top
        rng = np.random.default_rng(L)
        b = np.sort(rng.choice(np.arange(-40.0, 40.0, 0.5), L + 1, replace=False))
        iset = IntervalSet(boundaries=tuple(b.tolist()))
        width = L + 1
        special = [np.nan, -np.inf, np.inf, b[0] - 1.0, b[-1], b[-1] + 1.0]
        block = np.array([
            np.resize(special, width), b,
            np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
            rng.uniform(b[0] - 5.0, b[-1] + 5.0, width)])
        got = bin_indices(block, iset)
        want = np.array([reference_bin_indices(row, iset) for row in block])
        assert got.shape == block.shape and got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        assert got[1].tolist() == [*range(1, L + 1), L]  # b_l opens bin l + 1
        assert bin_indices(block.T, iset).tolist() == want.T.tolist()

    def test_interval_set_validation(self):
        with pytest.raises(ValueError):
            IntervalSet(boundaries=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            IntervalSet(boundaries=(0.0, 2.0))


def fitted_table(rows, floor, L, G):
    """The fit's per-interval mismatch, and the oracle's re-count of it on
    the bins of the fitted boundaries."""
    iset, per_interval = optimize_boundaries(rows, floor, L, G)
    bins = [bin_indices(r, iset).tolist() for r in rows]
    return per_interval, tuple(chained_mismatch(bins, l)
                               for l in range(1, L + 1))


class TestMismatchCount:
    def test_identical_sequences_zero(self):
        seq = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
        assert fitted_table(np.array([seq, seq, seq]), 0.0, 3, 8) == \
            ((0, 0, 0), (0, 0, 0))

    def test_single_disagreement(self):
        # every balanced two-bin split parts the reference's 0 from its 10,
        # so slot 0 disagrees, and the pair counts on both intervals
        rows = np.array([[0.0, 10.0], [10.0, 10.0]])
        assert fitted_table(rows, -1.0, 2, 4) == ((1, 1), (1, 1))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = rng.normal(0.0, 2.0, size=(5, 50)).round(1)
            table, expected = fitted_table(rows, float(rows.min()) - 0.5, 4, 16)
            assert table == expected


def random_instance(rng):
    n_rows = int(rng.integers(2, 5))
    slots = int(rng.integers(1, 13))
    L = int(rng.integers(2, 5))
    G = int(rng.integers(L, 15))
    base = rng.normal(0.0, 2.0, slots)
    rows = np.vstack([base + rng.normal(0, rng.uniform(0.1, 2.0), slots)
                      for _ in range(n_rows)])
    floor = float(rows.min()) - float(rng.uniform(0.1, 2.0))
    return rows, floor, L, G


class TestOptimizeBoundaries:
    def test_identical_rows_zero_mismatch(self):
        rng = np.random.default_rng(1)
        row = rng.normal(0, 3, 40)
        rows = np.vstack([row, row, row])
        for L in (2, 3, 4):
            iset, per_interval = optimize_boundaries(rows, float(row.min()) - 1.0, L, 16)
            assert sum(per_interval) == 0
            assert len(iset.boundaries) == L + 1

    def test_small_instance_matches_brute_force(self):
        rng = np.random.default_rng(10)
        rows = np.vstack([rng.normal(0, 2, 6) for _ in range(3)])
        floor = float(rows.min()) - 0.5
        iset, per_interval = optimize_boundaries(rows, floor, 2, 8)
        bounds, mismatch, _ = brute_force_boundaries(rows, floor, 2, 8)
        assert sum(per_interval) == mismatch
        assert iset.boundaries == pytest.approx(bounds, rel=1e-12)

    def test_three_intervals_matches_brute_force(self):
        rng = np.random.default_rng(11)
        rows = np.vstack([rng.normal(0, 2, 10) for _ in range(4)])
        floor = float(rows.min()) - 0.3
        iset, per_interval = optimize_boundaries(rows, floor, 3, 12)
        bounds, mismatch, _ = brute_force_boundaries(rows, floor, 3, 12)
        assert sum(per_interval) == mismatch
        assert iset.boundaries == pytest.approx(bounds, rel=1e-12)

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            rows, floor, L, G = random_instance(rng)
            iset, per_interval = optimize_boundaries(rows, floor, L, G)
            bounds, mismatch, balance = brute_force_boundaries(rows, floor, L, G)
            assert sum(per_interval) == mismatch
            assert iset.boundaries == pytest.approx(bounds, rel=1e-12)

    def test_shift_covariance(self):
        rng = np.random.default_rng(5)
        rows = np.vstack([rng.normal(0, 2, 25) for _ in range(3)])
        floor = float(rows.min()) - 1.0
        c = 12.5
        a_set, a_mismatch = optimize_boundaries(rows, floor, 3, 16)
        b_set, b_mismatch = optimize_boundaries(rows + c, floor + c, 3, 16)
        assert a_mismatch == b_mismatch
        np.testing.assert_allclose(np.asarray(b_set.boundaries),
                                   np.asarray(a_set.boundaries) + c, rtol=1e-9)

    def test_partition_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rows, floor, L, G = random_instance(rng)
            iset, _ = optimize_boundaries(rows, floor, L, G)
            b = np.asarray(iset.boundaries)
            assert len(b) == L + 1
            assert np.all(np.diff(b) > 0)
            assert b[0] == floor
            assert b[-1] > rows.max()

    def test_infeasible_grid(self):
        rows = np.ones((2, 4))
        with pytest.raises(InfeasiblePartition):
            optimize_boundaries(rows, 0.0, 4, 3)

    def test_coinciding_grid_points_are_infeasible(self):
        # a float step at 1e15 is 0.125, so 512 grid points over 1 dB
        # repeat each value about 64 times, and so would the boundaries
        rows = 1e15 + np.array([[0.0, 0.5, 1.0, 0.25], [0.125, 0.5, 0.875, 0.375]])
        with pytest.raises(InfeasiblePartition, match="coincide"):
            optimize_boundaries(rows, 1e15, 8, 512)

    def test_balance_prefers_occupied_bins(self):
        # noisy data: minimizing mismatch alone would empty every bin by
        # cramming all samples into one; the balance stage must prevent that
        rng = np.random.default_rng(12)
        rows = np.vstack([rng.normal(0, 2, 60),
                          rng.normal(0, 2, 60) + rng.normal(0, 0.3, 60)])
        iset, _ = optimize_boundaries(rows, float(rows.min()) - 5.0, 4, 32)
        bins = bin_indices(rows[0], iset)
        counts = np.bincount(bins, minlength=5)[1:]
        assert counts.min() >= 60 // (2 * 4)


class TestOptimizeIntervals:
    def trace(self, seed=21, sigma=3.0, n=4, slots=60):
        p = ChannelParams(shadowing_sigma_db=sigma,
                          shadowing_common_fraction=0.95,
                          measurement_noise_db=0.1,
                          rss_decode_floor_db=-25.0)
        g = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0)
        return p, generate_trace(p, g, slots, seed)[0]

    def test_uses_decode_floor(self):
        p, t = self.trace()
        iset, _ = optimize_intervals(kept(t, p.rss_decode_floor_db), 2, 16,
                                     floor=p.rss_decode_floor_db)
        assert iset.boundaries[0] == p.rss_decode_floor_db

    def test_drops_invalid_slots_synchronously(self):
        p, t = self.trace(sigma=5.0, slots=200)
        floor = p.rss_decode_floor_db
        keep = retained_slots(t, floor)
        dropped = set(range(t.values.shape[1])) - set(keep.tolist())
        assert dropped
        for s in dropped:
            column = t.values[:, s]
            assert np.isnan(column).any() or (column < floor).any()
        assert (t.values[:, keep] >= floor).all()
        # the key slots are exactly the ones the fit saw
        selected = kept(t, floor)
        iset, _ = optimize_intervals(selected, 2, 16, floor=floor)
        rows = quantize_trace(selected, iset)
        assert rows.shape == (5, len(keep))
        np.testing.assert_array_equal(rows[:-1], bin_indices(t.values[:, keep], iset))
        assert rows.min() >= 1 and rows.max() <= 2

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (-30.0, "decode floor")],
                             ids=["nan", "below floor"])
    def test_an_unselected_trace_is_rejected(self, bad, message):
        # the fit selects no slots: a chain sample that the selection
        # would have dropped is an error, not a slot to skip
        p, t = self.trace()
        selected = kept(t, p.rss_decode_floor_db)
        values = selected.values.copy()
        values[2, 0] = bad
        with pytest.raises(ValueError, match=message) as raised:
            optimize_intervals(RssTrace(values=values, eavesdropper=selected.eavesdropper),
                               2, 16, p.rss_decode_floor_db)
        assert raised.type is ValueError

    def test_eavesdropper_bins_clamped(self):
        p, t = self.trace(sigma=4.0, slots=100)
        floor = p.rss_decode_floor_db
        selected = kept(t, floor)
        iset, _ = optimize_intervals(selected, 3, 16, floor=floor)
        eavesdropper = quantize_trace(selected, iset)[-1]
        assert eavesdropper.min() >= 1
        assert eavesdropper.max() <= 3
        assert len(eavesdropper) == len(retained_slots(t, floor))

    @pytest.mark.parametrize("n, slots, L", [(4, 200, 2), (10, 1000, 8)])
    def test_rows_equal_the_per_row_search_at_the_bench_shapes(self, n, slots, L):
        # the benchmark's cycle_small and cycle_large shapes: the channel is
        # noiseless, so a cycle fits its one trace
        p = ChannelParams()
        g = PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0)
        floor = p.rss_decode_floor_db
        for seed in range(4):
            (t,) = generate_trace(p, g, slots, seed)
            selected = kept(t, floor)
            iset, _ = optimize_intervals(selected, L, 64, floor)
            keep = retained_slots(t, floor)
            assert quantize_trace(selected, iset).tolist() == [
                reference_bin_indices(row, iset).tolist()
                for row in (*t.values[:, keep], t.eavesdropper[keep])]

    @pytest.mark.parametrize("L", [2, 3])
    def test_vehicle_2_above_the_top_keeps_its_slot(self, L):
        # the chain is rows 0, 2, 3, so vehicle 2 (row 1) can read above
        # the fitted top; its slot stays in every key, in bin L for vehicle 2
        chain = np.array([-60.0, -50.0, -40.0, -55.0, -45.0, -65.0])
        v2 = chain.copy()
        v2[2] = -10.0
        trace = RssTrace(values=np.vstack([chain, v2, chain, chain]),
                         eavesdropper=np.full(chain.size, -52.0))
        iset, _ = optimize_intervals(trace, L, 8, floor=-100.0)
        assert v2[2] >= iset.boundaries[-1]
        assert retained_slots(trace, iset.boundaries[0]).tolist() == list(range(chain.size))
        bins = quantize_trace(trace, iset)[:-1]
        assert bins.shape == (4, chain.size)
        assert bins[1, 2] == L
        np.testing.assert_array_equal(np.delete(bins[1], 2), np.delete(bins[0], 2))

    @pytest.mark.parametrize("grid_size", [8, 64, 512])
    @pytest.mark.parametrize("common_fraction", [0.0, 0.999])
    def test_key_surplus_within_one_grid_cell(self, common_fraction, grid_size):
        # the balance stage puts the boundary on the grid point nearest the
        # leader's median, so a key's surplus of ones or zeros is at most the
        # leader samples of the first non-empty grid cell beyond the boundary
        # on the fuller side, so a coarse grid leaves keys unbalanced by up to that
        p = ChannelParams(shadowing_common_fraction=common_fraction)
        g = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0)
        floor = p.rss_decode_floor_db
        for seed in range(20):
            (t,) = generate_trace(p, g, 300, seed)
            selected = kept(t, floor)
            iset, _ = optimize_intervals(selected, 2, grid_size, floor)
            key, *_ = extract_key(quantize_trace(selected, iset), codeword_table(2))
            keep = retained_slots(t, floor)
            # the fit's grid runs from the floor to the chain's largest
            # sample; the chain leaves out vehicle 2
            top = np.delete(t.values[:, keep], 1, axis=0).max()
            grid = np.linspace(floor, top, grid_size)
            b = int(np.searchsorted(grid, iset.boundaries[1]))
            assert grid[b] == iset.boundaries[1]
            cells = np.bincount(np.searchsorted(grid, t.values[0, keep], "right") - 1,
                                minlength=grid_size)
            surplus = 2 * int(key.bits.sum()) - len(key)
            if surplus:
                fuller = cells[b:] if surplus > 0 else cells[:b][::-1]
                assert abs(surplus) <= fuller[fuller > 0][0], seed


@st.composite
def dp_instances(draw):
    n_rows = draw(st.integers(2, 4))
    slots = draw(st.integers(1, 6))
    L = draw(st.integers(2, 4))
    G = draw(st.integers(L, 10))
    # half-dB steps give duplicate samples and samples on grid points
    value = st.one_of(st.integers(-8, 8).map(lambda k: k / 2.0),
                      st.floats(-4.0, 4.0, allow_nan=False, width=32))
    rows = np.array([[draw(value) for _ in range(slots)]
                     for _ in range(n_rows)], dtype=float)
    gap = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.7]))
    return rows, float(rows.min()) - gap, L, G


class TestOptimizeBoundariesProperty:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dp_instances())
    @example((np.array([[0.5, 1.0, 1.0], [0.5, 1.5, 1.0]]), 0.5, 3, 3))  # G == L
    @example((np.array([[1.0], [2.0], [1.5]]), 0.0, 2, 5))  # single slot
    # floor on a sample, duplicates on grid points
    @example((np.array([[0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 2.0]]), 0.0, 4, 8))
    @example((np.array([[-1.0, -1.0], [-1.0, -1.0]]), -1.0, 2, 4))  # all on floor
    def test_matches_brute_force(self, instance):
        rows, floor, L, G = instance
        try:
            expected = brute_force_boundaries(rows, floor, L, G)
        except ValueError:
            # every sample sits on the floor: no grid above it
            with pytest.raises(InfeasiblePartition):
                optimize_boundaries(rows, floor, L, G)
            return
        bounds, mismatch, _ = expected
        iset, per_interval = optimize_boundaries(rows, floor, L, G)
        assert iset.boundaries == pytest.approx(bounds, rel=1e-12, abs=1e-12)
        assert sum(per_interval) == mismatch
        bins = [bin_indices(r, iset).tolist() for r in rows]
        assert per_interval == tuple(
            chained_mismatch(bins, l) for l in range(1, L + 1))


@st.composite
def fit_instances(draw):
    n_rows = draw(st.integers(2, 5))
    slots = draw(st.integers(1, 24))
    L = draw(st.integers(2, 5))
    G = draw(st.integers(L, 80))
    value = st.one_of(st.integers(-8, 8).map(lambda k: k / 2.0),
                      st.floats(-4.0, 4.0, allow_nan=False, width=32))
    # a float step at 1e16 is 2: grid points coincide, and the top
    # candidate can round onto the largest sample, which then has rank G
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, 1e16]))
    rows = offset + draw(arrays(float, (n_rows, slots), elements=value))
    gap = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.7]))
    return rows, float(rows.min()) - gap, L, G


BELOW_ONE = float(np.nextafter(1.0, -np.inf))


class TestOptimizeBoundariesMatchTheMatrixFit:
    """The edge layers from 1-D rank counts give the bytes of a fit that
    runs every layer on the full segment matrices."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fit_instances())
    @example((np.array([[0.5, 1.0], [1.0, 0.5]]), 0.0, 2, 2))  # G == L == 2
    @example((np.array([[1.0], [2.0], [1.5]]), 0.0, 3, 7))  # one slot
    # every reference sample in one grid cell: the balance target is 0
    @example((np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 2.0, 1.0, 3.0]]), -1.0, 3, 10))
    # grid 0, 1, .., 4 with every sample on a grid point
    @example((np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 4.0, 3.0],
                        [0.0, 2.0, 2.0, 3.0, 4.0]]), 0.0, 4, 5))
    # the top candidate equals the largest sample, so it has rank G
    @example((np.array([[1.0, 1.0, BELOW_ONE], [1.0, BELOW_ONE, 1.0]]), BELOW_ONE, 2, 4))
    # ... and the fit succeeds, with rank-G samples paired to lower ones
    @example((1e16 + np.array([[0.0, 32.0, 64.0, 16.0, 48.0],
                               [2.0, 30.0, 62.0, 18.0, 64.0]]), 1e16, 2, 80))
    def test_same_boundaries_mismatch_and_exception(self, instance):
        rows, floor, L, G = instance
        try:
            bounds, per_interval = matrix_boundaries(rows, floor, L, G)
        except NoPartition:
            with pytest.raises(InfeasiblePartition):
                optimize_boundaries(rows, floor, L, G)
            return
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            # grid points equal in float: the matrix fit picked equal bounds
            with pytest.raises(InfeasiblePartition, match="coincide"):
                optimize_boundaries(rows, floor, L, G)
            return
        iset, got = optimize_boundaries(rows, floor, L, G)
        assert iset.boundaries == bounds
        assert got == per_interval

    # the benchmark's cycle_large document at its seeds (1, k), and the
    # sweep_cli document's two platoon sizes at its seed base 400; the
    # chains do not depend on the losses, which are left out
    @pytest.mark.parametrize("document, seeds, shape", [
        ("n_vehicles = 10\nslots = 1000\nz_iterations = 10\nn_intervals = 8\n",
         [np.random.SeedSequence((1, k)) for k in range(6)], (9, 8)),
        ("n_vehicles = 4\nslots = 2000\nn_intervals = 2\n", range(400, 404), (3, 2)),
        ("n_vehicles = 8\nslots = 2000\nn_intervals = 2\n", range(400, 402), (7, 2)),
    ], ids=["cycle_large", "sweep_cli_n4", "sweep_cli_n8"])
    def test_the_benchmark_chains(self, monkeypatch, document, seeds, shape):
        scen = parse_scenario("pair_distance_m = 2.0\ngrid_size = 64\n" + document)
        chains, fit = [], quantizer.optimize_boundaries

        def record(rows, *args):
            chains.append((rows, *args))
            return fit(rows, *args)

        monkeypatch.setattr(quantizer, "optimize_boundaries", record)
        for seed in seeds:
            run_cycle(scen.channel, scen.geometry, scen.protocol, scen.quantizer,
                      scen.keygen, scen.slots, seed)
        monkeypatch.undo()
        assert len(chains) == len(seeds)
        for rows, floor, L, G in chains:
            assert (rows.shape[0], L, G) == (*shape, 64)
            iset, got = optimize_boundaries(rows, floor, L, G)
            assert (iset.boundaries, got) == matrix_boundaries(rows, floor, L, G)


class TestBalanceTarget:
    """The bisected target is the exhaustive search's largest minimum
    reference occupancy, on the grids with no spare point and with one."""

    @pytest.mark.parametrize("spare", [0, 1], ids=["G=L", "G=L+1"])
    def test_equals_the_best_balance_of_brute_force(self, spare):
        rng = np.random.default_rng(spare)
        for _ in range(150):
            L = int(rng.integers(2, 6))
            G = L + spare
            slots = int(rng.integers(1, 20))
            # half-dB steps give ties and samples on grid points
            rows = rng.integers(-8, 9, (int(rng.integers(2, 4)), slots)) / 2.0
            if rng.random() < 0.3:  # the reference in one grid cell
                rows[0] = rows[0, 0]
            floor = float(rows.min()) - float(rng.choice([0.0, 0.5, 1.7]))
            if not rows.max() > floor:
                continue
            _, ranks = _grid_ranks(rows, floor, float(rows.max()), G)
            ref = [int(np.count_nonzero(ranks[0] < b)) for b in range(G + 1)]
            _, _, balance = brute_force_boundaries(rows, floor, L, G)
            assert _balance_target(ref, L) == balance


def searched_ranks(samples, floor, grid_size):
    """The candidates built as linspace plus a top point, and the ranks a
    binary search over them gives."""
    top = float(samples.max())
    step = (top - floor) / (grid_size - 1)
    cand = np.append(np.linspace(floor, top, grid_size), top + step)
    return cand, np.searchsorted(cand, samples, side="right") - 1


class TestGridRanks:
    """Ranks from the grid's arithmetic equal a binary search over the
    candidates, where grid points coincide in float too."""

    def check(self, samples, floor, grid_size):
        cand, want = searched_ranks(samples, floor, grid_size)
        got_cand, got = _grid_ranks(samples, floor, float(samples.max()), grid_size)
        assert got_cand[:-1].tobytes() == cand.tobytes()
        assert got_cand[-1] == np.inf
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        return want

    @pytest.mark.parametrize("grid_size", [2, 8, 64, 512, 4096])
    @pytest.mark.parametrize("floor", [0.0, -37.5, 1e15, -1e15])
    def test_equal_to_the_search(self, grid_size, floor):
        rng = np.random.default_rng([grid_size, int(abs(floor)) % 1000])
        for span in (1e-12, 1e-9, 1e-3, 1.0, 40.0, 1e3):
            top = floor + span
            if not top > floor:  # below the float step at the floor
                continue
            grid = np.linspace(floor, top, grid_size)
            # samples uniform in the span, on grid points, on the floor and
            # on the top: the maximum is always on the top
            x = np.concatenate([floor + span * rng.random(300),
                                rng.choice(grid, 200), [floor, top, top, top]])
            rng.shuffle(x)
            self.check(x.reshape(3, -1), floor, grid_size)

    def test_coinciding_grid_points_take_the_last(self):
        # 587 points over 1e-12 dB at 1000 dB: about 65 of them per float
        floor, grid_size = 1000.0, 587
        grid = np.linspace(floor, floor + 1e-12, grid_size)
        assert len(np.unique(grid)) < grid_size // 10
        x = np.concatenate([grid, grid[::-1]]).reshape(2, -1)
        ranks = self.check(x, floor, grid_size)
        # a sample on a run of equal grid points is many steps from its guess
        guess = np.minimum((x - floor) / ((x.max() - floor) / (grid_size - 1)),
                           grid_size).astype(np.intp)
        assert np.abs(ranks - guess).max() > 1

    def test_top_point_on_the_largest_sample_has_rank_g(self):
        # at 1e16 the float step is 2, so top + step rounds back to top
        x = 1e16 + np.array([[0.0, 32.0, 64.0, 16.0], [2.0, 64.0, 62.0, 18.0]])
        ranks = self.check(x, 1e16, 80)
        assert ranks.max() == 80

    def test_subnormal_span(self):
        # the grid step underflows to 0, so every grid point is the floor
        x = np.array([[0.0, 5e-324, 1e-323], [1e-323, 0.0, 5e-324]])
        self.check(x, 0.0, 64)

    def test_span_past_the_float_range_is_infeasible(self):
        with pytest.raises(InfeasiblePartition, match="finite span"):
            optimize_boundaries(np.array([[1e308, 0.0], [0.0, 1e308]]), -1e308, 2, 8)

    def test_collapsing_scenario_chain(self):
        # the chain of a scenario whose fitted grid points coincide in
        # float: the fit fails on them, but its ranks are the search's
        p = ChannelParams(shadowing_sigma_db=0.0001, channel_constant_db=-1e15,
                          rss_decode_floor_db=999999999999990.0)
        g = PlatoonGeometry(n_vehicles=3, pair_distance_m=2.0)
        for seed in range(3):
            (t,) = generate_trace(p, g, 50, seed)
            selected = kept(t, p.rss_decode_floor_db)
            self.check(selected.values[[0, 2]], p.rss_decode_floor_db, 512)
            with pytest.raises(InfeasiblePartition, match="coincide"):
                optimize_intervals(selected, 8, 512, p.rss_decode_floor_db)
