"""Adaptive RSS quantization via dynamic-programming interval fitting.

A quantizer is an ordered set of L contiguous half-open dB intervals
``[b_0, b_1), [b_1, b_2), ..., [b_{L-1}, b_L)`` with ``b_0`` pinned to the
a-priori decode floor.  Candidate boundaries live on a uniform grid:
``b_0 = grid[0] = floor``, interior boundaries are chosen from the G - 1
grid points above the floor, and the top boundary is one grid step above
the largest chain sample.  Vehicle 2 and the eavesdropper, outside the
chain, clamp: at or above the top to bin L, below the floor to bin 1.

The fit minimizes the chained cross-vehicle mismatch count (adjacent
rows of the comparison chain XOR-ed per interval, summed over slots and
intervals) subject to a balance requirement: among all grid partitions
it first maximizes the minimum number of reference (vehicle-1) samples
per bin, then minimizes total mismatch, then takes the lexicographically
smallest boundary tuple.  Without the balance stage the mismatch
objective is degenerate: packing all interior boundaries below the
samples puts every sample in one bin and scores zero mismatch while
producing constant, entropy-free keys.

The DP works on whole matrices.  Over the G + 1 boundary indices
(floor at 0, interior grid points 1..G-1, top at G), two matrices are
built once per fit from 2-D prefix sums of the sample ranks: the segment
cost ``C[a, b]``, the chained mismatch that interval ``[a, b)`` alone
contributes, and the reference occupancy ``O[a, b]``, the number of
reference samples in ``[a, b)``.  Interval l may end at index
``b <= G - L + l``, so each of the L suffix layers is one masked row
reduction over a column slice of the ``a < b`` triangle: a row-max of
``min(O, bal_next[b])`` for the balance pass, and a row-min of
``C + tail_next[b]`` over segments with ``O >= target`` for the cost
pass.  Boundaries are recovered front to back from each layer's row
argmin, the first (smallest) b attaining the row optimum, which yields
the lexicographically smallest optimal boundary tuple.  The per-interval
mismatch of the fitted quantizer is read off ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RssTrace

__all__ = [
    "InfeasiblePartition",
    "IntervalSet",
    "QuantizedTrace",
    "QuantizerConfig",
    "bin_indices",
    "optimize_boundaries",
    "optimize_intervals",
    "quantize_trace",
    "retained_slots",
]

_INF = np.iinfo(np.int64).max // 2


class InfeasiblePartition(ValueError):
    """No valid interval partition exists for the requested (L, G)."""


@dataclass(frozen=True)
class QuantizerConfig:
    n_intervals: int = 2
    grid_size: int = 64

    def __post_init__(self) -> None:
        if self.n_intervals < 2:
            raise ValueError("n_intervals must be >= 2")
        if self.grid_size < self.n_intervals:
            raise ValueError("grid_size must be >= n_intervals")


@dataclass(frozen=True)
class IntervalSet:
    """L contiguous half-open quantization intervals.

    ``boundaries`` has L + 1 strictly increasing entries; interval l
    (1-based) spans ``[boundaries[l-1], boundaries[l])`` and the first
    entry equals the configured decode floor.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 3:
            raise ValueError("need at least 2 intervals (3 boundaries)")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def n_intervals(self) -> int:
        return len(self.boundaries) - 1

    @property
    def decode_floor(self) -> float:
        return self.boundaries[0]


def bin_indices(xs, intervals: IntervalSet) -> np.ndarray:
    """1-based index of the interval ``[b_{l-1}, b_l)`` holding each sample.

    A sample below the floor takes bin 1, one at or above the top bin L,
    and NaN bin 1.
    """
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(np.asarray(intervals.boundaries), xs, side="right")
    # NaN sorts above every boundary, so without this it would clamp to L
    return np.where(np.isnan(xs), 1, np.clip(idx, 1, intervals.n_intervals))


def _candidates(floor: float, top_sample: float, grid_size: int) -> np.ndarray:
    """Boundary candidates: G grid points from floor to the max sample,
    plus a top point one grid step above the max."""
    if not top_sample > floor:
        raise InfeasiblePartition(
            "decode floor must lie strictly below the largest retained sample")
    grid = np.linspace(floor, top_sample, grid_size)
    step = (top_sample - floor) / (grid_size - 1)
    return np.append(grid, top_sample + step)


def _segment_matrices(samples: np.ndarray, cand: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch cost ``C`` and reference occupancy ``O`` of every segment.

    Over boundary indices ``a, b`` in ``0..G``, ``C[a, b]`` counts the
    (adjacent chain pair, slot) entries with exactly one of the two
    candidate ranks in ``[a, b)``, and ``O[a, b]`` the reference (row 0)
    samples with rank in ``[a, b)``.  Both are read off prefix sums of
    the rank histogram; only the ``a < b`` entries are meaningful.
    """
    m = len(cand)
    ranks = np.searchsorted(cand, samples, side="right") - 1
    lo = np.minimum(ranks[:-1], ranks[1:]).ravel()
    hi = np.maximum(ranks[:-1], ranks[1:]).ravel()
    hist = np.bincount(lo * m + hi, minlength=m * m).reshape(m, m)
    # prefix[a, b] = number of pairs with lo < a and hi < b
    prefix = np.zeros((m + 1, m + 1), dtype=np.int64)
    prefix[1:, 1:] = hist.cumsum(0).cumsum(1)
    lo_below = prefix[:m, m]            # pairs with lo < a
    both_below = np.diagonal(prefix)[:m]  # pairs with hi < a
    # lo in [a, b) with hi >= b, plus lo < a with hi in [a, b)
    cost = (lo_below[None, :] - lo_below[:, None]
            - both_below[None, :] - both_below[:, None]
            + 2 * prefix[:m, :m])
    ref = np.concatenate(([0], np.cumsum(np.bincount(ranks[0], minlength=m))))
    occupancy = ref[None, :m] - ref[:m, None]
    return cost, occupancy


def optimize_boundaries(samples, floor: float, n_intervals: int,
                        grid_size: int = 64) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit interval boundaries to a (chain_members, slots) sample matrix.

    Row 0 is the reference (leader) sequence used for the balance stage;
    rows are compared pairwise in order for the mismatch objective.  All
    samples must be finite and at or above the floor.  Returns the
    intervals and each interval's chained mismatch count.

    The DP runs over suffixes on the segment matrices of
    :func:`_segment_matrices`.  Interval l may end at boundary index
    ``b <= G - L + l`` (interior boundaries stay on the grid, the last
    interval ends at the top index G), so layer l is a column slice of
    the strictly upper-triangular (``a < b``) segment matrix:

    * balance pass: ``bal_l[a] = max_b min(O[a, b], bal_{l+1}[b])``;
    * cost pass: ``tail_l[a] = min_b C[a, b] + tail_{l+1}[b]`` over the
      segments with ``O[a, b] >= target``.

    The layer past the last interval only admits the top index G.
    Boundaries are recovered front to back from each layer's row argmin,
    i.e. the first b whose entry equals the row optimum, which yields
    the lexicographically smallest optimal boundary tuple.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("samples must be a (chain_members >= 2, slots) matrix")
    if samples.shape[1] < 1:
        raise InfeasiblePartition("need at least one retained slot")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if np.any(samples < floor):
        raise ValueError("samples below the decode floor must be dropped first")
    L = int(n_intervals)
    G = int(grid_size)
    if L < 2:
        raise ValueError("n_intervals must be >= 2")
    if G < L:
        raise InfeasiblePartition(f"grid_size {G} < n_intervals {L}")

    cand = _candidates(floor, float(samples.max()), G)
    cost, occupancy = _segment_matrices(samples, cand)
    segment = np.triu(np.ones((G + 1, G + 1), dtype=bool), 1)
    ends = [G - L + l + 1 for l in range(L, 0, -1)]  # column slices, layer L first

    # Pass 1: maximize the minimum per-bin reference occupancy.
    occ = np.where(segment, occupancy, -1)
    bal = np.full(G + 1, -1, dtype=np.int64)
    bal[G] = _INF
    for k in ends:
        bal = np.minimum(occ[:, :k], bal[:k]).max(axis=1)
    target = int(bal[0])
    if target < 0:
        raise InfeasiblePartition("no feasible boundary placement")

    # Pass 2: minimize total mismatch among partitions whose every bin
    # holds at least `target` reference samples.
    seg_cost = np.where(segment & (occupancy >= target), cost, _INF)
    tail = np.full(G + 1, _INF, dtype=np.int64)
    tail[G] = 0
    choices = []
    for k in ends:
        total = seg_cost[:, :k] + tail[:k]
        choices.append(total.argmin(axis=1))
        tail = np.minimum(total.min(axis=1), _INF)
    if tail[0] >= _INF:
        raise InfeasiblePartition("no feasible boundary placement")

    # front to back; argmin took the smallest optimal b of every row
    idxs = [0]
    for best in reversed(choices):
        idxs.append(int(best[idxs[-1]]))

    iset = IntervalSet(boundaries=tuple(float(cand[i]) for i in idxs))
    # interval l's chained mismatch is the cost of segment [idxs[l-1], idxs[l])
    per_interval = tuple(int(cost[a, b]) for a, b in zip(idxs, idxs[1:]))
    return iset, per_interval


def retained_slots(trace: RssTrace, floor: float) -> np.ndarray:
    """Slots valid (not NaN) at every vehicle and at/above the decode floor.

    Dropped slot indices carry no RSS information, so sharing them across
    vehicles (and with the eavesdropper) is assumed safe.
    """
    # NaN compares False, so one comparison drops both
    return np.flatnonzero((trace.values >= floor).all(axis=0))


def _chain_rows(n_vehicles: int) -> list[int]:
    # leader-pair measurement once, then each estimating vehicle
    return [0] + list(range(2, n_vehicles))


def optimize_intervals(trace: RssTrace, n_intervals: int, grid_size: int,
                       floor: float) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit the quantizer to one trace's comparison chain.

    The chain pairs the leader-pair measurement with vehicle 3's estimate
    and each further adjacent estimator pair.  Slots invalid at any
    vehicle or below the decode ``floor``, which becomes the lowest
    boundary, are dropped synchronously first.
    """
    keep = retained_slots(trace, floor)
    if len(keep) == 0:
        raise InfeasiblePartition("no retained slots above the decode floor")
    chain = trace.values[np.ix_(_chain_rows(trace.n_vehicles), keep)]
    return optimize_boundaries(chain, floor, n_intervals, grid_size)


@dataclass
class QuantizedTrace:
    """Synchronously retained slots and their per-vehicle bin indices."""

    slot_indices: np.ndarray          # (retained,) original slot positions
    bins: np.ndarray                  # (n_vehicles, retained) 1-based
    eavesdropper_bins: np.ndarray     # (retained,) clamped best effort


def quantize_trace(trace: RssTrace, intervals: IntervalSet) -> QuantizedTrace:
    """Quantize every vehicle's samples on the fitted slots into bin indices.

    The slots are those the fit used (:func:`retained_slots`).  Vehicle 2,
    outside the fitted chain, takes bin L where it reads at or above the
    top.  The eavesdropper follows the shared drop indices and clamps its own
    invalid or out-of-range observations to the nearest bin, which is the
    best it can do while emitting a key of the agreed length.
    """
    keep = retained_slots(trace, intervals.decode_floor)
    bins = bin_indices(trace.values[:, keep], intervals)
    ebins = bin_indices(trace.eavesdropper[keep], intervals)
    return QuantizedTrace(slot_indices=keep, bins=bins, eavesdropper_bins=ebins)
