"""Adaptive RSS quantization via dynamic-programming interval fitting.

A quantizer is an ordered set of L contiguous half-open dB intervals
``[b_0, b_1), [b_1, b_2), ..., [b_{L-1}, b_L)`` with ``b_0`` pinned to the
a-priori decode floor.  Candidate boundaries live on a uniform grid:
``b_0 = grid[0] = floor``, interior boundaries are chosen from the G - 1
grid points above the floor, and the top boundary is one grid step above
the largest chain sample.  A sample's rank on the grid is not searched for:
its guess from the grid step is corrected until the candidates bracket it.
Nor is a bin: it is 1 plus the count of interior boundaries ``<=`` the
sample.  The fit and the bins read only the slots that every vehicle
kept, selected once by the caller (:func:`retained_slots`).  Vehicle 2,
outside the chain, takes bin L at or above the top; the eavesdropper
clamps below the floor to bin 1 and at or above the top to bin L, and
its NaN takes bin 1.

The fit minimizes the chained cross-vehicle mismatch count (adjacent
rows of the comparison chain XOR-ed per interval, summed over slots and
intervals) subject to a balance requirement: among all grid partitions
it first maximizes the minimum number of reference (vehicle-1) samples
per bin, then minimizes total mismatch, then takes the lexicographically
smallest boundary tuple.  Without the balance stage the mismatch
objective is degenerate: packing all interior boundaries below the
samples puts every sample in one bin and scores zero mismatch while
producing constant, entropy-free keys.

The DP runs over the G + 1 boundary indices (floor at 0, interior grid
points 1..G-1, top at G) on the segment cost ``C[a, b]``, the chained
mismatch that interval ``[a, b)`` alone contributes, and the reference
occupancy ``O[a, b]``, the reference samples in ``[a, b)``: a balance
pass, then a cost pass, one masked reduction per interval each.  The
first interval starts at 0 and the last ends at G, so their layers are
row 0 and column G, vectors read off 1-D cumulative rank counts.  The
full matrices, from 2-D prefix sums, are built only for the L - 2
middle layers, so only when L >= 3.  Each layer's argmin takes the
smallest optimal b, which yields the lexicographically smallest optimal
boundary tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RssTrace

__all__ = [
    "InfeasiblePartition",
    "IntervalSet",
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


def bin_indices(xs, intervals: IntervalSet) -> np.ndarray:
    """1-based index of the interval ``[b_{l-1}, b_l)`` holding each sample:
    1 plus the count of interior boundaries ``b_1 .. b_{L-1}`` at or below
    it, an intp array of the shape of ``xs``.  So below the floor is bin 1,
    at or above the top bin L, and NaN, which compares False, bin 1."""
    xs = np.asarray(xs, dtype=float)
    bins = np.ones(xs.shape, dtype=np.intp)
    for b in intervals.boundaries[1:-1]:
        bins += xs >= b
    return bins


def _grid_ranks(samples: np.ndarray, floor: float, grid_size: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Boundary candidates (G grid points from the floor to the largest
    sample, a top point one grid step above it, then +inf) and each
    sample's rank r in 0..G, with ``cand[r] <= x < cand[r + 1]``: the
    ``np.searchsorted(cand[:-1], x, "right") - 1``.  From the guess
    ``(x - floor) / step``, capped at G, every sample outside its bracket
    steps toward it until none is, so of coinciding points it takes the last.
    """
    top = float(samples.max())
    span = top - floor
    if not 0 < span < np.inf:
        raise InfeasiblePartition("decode floor must lie strictly below the largest "
                                  "retained sample, a finite span away")
    step = span / (grid_size - 1)
    cand = np.concatenate((np.linspace(floor, top, grid_size), (top + step, np.inf)))
    # a subnormal span can round the step to 0; any positive divisor guesses
    ranks = np.minimum((samples - floor) / (step or span), grid_size).astype(np.intp)
    while True:
        low = samples < cand.take(ranks)
        high = samples >= cand[1:].take(ranks)
        if not (np.count_nonzero(low) or np.count_nonzero(high)):
            return cand, ranks
        ranks -= low
        ranks += high


def _cut_costs(ranks: np.ndarray, m: int) -> np.ndarray:
    """Number of (adjacent chain pair, slot) entries that a cut just
    above rank ``b`` separates, for ``b`` in ``0..m-1``: #(lo <= b < hi)."""
    lo = np.minimum(ranks[:-1], ranks[1:]).ravel()
    hi = np.maximum(ranks[:-1], ranks[1:]).ravel()
    return (np.bincount(lo, minlength=m) - np.bincount(hi, minlength=m)).cumsum()


def _segment_matrices(ranks: np.ndarray, ref: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch cost ``C`` and reference occupancy ``O`` of every segment.

    Over boundary indices ``a, b`` in ``0..G``, ``C[a, b]`` counts the
    (adjacent chain pair, slot) entries with exactly one of the two
    candidate ranks in ``[a, b)``, and ``O[a, b]`` the reference samples
    with rank in ``[a, b)``, from ``ref[b]``, those of rank below b.  ``O``
    is -1 where ``a >= b``, no segment, so it meets no balance target.
    """
    m = len(ref) - 1
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
    occupancy = ref[None, :m] - ref[:m, None]
    return cost, np.where(np.triu(np.ones((m, m), dtype=bool), 1), occupancy, -1)


def optimize_boundaries(samples, floor: float, n_intervals: int,
                        grid_size: int = 64) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit interval boundaries to a (chain_members, slots) sample matrix.

    Row 0 is the reference (leader) sequence used for the balance stage;
    rows are compared pairwise in order for the mismatch objective.  All
    samples must be finite and at or above the floor.  Returns the
    intervals and each interval's chained mismatch count.

    The DP runs over suffixes.  Interval l may end at index
    ``b <= G - L + l`` (the last one at the top index G), and its layer is

    * balance pass: ``bal_l[a] = max_b min(O[a, b], bal_{l+1}[b])``;
    * cost pass: ``tail_l[a] = min_b C[a, b] + tail_{l+1}[b]`` over the
      segments with ``O[a, b] >= target``.

    The ranks come from :func:`_grid_ranks`, a guess from the grid step
    corrected until bracketed.  Layers 1 and L are row 0 and column G of
    ``C`` and ``O``, read off 1-D cumulative rank counts; the middle layers are column slices of
    :func:`_segment_matrices`.  Boundaries are recovered front to back,
    from each layer's first (smallest) optimal b.  Grid points that
    coincide in float raise :class:`InfeasiblePartition`.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("samples must be a (chain_members >= 2, slots) matrix")
    if samples.shape[1] < 1:
        raise InfeasiblePartition("no retained slots above the decode floor")
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

    cand, ranks = _grid_ranks(samples, floor, G)
    ref = np.concatenate(([0], np.bincount(ranks[0], minlength=G + 1).cumsum()))
    k = G - L + 2  # the first interval ends at b in 1..k-1
    # entry b - 1 of first_* is segment [0, b), entry a of last_* is [a, G);
    # a rank-G sample lies in no [a, G), so last_cost counts it below rank 0
    first_cost, first_occ = _cut_costs(ranks, G + 1)[:k - 1], ref[1:k]
    last_cost = _cut_costs(np.where(ranks < G, ranks + 1, 0), G + 1)[:G]
    last_occ = ref[G] - ref[:G]
    if L > 2:  # only the middle layers read the segment matrices
        cost, occ = _segment_matrices(ranks, ref)
    ends = range(G, k, -1)  # the middle layers' column slices, layer L-1 first

    # Pass 1: maximize the minimum per-bin reference occupancy.
    bal = last_occ
    for end in ends:
        bal = np.minimum(occ[:, :end], bal[:end]).max(axis=1)
    # G >= L, so every choice of L - 1 interior indices is a partition
    # whose every bin holds >= 0 reference samples: the target is >= 0,
    # and some partition meets it at finite cost
    target = int(np.minimum(first_occ, bal[1:k]).max())

    # Pass 2: minimize total mismatch among partitions whose every bin
    # holds at least `target` reference samples.
    tail = np.where(last_occ >= target, last_cost, _INF)
    if L > 2:
        seg_cost = np.where(occ >= target, cost, _INF)
    choices = []
    for end in ends:
        total = seg_cost[:, :end] + tail[:end]
        choices.append(total.argmin(axis=1))
        tail = np.minimum(total.min(axis=1), _INF)
    total = np.where(first_occ >= target, first_cost, _INF) + tail[1:k]
    first = int(total.argmin())

    # front to back; argmin took the smallest optimal b of every row
    idxs = [0, first + 1]
    for best in reversed(choices):
        idxs.append(int(best[idxs[-1]]))
    idxs.append(G)

    bounds = cand[idxs].tolist()
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise InfeasiblePartition(
            "grid points coincide in float, so the fitted boundaries do too")
    # interval l's chained mismatch is the cost of segment [idxs[l-1], idxs[l])
    per_interval = (int(first_cost[first]),
                    *(int(cost[a, b]) for a, b in zip(idxs[1:-2], idxs[2:-1])),
                    int(last_cost[idxs[-2]]))
    return IntervalSet(boundaries=tuple(bounds)), per_interval


def retained_slots(trace: RssTrace, floor: float) -> np.ndarray:
    """Slots valid (not NaN) at every vehicle and at/above the decode floor.

    Dropped slot indices carry no RSS information, so sharing them across
    vehicles (and with the eavesdropper) is assumed safe.
    """
    # NaN compares False, so one comparison drops both
    return np.flatnonzero((trace.values >= floor).all(axis=0))


def optimize_intervals(trace: RssTrace, n_intervals: int, grid_size: int,
                       floor: float) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit the quantizer to one trace's comparison chain.

    The chain pairs the leader-pair measurement with vehicle 3's estimate
    and each further adjacent estimator pair.  The trace holds only the
    slots the vehicles kept (:func:`retained_slots`), so every chain sample
    is finite and at or above the decode ``floor``, which becomes the
    lowest boundary; a NaN or lower sample raises ``ValueError``.
    """
    # the leader pair's row once, then vehicles 3..N
    chain = trace.values.take([0, *range(2, trace.n_vehicles)], axis=0)
    return optimize_boundaries(chain, floor, n_intervals, grid_size)


def quantize_trace(trace: RssTrace, intervals: IntervalSet) -> np.ndarray:
    """Bin indices of the kept slots, the ``(n_vehicles + 1, slots)`` block
    of a row per vehicle, then the eavesdropper's.

    The trace holds the slots the fit used.  Vehicle 2, outside the fitted
    chain, takes bin L where it reads at or above the top.  The eavesdropper
    follows the shared drop indices and clamps its own invalid or
    out-of-range observations to the nearest bin, which is the best it can
    do while emitting a key of the agreed length.
    """
    return bin_indices(np.vstack((trace.values, trace.eavesdropper)), intervals)
