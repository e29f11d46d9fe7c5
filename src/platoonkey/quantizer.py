"""Adaptive RSS quantization via dynamic-programming interval fitting.

A quantizer is an ordered set of L contiguous half-open dB intervals
``[b_0, b_1), [b_1, b_2), ..., [b_{L-1}, b_L)`` with ``b_0`` pinned to the
a-priori decode floor.  Candidate boundaries live on a uniform grid:
``b_0 = grid[0] = floor``, interior boundaries are chosen from the G - 1
grid points above the floor, and the top boundary is one grid step above
the largest chain sample.  A sample's rank on the grid is not searched for:
its guess from the grid step is corrected until the candidates bracket it.
Nor is a bin: it is 1 plus the count of interior boundaries ``<=`` the
sample.  A trace is a ``(n_vehicles + 1, slots)`` block, a row per
vehicle and the eavesdropper's last (``channel``).  The fit and the bins
read only the slots that every vehicle kept, selected once by the caller
(:func:`retained_slots`); the fit reads the chain rows, and every row is
binned.  Vehicle 2, outside the chain, takes bin L at or above the top;
the eavesdropper clamps below the floor to bin 1 and at or above the top
to bin L, and its NaN takes bin 1.

The fit minimizes the chained cross-vehicle mismatch count (adjacent
rows of the comparison chain XOR-ed per interval, summed over slots and
intervals) subject to a balance requirement: among all grid partitions
it first maximizes the minimum number of reference (vehicle-1) samples
per bin, then minimizes total mismatch, then takes the lexicographically
smallest boundary tuple.  Without the balance stage the mismatch
objective is degenerate: packing all interior boundaries below the
samples puts every sample in one bin and scores zero mismatch while
producing constant, entropy-free keys.

The fit reads each (adjacent chain pair, slot) entry once, as its two
ranks ``lo <= hi`` among the G + 1 boundary indices (floor at 0, interior
grid points 1..G-1, top at G).  The balance target, the largest minimum
reference occupancy over all partitions, is bisected: a target is met iff
placing each interior boundary at the smallest index that fills its bin
leaves the last bin full too.  The cost pass is a DP on the segment cost
``C[a, b]``, the chained mismatch that interval ``[a, b)`` alone
contributes, with one masked reduction per interval.  The first interval
starts at 0 and the last ends at G, so their layers are vectors of the
1-D cumulative count of cut pairs; the full matrix, from a 2-D prefix
count, is built only for the L - 2 middle layers, so only when L >= 3.
Each layer's argmin takes the smallest optimal b, which yields the
lexicographically smallest optimal boundary tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasiblePartition",
    "IntervalSet",
    "QuantizerConfig",
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


def _grid_ranks(samples: np.ndarray, floor: float, top: float, grid_size: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Boundary candidates (G grid points from the floor to ``top``, the
    largest sample, a top point one grid step above it, then +inf) and each
    sample's rank r in 0..G, with ``cand[r] <= x < cand[r + 1]``: the
    ``np.searchsorted(cand[:-1], x, "right") - 1``.  From the guess
    ``(x - floor) / step``, capped at G, every sample outside its bracket
    steps toward it until none is, so of coinciding points it takes the last.
    """
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


def _balance_target(ref: list[int], n_intervals: int) -> int:
    """The largest t such that some partition holds at least t reference
    samples in each of its L bins, where ``ref[b]``, for b in 0..G, counts
    those of rank below b.  Bisected over t in ``[0, ref[G] // L]``: t is
    feasible iff taking each interior boundary at the smallest index that
    gives its bin t samples, L - 1 times, leaves t for the last bin."""
    G = len(ref) - 1

    def feasible(t: int) -> bool:
        a = 0
        for _ in range(n_intervals - 1):
            a = bisect_left(ref, ref[a] + t, a + 1, G)
            if a == G:  # no interior index is left
                return False
        return ref[G] - ref[a] >= t

    low, high = 0, ref[G] // n_intervals  # G >= L, so t = 0 is feasible
    while low < high:
        mid = (low + high + 1) // 2
        if feasible(mid):
            low = mid
        else:
            high = mid - 1
    return low


def optimize_boundaries(samples, floor: float, n_intervals: int,
                        grid_size: int = 64) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit interval boundaries to a (chain_members, slots) sample matrix.

    Row 0 is the reference (leader) sequence used for the balance stage;
    rows are compared pairwise in order for the mismatch objective.  All
    samples must be finite and at or above the floor.  Returns the
    intervals and each interval's chained mismatch count.

    The ranks come from :func:`_grid_ranks` and the balance target from
    :func:`_balance_target`.  Of the pairs of ranks ``lo <= hi``, a segment
    ``[a, b)`` holds exactly one rank of ``C[a, b] = cut[a] + cut[b] - 2
    #(lo < a, hi >= b)``, where ``cut[c] = #(lo < c <= hi)``.  The DP runs
    over suffixes: interval l may end at index ``b <= G - L + l`` (the last
    one at the top index G), and its layer is ``tail_l[a] = min_b C[a, b] +
    tail_{l+1}[b]`` over the segments ``a < b`` with ``ref[b] - ref[a] >=
    target``.  Boundaries are recovered front to back, from each layer's
    first (smallest) optimal b.  Grid points that coincide in float raise
    :class:`InfeasiblePartition`.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("samples must be a (chain_members >= 2, slots) matrix")
    if samples.shape[1] < 1:
        raise InfeasiblePartition("no retained slots above the decode floor")
    # min and max are NaN if any sample is
    least, top = float(samples.min()), float(samples.max())
    if not (np.isfinite(least) and np.isfinite(top)):
        raise ValueError("samples must be finite")
    if least < floor:
        raise ValueError("samples below the decode floor must be dropped first")
    L = int(n_intervals)
    G = int(grid_size)
    if L < 2:
        raise ValueError("n_intervals must be >= 2")
    if G < L:
        raise InfeasiblePartition(f"grid_size {G} < n_intervals {L}")

    cand, ranks = _grid_ranks(samples, floor, top, G)
    m = G + 1
    lo = np.minimum(ranks[:-1], ranks[1:]).ravel()
    hi = np.maximum(ranks[:-1], ranks[1:]).ravel()
    # at boundary index c in 0..G: ref[c] reference samples of rank below c,
    # and cut[c] = #(lo < c <= hi)
    ref = np.concatenate(([0], np.bincount(ranks[0], minlength=m).cumsum()))[:m]
    cut = np.concatenate(([0], (np.bincount(lo, minlength=m)
                                - np.bincount(hi, minlength=m)).cumsum()))[:m]
    target = _balance_target(ref.tolist(), L)
    k = G - L + 2  # the first interval ends at b in 1..k-1
    # first_cost[b - 1] is C[0, b] and last_cost[a] is C[a, G]; lo < a and
    # hi >= G only for a pair of a rank-G sample, which no segment holds
    first_cost = cut[1:k]
    last_cost = cut[:G] + cut[G]
    if cut[G]:
        last_cost -= 2 * np.concatenate(([0], np.bincount(lo[hi == G], minlength=G)
                                         .cumsum()))[:G]
    if L > 2:  # only the middle layers read the segment matrix
        # the pairs counted at (lo + 1, G - hi), so that both cumsums run
        # forward: below[a, G - b] = #(lo < a, hi >= b)
        below = np.bincount((lo + 1) * m + (G - hi), minlength=(m + 1) * m
                            ).reshape(m + 1, m)[:m].cumsum(0).cumsum(1)
        cost = cut[:, None] + cut - 2 * below[:, ::-1]
        # ref is nondecreasing, so ref[b] - ref[a] >= target from the first
        # such b on; [a, b) is a segment only for b > a
        index = np.arange(m)
        start = np.maximum(np.searchsorted(ref, ref + target), index + 1)
        seg_cost = np.where(index < start[:, None], _INF, cost)

    # minimize total mismatch among partitions whose every bin holds at
    # least `target` reference samples
    tail = np.where(ref[G] - ref[:G] >= target, last_cost, _INF)
    choices = []
    for end in range(G, k, -1):  # the middle layers, layer L-1 first
        total = seg_cost[:, :end] + tail[:end]
        best = total.argmin(axis=1)
        choices.append(best)
        tail = np.minimum(total[index, best], _INF)
    total = np.where(ref[1:k] >= target, first_cost, _INF) + tail[1:k]
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


def retained_slots(trace: np.ndarray, floor: float) -> np.ndarray:
    """Slots valid (not NaN) at every vehicle and at/above the decode floor.

    Dropped slot indices carry no RSS information, so sharing them across
    vehicles (and with the eavesdropper) is assumed safe; the
    eavesdropper's last row has no say.
    """
    # NaN compares False, so one comparison drops both
    return np.flatnonzero((trace[:-1] >= floor).all(axis=0))


def optimize_intervals(trace: np.ndarray, n_intervals: int, grid_size: int,
                       floor: float) -> tuple[IntervalSet, tuple[int, ...]]:
    """Fit the quantizer to one trace's comparison chain.

    The chain pairs the leader-pair measurement with vehicle 3's estimate
    and each further adjacent estimator pair: rows 0 and 2..N-1.  The
    trace holds only the slots the vehicles kept (:func:`retained_slots`),
    so every chain sample is finite and at or above the decode ``floor``,
    which becomes the lowest boundary; a NaN or lower sample raises
    ``ValueError``.
    """
    # the leader pair's row once, then vehicles 3..N, not the eavesdropper
    chain = trace.take([0, *range(2, len(trace) - 1)], axis=0)
    return optimize_boundaries(chain, floor, n_intervals, grid_size)


def quantize_trace(trace, intervals: IntervalSet) -> np.ndarray:
    """Bin index of each sample: 1 plus the count of interior boundaries
    ``b_1 .. b_{L-1}`` at or below it, so the 1-based index of the interval
    ``[b_{l-1}, b_l)`` that holds it, an intp array of the trace's shape.
    Below the floor is bin 1, at or above the top bin L, and NaN, which
    compares False, bin 1.

    A cycle's trace is its ``(n_vehicles + 1, slots)`` block of the slots
    the fit used, so the result is a row of bins per vehicle, then the
    eavesdropper's.  Vehicle 2, outside the fitted chain, takes bin L where
    it reads at or above the top.  The eavesdropper follows the shared drop
    indices and clamps its own invalid or out-of-range observations to the
    nearest bin, which is the best it can do while emitting a key of the
    agreed length.
    """
    trace = np.asarray(trace, dtype=float)
    bins = np.ones(trace.shape, dtype=np.intp)
    for b in intervals.boundaries[1:-1]:
        bins += trace >= b
    return bins
