"""Independent reference implementations used to pin expected values.

Everything here is deliberately straight-line: nested loops, itertools
enumeration, and high-precision special functions via mpmath.  None of
it shares code paths with the package.  ``reference_trace`` is a frozen
copy of the per-vehicle trace generator, ``reference_longest_run_test``
one of the per-block longest-run loop (with scipy's ``gammaincc``, so the
p-values compare exactly), ``stacked_nan_mean`` one of the Z-pass
average over a stacked copy of every pass, ``matrix_boundaries`` one of
the quantizer fit that builds the full segment matrices for every DP
layer, and ``reference_cska_tries``
and ``reference_evcd_tries`` one of the protocol's packet loop with one
scalar loss draw per try, kept to pin the vectorized code bit for bit.
``reference_cycle_seeds`` is the cycle's seed tree as a chain of
``spawn`` calls, ``reference_bin_indices`` the bin search over every
boundary, ``distance_from_rss`` the path-loss inversion,
``exact_estimate`` the leader-pair estimate through distances at 60
digits, ``copying_ar1`` the AR(1) filter on a fresh buffer, as it was
before it colored its argument in place, and ``xor_cipher`` a
repeating-keystream cipher whose hop chain pins the package's whole-key
EVCD decode.  ``copying_trace`` is the trace
generator as it was before its estimator read strided views: it gathers
the readings, stacks the estimator's inputs and runs
``copying_estimate_rows``, the closed-form estimator on fresh buffers.
It shares the package's seed nodes, AR(1) filter and link law, and pins
the estimator and its caller bit for bit.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.signal import lfilter
from scipy.special import gammaincc

mpmath.mp.dps = 50


def brute_force_boundaries(samples, floor, n_intervals, grid_size):
    """Exhaustive search over every grid partition.

    Mirrors the package's selection rule with plain loops: maximize the
    minimum per-bin count of the reference row, then minimize the chained
    mismatch, then take the lexicographically smallest boundary tuple.
    Returns (boundaries, total_mismatch, best_balance).
    """
    rows = [list(r) for r in samples]
    top_sample = max(max(r) for r in rows)
    if not top_sample > floor:
        raise ValueError("floor must sit below the largest sample")
    step = (top_sample - floor) / (grid_size - 1)
    grid = [floor + k * step for k in range(grid_size)]
    grid[-1] = top_sample
    candidates = grid + [top_sample + step]

    def bin_of(x, bounds):
        for l in range(len(bounds) - 1):
            if bounds[l] <= x < bounds[l + 1]:
                return l + 1
        return 0

    def total_mismatch(bounds):
        total = 0
        for l in range(1, n_intervals + 1):
            for a, b in zip(rows[:-1], rows[1:]):
                for x, y in zip(a, b):
                    bit_x = 1 if bin_of(x, bounds) == l else 0
                    bit_y = 1 if bin_of(y, bounds) == l else 0
                    if bit_x != bit_y:
                        total += 1
        return total

    def min_occupancy(bounds):
        worst = None
        for l in range(1, n_intervals + 1):
            count = sum(1 for x in rows[0] if bin_of(x, bounds) == l)
            worst = count if worst is None else min(worst, count)
        return worst

    best = None
    interior_choices = range(1, grid_size)  # grid points above the floor
    for combo in itertools.combinations(interior_choices, n_intervals - 1):
        bounds = ([candidates[0]]
                  + [candidates[i] for i in combo]
                  + [candidates[-1]])
        key = (-min_occupancy(bounds), total_mismatch(bounds), bounds)
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no feasible partition")
    neg_occ, mismatch, bounds = best
    return tuple(bounds), mismatch, -neg_occ


def chained_mismatch(bin_rows, l):
    """Plain re-count of the interval-l mismatch chain."""
    total = 0
    for a, b in zip(bin_rows[:-1], bin_rows[1:]):
        for x, y in zip(a, b):
            if (1 if x == l else 0) != (1 if y == l else 0):
                total += 1
    return total


def reference_key_bits(bins, q):
    """Per-slot key bits: each bin's Q-bit Gray codeword, in slot order."""
    words = gray_list(q)
    return [int(c) for l in bins for c in words[l - 1]]


def distance_from_rss(params, rss_db, shadowing_db):
    """Invert the path-loss law: distance (m) implied by an RSS reading."""
    num = (np.asarray(rss_db, dtype=float) + params.channel_constant_db
           + np.asarray(shadowing_db, dtype=float))
    return 10.0 ** (num / (10.0 * params.path_loss_exponent))


def exact_estimate(params, h1, h2):
    """Leader-pair estimate of two readings as the follower defines it:
    both inverted to distances at zero shadowing, differenced, and mapped
    back to dB, all at 60 digits and rounded once to a float.  NaN unless
    the implied distance difference is positive."""
    with mpmath.workdps(60):
        c, s = mpmath.mpf(params.channel_constant_db), 10 * mpmath.mpf(params.path_loss_exponent)
        d1, d2 = (mpmath.power(10, (mpmath.mpf(h) + c) / s) for h in (h1, h2))
        return float(s * mpmath.log10(d1 - d2) - c) if d1 > d2 else math.nan


def xor_cipher(payload, key):
    """Repeating-keystream XOR of a payload with a key's bits; its own
    inverse for a fixed key."""
    data = np.asarray(payload, dtype=np.uint8)
    if len(key) == 0:
        raise ValueError("cannot build a keystream from an empty key")
    return data ^ np.resize(key.bits, data.size)


def reference_bin_indices(xs, intervals):
    """1-based bins from a search over all L + 1 boundaries, clipped to
    1..L, with NaN in bin 1."""
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(np.asarray(intervals.boundaries), xs, side="right")
    return np.where(np.isnan(xs), 1, np.clip(idx, 1, len(intervals.boundaries) - 1))


def reference_cycle_seeds(seed):
    """The seed nodes of one cycle, reached by ``spawn`` calls: the cycle
    spawns three (CSKA, EVCD, an unread command stream), CSKA two (its
    losses, then the traces' parent), the traces' parent one, and the
    traces two (platoon, eavesdropper).  A ``SeedSequence`` seed is
    spawned from, so pass a fresh one."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    cska, evcd, _ = ss.spawn(3)
    cska_loss, trace_parent = cska.spawn(2)
    traces = trace_parent.spawn(1)[0]
    platoon, eavesdropper = traces.spawn(2)
    return {"cska": cska, "cska_loss": cska_loss, "traces": traces,
            "platoon": platoon, "eavesdropper": eavesdropper, "evcd": evcd}


def copying_ar1(draws, rho):
    """The stationary AR(1) filter on a fresh buffer: samples 1.. scaled
    by sqrt(1 - rho**2), sample 0 as drawn, then ``lfilter``."""
    if rho == 0.0:
        return draws
    scaled = draws * math.sqrt(1.0 - rho * rho)
    scaled[..., 0] = draws[..., 0]
    return lfilter([1.0], [1.0, -rho], scaled, axis=-1)


def reference_trace(params, geometry, slots, seed):
    """Per-vehicle loop of the trace generator, with the same RNG draws.

    Returns (values, valid, eavesdropper, eavesdropper_valid).
    """
    ss = np.random.SeedSequence(seed)
    platoon_ss, eaves_ss = ss.spawn(2)
    rng = np.random.default_rng(platoon_ss)
    erng = np.random.default_rng(eaves_ss)
    eta, const = params.path_loss_exponent, params.channel_constant_db
    frac, rho = params.shadowing_common_fraction, params.shadowing_autocorr
    sig_c = params.shadowing_sigma_db * math.sqrt(frac)
    sig_p = params.shadowing_sigma_db * math.sqrt(1.0 - frac)

    # transmit power minus receive power, of a 0 dBm beacon
    def link(d, shadow):
        return 0.0 - (0.0 + const - 10.0 * eta * np.log10(np.asarray(d, dtype=float))
                      + shadow)

    def noise_sigma(d):
        return params.measurement_noise_db * 10.0 ** (
            (10.0 * eta * math.log10(d) - const) / 20.0)

    def estimate(h1, h2):
        # h2 + s * log10(expm1((h1 - h2) * ln(10) / s)), s = 10 * eta
        ok = h1 > h2
        with np.errstate(over="ignore"):
            gap = np.expm1((h1 - h2) * (math.log(10.0) / (10.0 * eta)))
        ok &= np.isfinite(gap)
        est = h2 + 10.0 * eta * np.log10(np.where(ok, gap, 1.0))
        return np.where(ok, est, np.nan), ok

    n = geometry.n_vehicles
    dv = geometry.pair_distance_m
    common = sig_c * copying_ar1(rng.standard_normal(slots), rho)
    private = sig_p * copying_ar1(rng.standard_normal((1 + 2 * (n - 2), slots)), rho)
    meas = rng.standard_normal((2 + 2 * (n - 2), slots))
    recip = params.reciprocity_sigma_db * rng.standard_normal(slots)
    values = np.empty((n, slots))
    valid = np.ones((n, slots), dtype=bool)
    h12 = link(dv, common + private[0])
    values[0] = h12 + noise_sigma(dv) * meas[0]
    values[1] = h12 + noise_sigma(dv) * meas[1] + recip
    for j in range(3, n + 1):
        k = j - 3
        d1j = abs(0.0 - (j - 1) * dv)
        d2j = abs(dv - (j - 1) * dv)
        h1j = link(d1j, common + private[1 + 2 * k]) + noise_sigma(d1j) * meas[2 + 2 * k]
        h2j = link(d2j, common + private[2 + 2 * k]) + noise_sigma(d2j) * meas[3 + 2 * k]
        values[j - 1], valid[j - 1] = estimate(h1j, h2j)

    de = geometry.eavesdropper_distance_m
    ex, ey = {"P1": (0.5 * dv, de), "P2": (2.5 * dv, de),
              "P3": ((n - 1) * dv + de, 0.0)}[geometry.eavesdropper_position]
    d1e, d2e = math.hypot(ex - 0.0, ey), math.hypot(ex - dv, ey)
    e_common = sig_c * copying_ar1(erng.standard_normal(slots), rho)
    e_private = sig_p * copying_ar1(erng.standard_normal((2, slots)), rho)
    e_meas = erng.standard_normal((2, slots))
    h1e = link(d1e, e_common + e_private[0]) + noise_sigma(d1e) * e_meas[0]
    h2e = link(d2e, e_common + e_private[1]) + noise_sigma(d2e) * e_meas[1]
    eaves, eaves_valid = estimate(h1e, h2e)
    return values, valid, eaves, eaves_valid


def copying_estimate_rows(params, h1, h2):
    """The closed-form leader-pair estimator on fresh buffers, one pass
    per operation, NaN wherever the result is not finite."""
    scale = 10.0 * params.path_loss_exponent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gap = np.expm1((h1 - h2) * (math.log(10.0) / scale))
        est = h2 + np.log10(gap) * scale
    return np.where(np.isfinite(est), est, np.nan)


def copying_trace(params, geometry, slots, seed, passes=1):
    """``generate_trace`` with a gathered copy of the readings and stacked
    estimator inputs; returns ``(values, eavesdropper)`` per pass."""
    from platoonkey.channel import _ar1, _child, rss_of_link

    rng = np.random.default_rng(_child(seed, 0))
    erng = np.random.default_rng(_child(seed, 1))
    n = geometry.n_vehicles
    sigma, frac = params.shadowing_sigma_db, params.shadowing_common_fraction
    sig_c, sig_p = sigma * math.sqrt(frac), sigma * math.sqrt(1.0 - frac)
    rho, a = params.shadowing_autocorr, params.measurement_noise_db

    def fade(stream, dist):
        common = sig_c * _ar1(stream.standard_normal(slots), rho)
        private = sig_p * _ar1(stream.standard_normal((len(dist), slots)), rho)
        scale = np.zeros((len(dist), 1))
        if a > 0:
            scale[:, 0] = [a * 10.0 ** ((10.0 * params.path_loss_exponent * math.log10(d)
                                         - params.channel_constant_db) / 20.0) for d in dist]
        return rss_of_link(params, dist[:, None], common + private), scale

    links = [(1, 2)] + [(i, j) for j in range(3, n + 1) for i in (1, 2)]
    faded, sig = fade(rng, np.array([geometry.link_distance(i, j) for i, j in links]))
    read = np.maximum(np.arange(len(links) + 1) - 1, 0)
    faded, sig = faded[read], sig[read]
    e_faded, e_sig = fade(erng, np.array(geometry.eavesdropper_link_distances()))
    noisy = a > 0 or params.reciprocity_sigma_db > 0
    out = []
    for _ in range(passes if noisy else 1):
        readings, recip = faded, 0.0
        if noisy:
            readings = faded + sig * rng.standard_normal(faded.shape)
            recip = params.reciprocity_sigma_db * rng.standard_normal(slots)
        e_readings = (e_faded + e_sig * erng.standard_normal(e_faded.shape)
                      if a > 0 else e_faded)
        est = copying_estimate_rows(params, np.vstack((readings[2::2], e_readings[:1])),
                                    np.vstack((readings[3::2], e_readings[1:])))
        values = np.empty((n, slots))
        values[:2] = readings[:2]
        values[1] += recip
        values[2:] = est[:-1]
        out.append((values, est[-1]))
    return out


def stacked_nan_mean(values):
    """NaN-skipping mean over the first axis of a stacked (Z, ...) array;
    NaN where every entry is.  Each reference to a shared pass is its own
    row, and numpy's sum over that axis sets the bits."""
    valid = ~np.isnan(values)
    counts = valid.sum(axis=0)
    sums = np.where(valid, values, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


class NoPartition(ValueError):
    """The matrix fit found no grid or no feasible placement."""


def matrix_boundaries(samples, floor, n_intervals, grid_size):
    """The quantizer fit with every DP layer on the full ``(G+1)**2``
    segment matrices.

    Takes valid input (finite samples at or above the floor, 2 <= L <= G)
    and returns ``(boundaries, per_interval)``.  The boundaries are the
    candidate values at the chosen indices, not checked for increase, so
    grid points that coincide in float show as equal boundaries.  Raises
    :class:`NoPartition` where the fit finds no placement.
    """
    inf = np.iinfo(np.int64).max // 2
    samples = np.asarray(samples, dtype=float)
    L, G = int(n_intervals), int(grid_size)
    top = float(samples.max())
    if not top > floor:
        raise NoPartition("no grid above the floor")
    step = (top - floor) / (G - 1)
    cand = np.append(np.linspace(floor, top, G), top + step)
    m = len(cand)
    ranks = np.searchsorted(cand, samples, side="right") - 1
    lo = np.minimum(ranks[:-1], ranks[1:]).ravel()
    hi = np.maximum(ranks[:-1], ranks[1:]).ravel()
    hist = np.bincount(lo * m + hi, minlength=m * m).reshape(m, m)
    prefix = np.zeros((m + 1, m + 1), dtype=np.int64)
    prefix[1:, 1:] = hist.cumsum(0).cumsum(1)
    lo_below = prefix[:m, m]
    both_below = np.diagonal(prefix)[:m]
    cost = (lo_below[None, :] - lo_below[:, None]
            - both_below[None, :] - both_below[:, None]
            + 2 * prefix[:m, :m])
    ref = np.concatenate(([0], np.cumsum(np.bincount(ranks[0], minlength=m))))
    occupancy = ref[None, :m] - ref[:m, None]
    segment = np.triu(np.ones((m, m), dtype=bool), 1)
    ends = [G - L + l + 1 for l in range(L, 0, -1)]

    occ = np.where(segment, occupancy, -1)
    bal = np.full(m, -1, dtype=np.int64)
    bal[G] = inf
    for k in ends:
        bal = np.minimum(occ[:, :k], bal[:k]).max(axis=1)
    target = int(bal[0])
    if target < 0:
        raise NoPartition("no feasible boundary placement")

    seg_cost = np.where(segment & (occupancy >= target), cost, inf)
    tail = np.full(m, inf, dtype=np.int64)
    tail[G] = 0
    choices = []
    for k in ends:
        total = seg_cost[:, :k] + tail[:k]
        choices.append(total.argmin(axis=1))
        tail = np.minimum(total.min(axis=1), inf)
    if tail[0] >= inf:
        raise NoPartition("no feasible boundary placement")
    idxs = [0]
    for best in reversed(choices):
        idxs.append(int(best[idxs[-1]]))
    return (tuple(float(cand[i]) for i in idxs),
            tuple(int(cost[a, b]) for a, b in zip(idxs, idxs[1:])))


def gray_list(q):
    """Reflected-binary list built by the mirror construction."""
    words = [[0], [1]]
    for _ in range(q - 1):
        words = [[0] + w for w in words] + [[1] + w for w in reversed(words)]
    return ["".join(str(b) for b in w) for w in words]


def erfc_hp(x):
    return float(mpmath.erfc(x))


def gammaincc_hp(a, x):
    """Regularized upper incomplete gamma Q(a, x) at 50 digits."""
    return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def normal_cdf_hp(x):
    return float(mpmath.ncdf(x))


def frequency_p(bits):
    n = len(bits)
    s = abs(sum(2 * b - 1 for b in bits))
    return erfc_hp(s / math.sqrt(2 * n))


def block_frequency_p(bits, m):
    n = len(bits)
    k = n // m
    chi2 = 0.0
    for i in range(k):
        pi = sum(bits[i * m:(i + 1) * m]) / m
        chi2 += (pi - 0.5) ** 2
    chi2 *= 4.0 * m
    return gammaincc_hp(k / 2.0, chi2 / 2.0)


def cusum_p(bits, reverse=False):
    seq = list(reversed(bits)) if reverse else list(bits)
    walk, z, s = 0, 0, []
    for b in seq:
        walk += 2 * b - 1
        z = max(z, abs(walk))
    if z == 0:
        return 1.0
    n = len(seq)
    sq = math.sqrt(n)
    t1 = sum(normal_cdf_hp((4 * k + 1) * z / sq) - normal_cdf_hp((4 * k - 1) * z / sq)
             for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1))
    t2 = sum(normal_cdf_hp((4 * k + 3) * z / sq) - normal_cdf_hp((4 * k + 1) * z / sq)
             for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1))
    return min(max(1.0 - t1 + t2, 0.0), 1.0)


def runs_p(bits):
    n = len(bits)
    pi = sum(bits) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + sum(1 for a, b in zip(bits[:-1], bits[1:]) if a != b)
    return erfc_hp(abs(v - 2 * n * pi * (1 - pi))
                   / (2 * math.sqrt(2 * n) * pi * (1 - pi)))


def serial_psisq(bits, m):
    if m <= 0:
        return 0.0
    n = len(bits)
    ext = list(bits) + list(bits[:m - 1])
    counts = {}
    for i in range(n):
        pat = tuple(ext[i:i + m])
        counts[pat] = counts.get(pat, 0) + 1
    return (2 ** m) / n * sum(c * c for c in counts.values()) - n


def serial_p(bits, m):
    d1 = serial_psisq(bits, m) - serial_psisq(bits, m - 1)
    d2 = (serial_psisq(bits, m) - 2 * serial_psisq(bits, m - 1)
          + serial_psisq(bits, m - 2))
    return (gammaincc_hp(2 ** (m - 2), d1 / 2.0),
            gammaincc_hp(2 ** (m - 3), d2 / 2.0))


def apen_p(bits, m):
    n = len(bits)

    def phi(mm):
        if mm == 0:
            return 0.0
        ext = list(bits) + list(bits[:mm - 1])
        counts = {}
        for i in range(n):
            pat = tuple(ext[i:i + mm])
            counts[pat] = counts.get(pat, 0) + 1
        return sum((c / n) * math.log(c / n) for c in counts.values())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return gammaincc_hp(2 ** (m - 1), chi2 / 2.0)


def reference_longest_run_test(bits):
    """Longest-run-of-ones p-value, one Python loop per block."""
    tables = (
        (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
         (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
        (6272, 128, (4, 5, 6, 7, 8, 9),
         (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
        (128, 8, (1, 2, 3, 4),
         (0.2148, 0.3672, 0.2305, 0.1875)),
    )
    eps = np.asarray(bits, dtype=np.int64).ravel()
    n = len(eps)
    for min_n, m, cats, probs in tables:
        if n >= min_n:
            break
    k = n // m
    longest = []
    for block in eps[:k * m].reshape(k, m):
        best = cur = 0
        for b in block:
            cur = cur + 1 if b else 0
            best = max(best, cur)
        longest.append(best)
    nu = np.zeros(len(cats), dtype=np.int64)
    for run in longest:
        pos = int(np.clip(np.searchsorted(cats, run), 0, len(cats) - 1))
        if run > cats[pos]:
            pos = len(cats) - 1
        nu[pos] += 1
    expected = k * np.asarray(probs)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return float(gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0))


def _scalar_tries(rng, loss_prob, stage, events, sender, receiver, kind,
                  retries):
    """One packet, one scalar loss draw per try; True once delivered."""
    for _ in range(retries + 1):
        lost = rng.random() < loss_prob
        events.append((len(events) + 1, stage, sender, receiver, kind,
                       "lost" if lost else "delivered"))
        if not lost:
            return True
    return False


def reference_cska_tries(config, n_vehicles, seed):
    """The beacon tries of ``run_cska`` at an integer seed: the event
    tuples, the counters ``run_cska`` derives from them, and the exception
    type it raises (None when every beacon got through)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    events = []
    failure = None
    for sender in list(range(1, n_vehicles + 1)) * config.z_iterations:
        checker = sender + 1 if sender < n_vehicles else sender - 1
        if not _scalar_tries(rng, config.beacon_loss_prob, "cska", events,
                             sender, checker, "beacon",
                             config.retransmission_cap):
            failure = "CycleAbort"
            break
    lost = sum(e[5] == "lost" for e in events)
    counters = {"beacon_transmissions": len(events), "retransmissions": lost,
                "overhead_bits": len(events) * config.beacon_bits,
                "cska_latency_ms": len(events) * config.slot_duration_ms}
    return events, counters, failure


def reference_evcd_tries(config, n_vehicles, seed):
    """The hop and ACK tries of ``run_evcd`` for vehicles 1..N at an
    integer seed, as :func:`reference_cska_tries` returns them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cap = config.retransmission_cap
    events = []
    latency = 0.0
    for attempt in range(cap + 1):
        delivered = all(
            _scalar_tries(rng, config.data_loss_prob, "evcd", events, s, s + 1,
                          "data", cap) for s in range(1, n_vehicles)
        ) and _scalar_tries(rng, config.data_loss_prob, "evcd", events,
                            n_vehicles, 1, "ack", 0)
        if delivered:
            break
        latency += config.dissemination_timeout_ms
    counters = {"evcd_data_transmissions": sum(e[4] == "data" for e in events),
                "leader_retransmissions": attempt,
                "evcd_latency_ms": latency + len(events) * config.slot_duration_ms}
    return events, counters, None if delivered else "DisseminationFailure"


def evcd_expected_attempts(p, cap):
    """Expected transmissions of a capped retry-until-delivered loop."""
    # sum_{k=0}^{cap} p^k, the truncated geometric series
    return sum(p ** k for k in range(cap + 1))


def follower_rho(sigma, frac, j):
    """Correlation of follower j's leader-pair estimate with the leader's
    reading, to first order in the private shadowing.

    Besides the mean and the common shadowing c, which pass through the
    estimator unchanged, the leader reads p0 and the estimate
    (j-1) p1 - (j-2) p2, with p0 the private shadowing of the lead link
    and p1, p2 those of the follower's links to vehicles 1 and 2.  With
    common variance vc = sigma^2 frac and private variance
    vp = sigma^2 (1 - frac):
    rho = vc / sqrt((vc + vp) (vc + vp ((j-1)^2 + (j-2)^2))).
    """
    vc = sigma * sigma * frac
    vp = sigma * sigma * (1.0 - frac)
    return vc / math.sqrt((vc + vp) * (vc + vp * ((j - 1) ** 2 + (j - 2) ** 2)))


def sheppard_mismatch(rho):
    """Probability that two zero-mean jointly Gaussian readings with
    correlation ``rho`` fall on opposite sides of their medians:
    arccos(rho) / pi (Sheppard, 1899)."""
    return float(mpmath.acos(rho) / mpmath.pi)
