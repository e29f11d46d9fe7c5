"""Inter-vehicle RSS generation under log-distance path loss and shadowing.

All RSS arithmetic is in dB.  The RSS of a link is the path attenuation
``H = P_tx - P_rx``, in which the transmit power cancels (:func:`rss_of_link`).
The leader-pair estimator stays in dB too: it maps the gap between a
follower's two readings to the estimate in closed form, with no distance
formed (:func:`_estimate_rows`).

Randomness model of :func:`generate_trace`, per slot:

* shadowing per link, zero-mean Gaussian in dB with total standard
  deviation ``shadowing_sigma_db``.  A configurable fraction of the
  shadowing *variance* is a component common to all platoon links in the
  same slot (roadside environment seen by the whole convoy); the rest is
  link-private.  The common part is what the follower-side estimator can
  recover, since a shift common to a follower's two readings leaves their
  gap unchanged and moves the estimate by exactly that shift.
* optional AR(1) temporal correlation of the shadowing processes.
* optional receiver measurement noise whose standard deviation scales
  with the mean path attenuation of the link (weak signal, noisy RSSI).
* optional reciprocity perturbation between the two lead vehicles'
  readings of the same slot (half-duplex time offset).

Shadowing is drawn once per cycle: the Z beacon passes of a cycle fall
within the channel coherence time, so they see the same fading.  It is
drawn, colored and faded in place, in one block of every link's readings.
Measurement and reciprocity noise, when nonzero, are drawn once per pass;
without them the Z passes are equal, and a cycle has one pass.

A cycle's traces are one read-only float64 array of shape
``(P, n_vehicles + 1, slots)``, a block per distinct pass: row i-1 of a
block holds vehicle i's sequence and the last row (row N) the
eavesdropper's, so the eavesdropper's readings travel with the platoon's
through every stage after the trace.  P is Z on a channel with per-pass
noise and 1 otherwise.  An invalid entry (a failed estimate) is NaN;
NaN marks nothing else.

The eavesdropper's links draw from an RNG stream disjoint from the
platoon's, and its shadowing (common and private) is independent of the
platoon's, so its observations share no randomness with the key source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "EAVESDROPPER_POSITIONS",
    "PlatoonGeometry",
    "generate_trace",
    "rss_of_link",
    "trace_key",
]

EAVESDROPPER_POSITIONS = ("P1", "P2", "P3")


@dataclass(frozen=True)
class ChannelParams:
    """Radio propagation constants.

    A link's RSS is its attenuation ``P_tx - P_rx``, in which the beacon
    transmit power cancels, so the transmit power is not a parameter.

    Parameters
    ----------
    channel_constant_db:
        Channel constant added to the receive power, so subtracted from the RSS (dB).
    path_loss_exponent:
        Path-loss exponent, > 0.
    shadowing_sigma_db:
        Total standard deviation of the per-link log-normal shadowing (dB).
    rss_decode_floor_db:
        A-priori minimum RSS usable for decoding; the lowest quantization
        boundary.  Must sit below every *measured* link RSS in a valid
        configuration (derived estimates may still dip below it and are
        then dropped as out of range).
    shadowing_common_fraction:
        Fraction of shadowing variance shared by all platoon links in a
        slot.  0 reproduces fully independent per-link shadowing.
    shadowing_autocorr:
        First-order temporal autocorrelation of each shadowing process.
    reciprocity_sigma_db:
        Std of the perturbation between the two lead vehicles' readings
        of the same slot.
    measurement_noise_db:
        Receiver RSS noise std at 0 dB path attenuation; the effective
        std of a reading on a link with mean attenuation ``H`` is
        ``measurement_noise_db * 10**(H / 20)``.
    """

    channel_constant_db: float = 3.0
    path_loss_exponent: float = 2.0
    shadowing_sigma_db: float = 3.0
    rss_decode_floor_db: float = -15.0
    shadowing_common_fraction: float = 0.0
    shadowing_autocorr: float = 0.0
    reciprocity_sigma_db: float = 0.0
    measurement_noise_db: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.path_loss_exponent < math.inf:
            raise ValueError("path_loss_exponent must be > 0")
        if not math.isfinite(self.channel_constant_db):
            raise ValueError("channel_constant_db must be finite")
        if not 0 <= self.shadowing_sigma_db < math.inf:
            raise ValueError("shadowing_sigma_db must be >= 0")
        if not math.isfinite(self.rss_decode_floor_db):
            raise ValueError("rss_decode_floor_db must be finite")
        if not 0.0 <= self.shadowing_common_fraction <= 1.0:
            raise ValueError("shadowing_common_fraction must be in [0, 1]")
        if not -1.0 < self.shadowing_autocorr < 1.0:
            raise ValueError("shadowing_autocorr must be in (-1, 1)")
        if not (0 <= self.reciprocity_sigma_db < math.inf
                and 0 <= self.measurement_noise_db < math.inf):
            raise ValueError("noise sigmas must be >= 0")


@dataclass(frozen=True)
class PlatoonGeometry:
    """Collinear platoon with a uniform inter-vehicle gap.

    Vehicle ``i`` sits at longitudinal coordinate ``(i - 1) * pair_distance_m``.
    The eavesdropper position is one of the tags P1 (abreast of the midpoint
    of the lead pair), P2 (abreast of the midpoint of vehicles 3 and 4) or
    P3 (on the lane axis behind the tail vehicle); ``eavesdropper_distance_m``
    is its lateral offset for P1/P2 and its gap behind the tail for P3.
    """

    n_vehicles: int
    pair_distance_m: float
    eavesdropper_position: str = "P1"
    eavesdropper_distance_m: float = 3.0

    def __post_init__(self) -> None:
        if self.n_vehicles < 3:
            raise ValueError("n_vehicles must be >= 3")
        if not self.pair_distance_m > 0:
            raise ValueError("pair_distance_m must be > 0")
        if self.eavesdropper_position not in EAVESDROPPER_POSITIONS:
            raise ValueError(f"eavesdropper_position must be one of {EAVESDROPPER_POSITIONS}")
        if not self.eavesdropper_distance_m >= 3.0:
            raise ValueError("eavesdropper closer than 3 m would be identified")
        if self.eavesdropper_position == "P2" and self.n_vehicles < 4:
            raise ValueError("position P2 requires at least 4 vehicles")

    def vehicle_x(self, i: int) -> float:
        return (i - 1) * self.pair_distance_m

    def link_distance(self, i: int, j: int) -> float:
        return abs(self.vehicle_x(i) - self.vehicle_x(j))

    def eavesdropper_link_distances(self) -> tuple[float, float]:
        """Distances from the two lead vehicles to the eavesdropper."""
        d, gap = self.eavesdropper_distance_m, self.pair_distance_m
        ex, ey = {"P1": (0.5 * gap, d), "P2": (2.5 * gap, d),
                  "P3": (self.vehicle_x(self.n_vehicles) + d, 0.0)}[self.eavesdropper_position]
        return math.hypot(ex - self.vehicle_x(1), ey), math.hypot(ex - self.vehicle_x(2), ey)


def rss_of_link(params: ChannelParams, distance_m, shadowing_db):
    """Link RSS in dB, ``10 * eta * log10(d) - constant - shadowing``."""
    d = np.asarray(distance_m, dtype=float)
    if not np.all(d > 0):  # NaN too
        raise ValueError("distance_m must be > 0")
    return (10.0 * params.path_loss_exponent * np.log10(d)
            - params.channel_constant_db - np.asarray(shadowing_db, dtype=float))


def _child(seed, *path: int) -> np.random.SeedSequence:
    """The node that ``spawn`` calls on a fresh ``seed`` reach at ``path``
    (``(1, 0)`` is child 0 of child 1), built directly from its spawn key:
    no node along the way is built, and ``seed`` is never spawned from."""
    if not isinstance(seed, np.random.SeedSequence):  # entropy as given; None: fresh per node
        return np.random.SeedSequence(seed, spawn_key=path)
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + path,
                                  pool_size=seed.pool_size)


def _ar1(draws: np.ndarray, rho: float) -> np.ndarray:
    """Color iid standard normal rows in place with a stationary AR(1) filter."""
    if rho == 0.0:
        return draws
    # scipy.signal takes most of a package import; load it only when used
    from scipy.signal import lfilter

    draws[..., 1:] *= math.sqrt(1.0 - rho * rho)
    draws[...] = lfilter([1.0], [1.0, -rho], draws, axis=-1)
    return draws


def _estimate_rows(params: ChannelParams, h1: np.ndarray, h2: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Leader-pair RSS estimated from readings of the links to vehicles 1
    and 2, written into ``out`` (of their shape) and returned.

    At zero shadowing (which the follower cannot observe) reading ``h`` puts
    a vehicle at ``d = 10**((h + c) / s)``, ``s = 10 * path_loss_exponent``,
    and ``d1 - d2 = d2 * expm1((h1 - h2) * ln(10) / s)``.  So the estimate
    ``s * log10(d1 - d2) - c`` is ``h2 + s * log10(expm1((h1 - h2) * ln(10) / s))``,
    formed without a distance.  It is NaN unless ``h1 > h2`` and the result
    is finite: a gap above about ``3080 * path_loss_exponent`` dB overflows
    expm1.
    """
    s = 10.0 * params.path_loss_exponent
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(h1, h2, out=out)
        out *= math.log(10.0) / s
        np.expm1(out, out=out)
    invalid = ~((out > 0) & (out < math.inf))  # h1 <= h2, a NaN, or overflow
    np.putmask(out, invalid, 1.0)
    np.log10(out, out=out)
    out *= s
    out += h2
    np.putmask(out, invalid, np.nan)
    return out


def _draws_per_pass(params: ChannelParams) -> bool:
    return params.measurement_noise_db > 0 or params.reciprocity_sigma_db > 0


def generate_trace(params: ChannelParams, geometry: PlatoonGeometry,
                   slots: int, seed, passes: int = 1) -> np.ndarray:
    """Generate a cycle's RSS traces, deterministically from the seed.

    Vehicles 1 and 2 receive the measured leader-pair RSS (vehicle 2's
    reading optionally offset by reciprocity noise), vehicles 3..N the
    estimate formed from their own two link readings, and the eavesdropper
    an estimate formed from its own, independently faded links.

    Returns the cycle's distinct passes as one read-only float64 array of
    shape ``(P, n_vehicles + 1, slots)``: row i-1 of a block is vehicle i,
    the last row the eavesdropper.  Its ``P = passes`` blocks share one
    shadowing draw and each draw their own noise, continuing the first
    pass's RNG streams; a noiseless channel has one block (P = 1).
    Zero-sigma noise is not drawn, as it adds 0 and ends its stream.
    The shadowing is drawn and filtered in place in one ``(2N, slots)`` block,
    beside which a call allocates a common row per stream, the returned
    array, into which each pass's estimates are written, and on a noisy
    channel one block of readings that every pass reuses.
    The platoon draws from the seed's node ``(0,)``, the eavesdropper from
    ``(1,)`` (:func:`_child`); a ``SeedSequence`` seed is never spawned
    from, so the same object always gives the same traces.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    rng, erng = (np.random.default_rng(_child(seed, k)) for k in (0, 1))

    n = geometry.n_vehicles
    sigma, frac = params.shadowing_sigma_db, params.shadowing_common_fraction
    sig_c, sig_p = sigma * math.sqrt(frac), sigma * math.sqrt(1.0 - frac)
    rho, a = params.shadowing_autocorr, params.measurement_noise_db
    eta10, c = 10.0 * params.path_loss_exponent, params.channel_constant_db

    # Row r is reading r: vehicles 1 and 2 both read link (1,2), and follower
    # j's readings of (1,j) and (2,j) are the even and odd rows from row 2 on,
    # the eavesdropper's of its links to vehicles 1 and 2 the last two rows.
    faded, sig = np.empty((2 * n, slots)), np.zeros((2 * n, 1))

    def fade(stream, rows, dist):
        """Faded RSS and noise scale of links sharing one common shadowing."""
        common = sig_c * _ar1(stream.standard_normal(slots), rho)
        shadow = _ar1(stream.standard_normal(out=faded[rows]), rho)
        shadow *= sig_p
        shadow += common  # rss_of_link, written in place
        np.subtract(rss_of_link(params, dist[:, None], 0.0), shadow, out=shadow)
        if a > 0:  # libm's log10: numpy's differs in the last bit on some inputs
            try:
                sig[rows, 0] = [a * 10.0 ** ((eta10 * math.log10(d) - c) / 20.0) for d in dist]
            except OverflowError:
                raise ValueError(f"measurement_noise_db {a:g} at channel_constant_db "
                                 f"{c:g}: noise scale overflows") from None

    # the platoon's links in shadowing draw order: (1,2), then (1,j) and (2,j)
    links = [(1, 2)] + [(i, j) for j in range(3, n + 1) for i in (1, 2)]
    fade(rng, slice(1, -2), np.array([geometry.link_distance(i, j) for i, j in links]))
    faded[0], sig[0] = faded[1], sig[1]
    # Eavesdropper: same propagation constants, disjoint RNG stream and
    # fully independent shadowing (common component included).
    fade(erng, slice(-2, None), np.array(geometry.eavesdropper_link_distances()))

    # measurement noise is drawn while recip is on, to keep recip's place in the stream
    noisy = _draws_per_pass(params)
    traces = np.empty((passes if noisy else 1, n + 1, slots))
    readings, recip = (np.empty_like(faded) if noisy else faded), 0.0
    for block in traces:
        if noisy:
            rng.standard_normal(out=readings[:-2])
            recip = params.reciprocity_sigma_db * rng.standard_normal(slots)
            if a > 0:
                erng.standard_normal(out=readings[-2:])
            else:  # 0 * 0 adds +0.0, which moves no faded RSS: none is -0.0
                readings[-2:] = 0.0
            readings *= sig
            readings += faded
        block[:2] = readings[:2]
        block[1] += recip
        # the followers' and the eavesdropper's estimates in one call, the
        # eavesdropper's last: the estimator is elementwise
        _estimate_rows(params, readings[2::2], readings[3::2], block[2:])
    traces.flags.writeable = False
    return traces


def trace_key(params: ChannelParams, geometry: PlatoonGeometry, slots: int,
              passes: int = 1) -> tuple:
    """The draw rule of :func:`generate_trace`: at one seed, platoons with
    equal keys read the same random numbers, so the narrower platoon's
    traces are the wider one's first ``n_vehicles`` rows and its last,
    the eavesdropper's.

    The platoon draws its links in vehicle order, (1,2) and then (1,j)
    and (2,j) for j = 3..N.  Per-pass noise follows all the shadowing on
    the same stream, so a noisy channel's key holds the platoon size and
    the passes; P3's eavesdropper distances hold the platoon size too.
    """
    key = (params, slots, geometry.pair_distance_m,
           geometry.eavesdropper_link_distances())
    if _draws_per_pass(params):
        key += (geometry.n_vehicles, passes)
    return key
