"""Two-stage dissemination cycle: key agreement, then encrypted forwarding.

Stage one (CSKA) lets the vehicles beacon strictly in turn from the
leader to the tail; a beacon not received by its checker is retransmitted
by its sender.  The Z passes' RSS traces are drawn once the beacons are
through, by :func:`cycle_traces`, the one writer of their seed node.  Stage two
(EVCD) has the leader encrypt the command with its key and forward it
hop by hop; every vehicle decrypts with its own key and re-encrypts for
the next hop, the tail answers with a one-bit ACK, and hop losses are
retried by the hop sender with an end-to-end leader retransmission as
the fallback.  A vehicle decodes the command only when it holds the
leader's whole key; its re-encryption cancels its own key, so a wrong
key does not reach the vehicles behind it, and whether a vehicle decodes
is one comparison of its key with the leader's.  Each stage draws its
losses from its own RNG stream in blocks of ``rng.random(k)``, the
doubles of k scalar draws; a stage whose loss probability is zero builds
no stream, as every one of its tries is delivered.

After the Z passes each vehicle holds its RSS traces.  The quantizer is
fitted once per cycle, and the agreed key extracted, on the slot-wise
average of each vehicle's own RSS sequences across iterations: the
passes share one shadowing realization (they fall within the channel
coherence time), so averaging needs no exchange of key material and
shrinks the estimation noise relative to the shared randomness, and
more iterations give better agreement.  A noiseless cycle's one trace is
fitted as it is; distinct passes are summed over a stacked copy, because
numpy's order over that axis sets the mean's last bits.  The slots kept
at every vehicle are selected once, on that average, and the fit and the
key read only them.

Event timing is slotted: every transmission occupies one slot, and
modeled latency is reported separately from wall-clock compute time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelParams,
    PlatoonGeometry,
    RssTrace,
    _child,
    generate_trace,
)
from .keygen import KeygenConfig, SecretKey, bmmr, codeword_table, extract_key
from .quantizer import (
    InfeasiblePartition,
    QuantizerConfig,
    optimize_intervals,
    quantize_trace,
    retained_slots,
)

__all__ = [
    "AgreementReport",
    "CYCLE_FAILURES",
    "CycleAbort",
    "CycleLog",
    "DisseminationFailure",
    "ProtocolConfig",
    "TransmissionEvent",
    "cycle_traces",
    "run_cska",
    "run_cycle",
    "run_evcd",
]


class CycleAbort(RuntimeError):
    """A beacon exhausted its retransmission budget during CSKA."""


class DisseminationFailure(RuntimeError):
    """EVCD ran out of end-to-end retries."""


# The modeled reasons a cycle fails: a caller running many cycles records
# these against the cycle and goes on; any other error is a fault.
# run_cycle records a DisseminationFailure as an unsuccessful cycle.
CYCLE_FAILURES = (CycleAbort, InfeasiblePartition)


@dataclass(frozen=True)
class ProtocolConfig:
    z_iterations: int = 1
    beacon_bits: int = 8
    beacon_loss_prob: float = 0.0
    data_loss_prob: float = 0.0
    dissemination_timeout_ms: float = 3000.0
    slot_duration_ms: float = 1.0
    retransmission_cap: int = 10

    def __post_init__(self) -> None:
        if self.z_iterations < 1:
            raise ValueError("z_iterations must be >= 1")
        if self.beacon_bits < 1:
            raise ValueError("beacon_bits must be >= 1")
        for p in (self.beacon_loss_prob, self.data_loss_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("loss probabilities must be in [0, 1]")
        if not (self.dissemination_timeout_ms > 0 and self.slot_duration_ms > 0):
            raise ValueError("timeout and slot duration must be > 0")
        if self.retransmission_cap < 0:
            raise ValueError("retransmission_cap must be >= 0")


class TransmissionEvent(NamedTuple):
    """One transmission in the slotted event trace."""

    slot: int
    stage: str       # "cska" | "evcd"
    sender: int      # vehicle index, 1-based
    receiver: int    # checking receiver of the transmission
    kind: str        # "beacon" | "data" | "ack"
    outcome: str     # "delivered" | "lost"


@dataclass
class CycleLog:
    """Counters and artifacts of one dissemination cycle."""

    beacon_transmissions: int = 0
    retransmissions: int = 0
    overhead_bits: int = 0
    events: list[TransmissionEvent] = field(default_factory=list)
    cska_latency_ms: float = 0.0
    evcd_latency_ms: float = 0.0
    evcd_data_transmissions: int = 0
    leader_retransmissions: int = 0
    decode_failure_hops: list[int] = field(default_factory=list)


def _send(log: CycleLog, rng: np.random.Generator | None, loss_prob: float,
          stage: str, packets: list[tuple[int, int, str, int]],
          attempts: int = 1) -> int:
    """Send ``(sender, receiver, kind, retries)`` packets in turn, retrying
    a loss at most ``retries`` times; a packet out of retries fails the
    attempt, and the next starts over.  Each try takes the next slot of
    ``log`` and the next of ``rng``'s loss draws, drawn in blocks of as
    many as there are packets left in the attempt; without ``rng`` every
    try is delivered.  Returns the number of attempts that failed."""
    events, unread = log.events, []  # loss outcomes not yet read, next last
    for failed in range(attempts):
        for done, (sender, receiver, kind, retries) in enumerate(packets):
            for _ in range(retries + 1):
                if rng is not None and not unread:
                    unread = (rng.random(len(packets) - done) < loss_prob).tolist()[::-1]
                lost = rng is not None and unread.pop()
                events.append(TransmissionEvent(
                    len(events) + 1, stage, sender, receiver, kind,
                    "lost" if lost else "delivered"))
                if not lost:
                    break
            else:
                break
        else:
            return failed
    return attempts


def run_cska(config: ProtocolConfig, geometry: PlatoonGeometry, seed) -> CycleLog:
    """Run the Z beacon passes and log them.

    Beacons go out strictly sequentially from vehicle 1 to vehicle N
    (half duplex: one transmission per slot, nobody both sends and
    receives in the same slot).  A lost beacon is retransmitted by its
    sender; more than ``retransmission_cap`` retries abort the cycle.
    Losses are drawn in blocks from the stage's own stream (see
    :func:`_send`), so draws past the last try go unread.  They draw from
    the seed's node ``(0,)`` (``channel._child``), built only when beacons
    can be lost; a ``SeedSequence`` seed is never spawned from, so the
    same object always gives the same stage.
    """
    loss_rng = (np.random.default_rng(_child(seed, 0))
                if config.beacon_loss_prob > 0 else None)

    log = CycleLog()
    n, cap = geometry.n_vehicles, config.retransmission_cap
    beacons = [(sender, sender + 1 if sender < n else sender - 1, "beacon", cap)
               for sender in range(1, n + 1)] * config.z_iterations
    if _send(log, loss_rng, config.beacon_loss_prob, "cska", beacons):
        raise CycleAbort(f"beacon of vehicle {log.events[-1].sender} "
                         f"exceeded {cap} retransmissions")
    log.beacon_transmissions = len(log.events)
    log.retransmissions = sum(e.outcome == "lost" for e in log.events)
    log.overhead_bits = log.beacon_transmissions * config.beacon_bits
    log.cska_latency_ms = len(log.events) * config.slot_duration_ms
    return log


def run_evcd(config: ProtocolConfig, keys: dict[int, SecretKey], seed,
             log: CycleLog | None = None) -> CycleLog:
    """Forward the encrypted command hop by hop to the tail.

    Every vehicle decrypts with its own key and re-encrypts with the same
    key for the next hop, so the sender's key cancels and vehicle j
    decodes only when it holds the leader's whole key: a key that differs
    in any bit fails the decode at that vehicle only (its hop appears in
    ``log.decode_failure_hops``).  So the decode is one comparison of
    every vehicle's key with the leader's.

    Hop losses are retried by the hop sender up to the retransmission
    cap; an exhausted hop (or a lost tail ACK) times out at the leader,
    which starts the dissemination over with a fresh packet, itself
    capped before :class:`DisseminationFailure`.  ``log.evcd_latency_ms``
    adds a timeout per failed attempt and a slot per transmission, raised
    or not.  Losses are drawn in blocks from the stage's own stream (see
    :func:`_send`).

    ``log.evcd_data_transmissions`` and the lost ``"data"`` events in
    ``log.events`` (the hop retransmissions) sum over every end-to-end
    attempt: a restart traverses the hops again and counts their retries
    again.  A per-hop rate taken from them is therefore per hop traversal
    (one delivered ``"data"`` event each), not per run.
    """
    vehicles = sorted(keys)
    if len(vehicles) < 2:
        raise ValueError("EVCD needs at least two vehicles")
    if len({len(keys[v]) for v in vehicles}) != 1:
        raise ValueError("every vehicle must hold a key of identical length")
    if not len(keys[vehicles[0]]):
        raise ValueError("keys must be non-empty")
    log = log if log is not None else CycleLog()
    rng = np.random.default_rng(seed) if config.data_loss_prob > 0 else None

    cap = config.retransmission_cap
    # every hop, then the one-bit ACK from the tail toward the leader
    packets = ([(s, r, "data", cap) for s, r in zip(vehicles, vehicles[1:])]
               + [(vehicles[-1], vehicles[0], "ack", 0)])
    first_event = len(log.events)
    failed = _send(log, rng, config.data_loss_prob, "evcd", packets, cap + 1)
    # a timeout per failed attempt, after which the leader starts over; added
    # one at a time, as a product could differ in the last bit
    for _ in range(failed):
        log.evcd_latency_ms += config.dissemination_timeout_ms
    log.evcd_data_transmissions += sum(
        e.kind == "data" for e in log.events[first_event:])
    log.leader_retransmissions += min(failed, cap)
    log.evcd_latency_ms += (len(log.events) - first_event) * config.slot_duration_ms
    if failed > cap:
        raise DisseminationFailure(
            f"dissemination failed after {failed} end-to-end attempts")

    bits = np.stack([keys[v].bits for v in vehicles])
    log.decode_failure_hops = (
        np.flatnonzero((bits[1:] != bits[0]).any(axis=1)) + 1).tolist()
    return log


@dataclass
class AgreementReport:
    """Outcome of one full cycle for one seed.

    ``dissemination_success`` needs every hop to decode the command, so
    every vehicle must hold the leader's whole key (see
    ``log.decode_failure_hops``).  ``retained_per_iteration`` counts each
    of the Z passes' retained slots (valid at every vehicle and at or
    above the decode floor), a noiseless cycle's one trace once per pass;
    only the averaged trace is fitted.
    """

    n_vehicles: int
    bmmr_per_vehicle: dict[int, float]
    eavesdropper_bmmr: float
    dissemination_success: bool
    agreed_key_bits: int
    retained_per_iteration: list[int]
    log: CycleLog
    leader_key: SecretKey

    @property
    def mean_bmmr(self) -> float:
        vals = list(self.bmmr_per_vehicle.values())
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def tail_bmmr(self) -> float:
        return self.bmmr_per_vehicle[self.n_vehicles]


def _nan_mean(passes: list[np.ndarray]) -> np.ndarray:
    """Mean over the passes of the entries that are not NaN; NaN where
    every pass's entry is, and where finite entries sum past the float
    range (the slot then drops like any failed estimate)."""
    stacked = np.stack(passes)
    valid = ~np.isnan(stacked)
    counts = valid.sum(axis=0)
    with np.errstate(over="ignore"):
        sums = np.where(valid, stacked, 0.0).sum(axis=0)
    return np.where((counts > 0) & np.isfinite(sums),
                    sums / np.maximum(counts, 1), np.nan)


def _averaged_trace(traces: list[RssTrace]) -> RssTrace:
    """Slot-wise mean of each vehicle's sequences over valid iterations.

    A slot stays valid for a vehicle when at least one iteration observed
    it; which slots failed is shareable (it carries no RSS values), so the
    averaging is synchronized across vehicles.  A lone trace (Z=1, or a
    noiseless cycle) is returned as it is.  Distinct passes are summed
    over a stacked (Z, ...) copy: numpy adds a (Z, 1) stack pairwise
    rather than in order, so a running ``+=`` over the passes would change
    the mean's last bits, and with them keys.
    """
    if len(traces) == 1:
        return traces[0]
    return RssTrace(values=_nan_mean([t.values for t in traces]),
                    eavesdropper=_nan_mean([t.eavesdropper for t in traces]))


def cycle_traces(params: ChannelParams, geometry: PlatoonGeometry,
                 slots: int, seed, passes: int = 1) -> list[RssTrace]:
    """The RSS traces of :func:`run_cycle` at ``seed``: one
    :func:`generate_trace` call at the seed's node ``(0, 1, 0)``, the only
    one that draws from it, ``passes`` being the cycle's Z.  The passes
    share the cycle's shadowing and differ only in their noise, so a
    noiseless cycle has one; every recorded Z=1 key depends on them."""
    return generate_trace(params, geometry, slots, _child(seed, 0, 1, 0), passes)


def run_cycle(params: ChannelParams, geometry: PlatoonGeometry,
              protocol: ProtocolConfig, quant: QuantizerConfig,
              keygen: KeygenConfig, slots: int, seed, *,
              traces: list[RssTrace] | None = None) -> AgreementReport:
    """One full dissemination cycle: CSKA, key extraction, EVCD, report.

    A lossy CSKA draws from the seed's node ``(0, 0)`` (:func:`run_cska`
    reads child 0 of node ``(0,)``), the traces from ``(0, 1, 0)``
    (:func:`cycle_traces`, drawn only once the beacons are through) and a
    lossy EVCD from ``(1,)`` (``channel._child``).  No stage spawns from a
    ``SeedSequence`` seed, so the same object always gives the same cycle.
    A caller that has drawn the cycle's traces already passes them as
    ``traces``: :func:`cycle_traces` at the same seed, or the first
    ``n_vehicles`` rows of a wider platoon's traces of equal
    ``channel.trace_key``.  They give the cycle that its own draw gives.
    The kept slots are selected once, on the averaged trace, and the fit
    and the bins read only them; nothing reads ``keygen``.
    """
    log = run_cska(protocol, geometry,
                   _child(seed, 0) if protocol.beacon_loss_prob > 0 else None)
    if traces is None:
        traces = cycle_traces(params, geometry, slots, seed, protocol.z_iterations)

    floor = params.rss_decode_floor_db
    trace = _averaged_trace(traces)
    keep = retained_slots(trace, floor)
    retained = ([len(keep)] * protocol.z_iterations if len(traces) == 1
                else [len(retained_slots(t, floor)) for t in traces])
    trace = RssTrace(values=trace.values.take(keep, axis=1),
                     eavesdropper=trace.eavesdropper.take(keep))
    intervals, _ = optimize_intervals(trace, quant.n_intervals,
                                      quant.grid_size, floor=floor)
    table = codeword_table(quant.n_intervals)
    *keys, eavesdropper_key = extract_key(quantize_trace(trace, intervals), table)
    leader = keys[0]
    bmmrs = {i: bmmr(leader, key) for i, key in enumerate(keys[1:], 2)}

    try:
        run_evcd(protocol, dict(enumerate(keys, 1)),
                 _child(seed, 1) if protocol.data_loss_prob > 0 else None, log)
        success = not log.decode_failure_hops
    except DisseminationFailure:
        success = False

    return AgreementReport(
        n_vehicles=geometry.n_vehicles,
        bmmr_per_vehicle=bmmrs,
        eavesdropper_bmmr=bmmr(leader, eavesdropper_key),
        dissemination_success=success,
        agreed_key_bits=len(leader),
        retained_per_iteration=retained,
        log=log,
        leader_key=leader,
    )
