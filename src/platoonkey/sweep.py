"""Experiment sweeps: deterministic execution and CSV reports.

This module also holds what every command shares: :func:`point_cycle`,
the seed rule of a cycle, and ``_write_csv``, the one CSV dialect.

A sweep expands the scenario into points along its axis.  Its work
unit is one seed: a pure call that runs every point's cycle at that
seed.  A cycle's random numbers come from its seed alone, so the points
at one seed see the same draws wherever they read the same ones, and
comparisons across points are paired (common random numbers).  Points
whose platoons read the same numbers (equal ``channel.trace_key``) share
one draw of the traces, made for the widest platoon: the points of an
``n_intervals`` axis, and those of a ``z_iterations`` or ``n_vehicles``
axis on a channel without per-pass noise, P3 placements aside.  A
narrower point reads the draw's first ``n_vehicles`` rows and its last,
the eavesdropper's (``channel``'s one trace layout).  Pool
worker w runs seeds w, w + workers, ..., every point in equal shares.
Results merge in (point, seed) order, so the deterministic outputs are
byte-identical at every parallelism degree:

* ``runs.csv``     one row per executed cycle,
* ``summary.csv``  one row per (point, metric) with mean/stddev, the
  figure data: a BMMR figure plots the ``mean`` and ``stddev`` of
  ``bmmr_v2``, ``bmmr_tail``, ``bmmr_mean`` and ``eavesdropper_bmmr``
  against ``axis_value``,
* ``nist.csv``     randomness battery of each point's key corpus,
* ``corpus_point<k>.txt``  the leader's concatenated agreed keys.

Wall-clock compute time is intentionally kept out of those files and
written to the ``timings.csv`` sidecar instead: a row's
``compute_seconds`` is its own cycle's time, and a shared draw's is in
the row of the point it was drawn for.  Every deterministic CSV
starts with a ``#``-prefixed provenance block carrying the fully
resolved scenario, its seeds included; a row's ``axis_value`` is its
point's token there (``scenario.sweep_labels``; ``-`` without an axis).

The key corpus of a point is the leader's agreed key concatenated over
seeds.  Follower keys are near-copies of the leader's, so concatenating
all vehicles would plant long-range repeats that a spectral test reads
as structure; the leader stream is the scheme's actual key material.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import trace_key
from .protocol import CYCLE_FAILURES, AgreementReport, cycle_traces, run_cycle
from .randomness import bits_from_ascii, run_battery
from .scenario import Scenario, serialize_scenario, sweep_labels

__all__ = ["SweepReport", "point_cycle", "run_sweep"]

RUN_COLUMNS = (
    "point", "axis", "axis_value", "seed",
    "bmmr_mean", "bmmr_v2", "bmmr_tail", "eavesdropper_bmmr",
    "success", "failure", "error", "key_bits",
    "cska_latency_ms", "evcd_latency_ms",
    "beacon_transmissions", "retransmissions", "overhead_bits",
)

SUMMARY_METRICS = (
    "bmmr_mean", "bmmr_v2", "bmmr_tail", "eavesdropper_bmmr",
    "success", "key_bits", "cska_latency_ms", "evcd_latency_ms",
    "overhead_bits",
)

SUMMARY_HEADER = ("point", "axis", "axis_value", "metric", "mean", "stddev", "n")


def point_cycle(point: Scenario, seed: int, *,
                traces: np.ndarray | None = None) -> AgreementReport:
    """The cycle of a single-point scenario at one seed, on the cycle's
    ``traces`` when they are drawn already (``protocol.run_cycle``)."""
    return run_cycle(point.channel, point.geometry, point.protocol,
                     point.quantizer, point.keygen, point.slots, seed, traces=traces)


def _run_unit(args) -> list[dict]:
    """Every point's cycle at one seed, in point order; pure given its
    arguments.

    Points of equal ``channel.trace_key`` share one draw of the cycle's
    traces, made for the widest platoon among them, and each runs its
    cycle on the draw's first ``n_vehicles`` rows and its last, the
    eavesdropper's.  A row's ``compute_s`` is its own cycle's time, plus
    the draw's in the row of the point it was drawn for.

    A cycle that fails for a modeled reason (beacon retries exhausted, no
    feasible quantizer fit) becomes a ``failure=1`` row whose ``error``
    names the exception; any other error propagates.  Exhausted
    dissemination retries leave a completed cycle with ``success=0``.
    """
    points, axis, labels, seed = args
    keys = [trace_key(p.channel, p.geometry, p.slots, p.protocol.z_iterations)
            for p in points]
    widest: dict[tuple, int] = {}  # trace key -> the point its draw is for
    for pi in sorted(range(len(points)), key=lambda i: -points[i].geometry.n_vehicles):
        widest.setdefault(keys[pi], pi)
    drawn, draw_s = {}, {}
    for key, pi in widest.items():
        t0, w = time.perf_counter(), points[pi]
        drawn[key] = cycle_traces(w.channel, w.geometry, w.slots, seed,
                                  w.protocol.z_iterations)
        draw_s[pi] = time.perf_counter() - t0

    rows = []
    for pi, (point, key) in enumerate(zip(points, keys)):
        t0, n = time.perf_counter(), point.geometry.n_vehicles
        row: dict = {"point": pi, "axis": axis, "axis_value": labels[pi], "seed": seed}
        try:
            rep = point_cycle(point, seed,
                              traces=drawn[key].take([*range(n), -1], axis=1))
        except CYCLE_FAILURES as exc:
            row.update({c: float("nan") for c in RUN_COLUMNS if c not in row})
            row.update(success=0, failure=1, error=type(exc).__name__, key01="")
        else:
            row.update(
                bmmr_mean=rep.mean_bmmr,
                bmmr_v2=rep.bmmr_per_vehicle[2],
                bmmr_tail=rep.tail_bmmr,
                eavesdropper_bmmr=rep.eavesdropper_bmmr,
                success=int(rep.dissemination_success),
                failure=0,
                key_bits=rep.agreed_key_bits,
                cska_latency_ms=rep.log.cska_latency_ms,
                evcd_latency_ms=rep.log.evcd_latency_ms,
                beacon_transmissions=rep.log.beacon_transmissions,
                retransmissions=rep.log.retransmissions,
                overhead_bits=rep.log.overhead_bits,
                error="",
                key01=rep.leader_key.to01(),
            )
        row["compute_s"] = time.perf_counter() - t0 + draw_s.get(pi, 0.0)
        rows.append(row)
    return rows


def _run_units(units) -> list[list[dict]]:
    """The rows of ``units``, in order; one pool task."""
    return [_run_unit(u) for u in units]


@dataclass
class SweepReport:
    """One row per executed cycle, in (point, seed) order."""

    rows: list[dict]


def _write_csv(path: Path, header, rows, provenance=()) -> None:
    """``rows`` under ``header``, after the ``provenance`` lines; CRLF ends."""
    buf = io.StringIO()
    for line in provenance:
        buf.write(line + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="ascii")


def run_sweep(scenario: Scenario, out_dir, parallelism: int = 1) -> SweepReport:
    """Execute the sweep and write all report files into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    points = scenario.points()
    labels = sweep_labels(scenario)
    work = [(points, scenario.sweep_axis, labels, seed) for seed in scenario.seeds]

    workers = min(parallelism, len(work))  # a pool starts all its workers up front
    if workers > 1:
        if any(p.channel.shadowing_autocorr for p in points):
            # channel._ar1 needs scipy.signal (~1 s to import): forked workers inherit it
            import scipy.signal  # noqa: F401
        # worker w runs seeds w, w + workers, ...: every point in equal shares
        shares = [work[w::workers] for w in range(workers)]
        unit_rows = [None] * len(work)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, part in enumerate(pool.map(_run_units, shares, chunksize=1)):
                unit_rows[w::workers] = part
    else:
        unit_rows = _run_units(work)
    # merge order is (point, seed), so output content does not depend on
    # the parallelism degree
    point_rows = [[u[pi] for u in unit_rows] for pi in range(len(points))]
    rows = [r for prows in point_rows for r in prows]

    provenance = ["# resolved scenario:"] + [
        f"# {line}" for line in serialize_scenario(scenario).strip().splitlines()]

    _write_csv(out / "runs.csv", RUN_COLUMNS,
               [[str(r[c]) for c in RUN_COLUMNS] for r in rows], provenance)

    summary_rows = []
    for pi, prows in enumerate(point_rows):
        axis_value = prows[0]["axis_value"]
        ok = [r for r in prows if not r["failure"]]
        summary_rows.append([str(pi), scenario.sweep_axis, axis_value,
                             "failures", str(sum(r["failure"] for r in prows)),
                             "0", str(len(prows))])
        for metric in SUMMARY_METRICS:
            vals = np.array([float(r[metric]) for r in ok], dtype=float)
            if len(vals):
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            else:
                mean, std = float("nan"), float("nan")
            summary_rows.append([str(pi), scenario.sweep_axis, axis_value,
                                 metric, str(mean), str(std), str(len(vals))])
    _write_csv(out / "summary.csv", SUMMARY_HEADER, summary_rows, provenance)

    # test name -> one cell per point, in battery order
    cells: dict[str, list[str]] = {}
    for pi, prows in enumerate(point_rows):
        corpus = "".join(r["key01"] for r in prows)
        (out / f"corpus_point{pi}.txt").write_text(corpus + "\n", encoding="ascii")
        for res in run_battery(bits_from_ascii(corpus)).results:
            cells.setdefault(res.name, []).append(
                ";".join(f"{p:.6f}" for p in res.p_values) or "skipped")
    header = ["test"] + [f"point_{pi}" for pi in range(len(points))]
    _write_csv(out / "nist.csv", header,
               [[name] + row for name, row in cells.items()], provenance)

    timing_rows = [[str(r["point"]), str(r["seed"]), f"{r['compute_s']:.6f}"]
                   for r in rows]
    _write_csv(out / "timings.csv", ("point", "seed", "compute_seconds"),
               timing_rows, ["# wall-clock sidecar; not deterministic"])
    return SweepReport(rows=rows)
