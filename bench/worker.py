"""One benchmark workload, run in a fresh interpreter.

run.py starts this script.  It imports ``platoonkey`` from the checkout's
``src/``, prepares the workload's inputs through the program, and prints
``ready``: that line marks the end of set-up.  With ``--setup-only`` it
exits there.  Otherwise it makes the bench's own inputs from the seed,
runs the workload, checks every output, and prints one JSON line with
the raw results for run.py.

Right after ``ready`` it prints ``slowdown <x>``, the host's slowdown
against the reference host (calibration.py), by which run.py scales the
set-up time.  With ``--trace 0`` the run measures the end-to-end metrics
untraced.
With ``--trace 1`` it runs the same inputs untraced and then traced,
checks that both give the same outputs, and reports the per-layer
metrics from the traced part.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import platoonkey  # noqa: E402
from platoonkey import cli, protocol, quantizer, randomness, scenario, sweep  # noqa: E402

import calibration  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
BMMR_COLUMNS = ("bmmr_mean", "bmmr_v2", "bmmr_tail", "eavesdropper_bmmr")
SWEEP_OUTPUTS = ("runs.csv", "summary.csv", "nist.csv")
MAX_ERRORS = 20


def _cycle_counts(rep) -> dict:
    log = rep.log
    return {
        "retained": sum(rep.retained_per_iteration),
        "fits": len(rep.retained_per_iteration),
        "key_bits": rep.agreed_key_bits,
        "hops": rep.n_vehicles - 1,
        "beacon_transmissions": log.beacon_transmissions,
        "retransmissions": log.retransmissions,
        "evcd_data_transmissions": log.evcd_data_transmissions,
        "leader_retransmissions": log.leader_retransmissions,
        "events": len(log.events),
    }


def _battery_counts(report) -> dict:
    return {"input_bits": report.input_length}


def _sweep_counts(report) -> dict:
    return {"units": len(report.rows),
            "failed_units": sum(r["failure"] for r in report.rows)}


# Each public function at the module attribute its caller looks it up
# through: (module, attribute, span name, counts taken from the result).
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_scenario", "scenario.parse_scenario", None),
    (scenario, "parse_scenario", "scenario.parse_scenario", None),
    (cli, "run_sweep", "sweep.run_sweep", _sweep_counts),
    (protocol, "run_cycle", "protocol.run_cycle", _cycle_counts),
    (sweep, "run_cycle", "protocol.run_cycle", _cycle_counts),
    (protocol, "run_cska", "protocol.run_cska", None),
    (protocol, "generate_trace", "channel.generate_trace", None),
    (protocol, "optimize_intervals", "quantizer.optimize_intervals", None),
    (quantizer, "optimize_boundaries", "quantizer.optimize_boundaries", None),
    (protocol, "quantize_trace", "quantizer.quantize_trace", None),
    (protocol, "extract_key", "keygen.extract_key", None),
    (protocol, "bmmr", "keygen.bmmr", None),
    (protocol, "run_evcd", "protocol.run_evcd", None),
    (cli, "run_battery", "randomness.run_battery", _battery_counts),
    (sweep, "run_battery", "randomness.run_battery", _battery_counts),
    *((randomness, t, f"randomness.{t}", None) for t in metrics.BATTERY_TESTS),
)


class Run:
    """Operation tallies, latency samples, output digests and gate
    failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []
        self.outputs: dict[int, str] = {}   # input index -> output digest
        self.errors: list[str] = []
        self.kernel: list[float] = []       # calibration kernel seconds

    def error(self, message: str) -> None:
        self.errors.append(message)

    def record(self, i: int, digest: str | None) -> None:
        """Keep input i's output digest; a rerun must give the same one."""
        if digest is not None and self.outputs.setdefault(i, digest) != digest:
            self.error(f"input {i}: a rerun gave another output")

    def absorb(self, other: "Run") -> None:
        """Count another run's operations and failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def closed_loop(op, n_inputs: int, seconds: float, min_ops: int, run: Run,
                tracer: Tracer | None = None, plain: Run | None = None) -> None:
    """Run operations one at a time, going round the inputs, until
    ``seconds`` have passed, every input has run and at least ``min_ops``
    operations have run.  ``op(i, run)`` runs input i, tallies it in
    ``run`` and returns a digest of its output.  Untraced, the
    calibration kernel runs between operations every INTERVAL_S.

    With a tracer, each input runs untraced into ``plain`` and then
    traced into ``run``, so both see the same inputs under the same
    conditions.
    """
    k = 0
    deadline = perf_counter() + seconds
    next_kernel = 0.0
    while k < max(min_ops, n_inputs) or perf_counter() < deadline:
        if tracer is None and perf_counter() >= next_kernel:
            run.kernel.append(calibration.kernel_s())
            next_kernel = perf_counter() + calibration.INTERVAL_S
        i = k % n_inputs
        if tracer is not None:
            plain.record(i, op(i, plain))
            tracer.op = k
            with tracer.patched(TARGETS):
                run.record(i, op(i, run))
        else:
            run.record(i, op(i, run))
        k += 1


def _traced_figures(tracer: Tracer, args, run: Run, plain: Run, slots: int,
                    extra: dict) -> dict:
    """Per-layer metrics of a traced run; checks that the traced and the
    untraced operations gave the same outputs."""
    if run.outputs != plain.outputs:
        run.error("traced and untraced runs gave different outputs")
    traced_ops = run.attempted
    run.absorb(plain)
    tracer.write(Path(args.trace_file))
    return metrics.layer_metrics(tracer.spans, traced_ops, slots, extra)


def _overhead(run: Run, plain: Run) -> float:
    return statistics.median(run.samples) / statistics.median(plain.samples)


# -- run_cycle workloads ---------------------------------------------------

def _cycle_op(scen, entropies, bmmrs: dict):
    """One ``run_cycle`` per call, with its key and BMMR checks."""
    def op(i: int, run: Run) -> str | None:
        run.attempted += 1
        t0 = perf_counter()
        try:
            rep = protocol.run_cycle(scen.channel, scen.geometry, scen.protocol,
                                     scen.quantizer, scen.keygen, scen.slots,
                                     np.random.SeedSequence(entropies[i]))
        except Exception as exc:  # a failed operation: counted and reported
            run.failed += 1
            run.error(f"cycle {entropies[i]} raised {exc!r}")
            return None
        run.samples.append(perf_counter() - t0)
        key = rep.leader_key.to01() if rep.leader_key is not None else ""
        if len(key) != rep.agreed_key_bits:
            run.error(f"cycle {entropies[i]}: leader key has {len(key)} bits, "
                      f"agreed_key_bits is {rep.agreed_key_bits}")
        mismatch = [*rep.bmmr_per_vehicle.values(), rep.eavesdropper_bmmr]
        if not all(0.0 <= r <= 1.0 for r in mismatch):
            run.error(f"cycle {entropies[i]}: BMMR outside [0, 1]: {mismatch}")
        bmmrs[i] = rep.mean_bmmr
        return _sha256(key.encode())
    return op


def _keys_digest(digests: dict[int, str]) -> str:
    return _sha256("".join(digests[i] for i in sorted(digests)).encode())


def run_cycles(args, scen, run: Run) -> tuple[dict, dict]:
    entropies = workloads.cycle_seeds(args.workload, args.seed)
    bmmrs: dict[int, float] = {}
    op = _cycle_op(scen, entropies, bmmrs)
    if not args.trace:
        closed_loop(op, len(entropies), args.seconds, metrics.MIN_OPS, run)
        info = {"keys_sha256": _keys_digest(run.outputs),
                "bmmr_mean": statistics.fmean(bmmrs.values())}
        return _end_to_end(run, metrics.best_rate(run.samples), info), info

    tracer, plain = Tracer(), Run()
    with tracer.patched(TARGETS):
        if scenario.parse_scenario(workloads.CYCLE_SCENARIOS[args.workload]) != scen:
            run.error("traced parse_scenario returned another scenario")
    closed_loop(op, len(entropies), args.seconds, 0, run, tracer, plain)
    extra = {"bmmr_mean": statistics.fmean(bmmrs.values()),
             "trace_overhead": _overhead(run, plain)}
    return (_traced_figures(tracer, args, run, plain, scen.slots, extra),
            {"keys_sha256": _keys_digest(plain.outputs),
             "keys_sha256_traced": _keys_digest(run.outputs), **extra})


# -- nist_cli --------------------------------------------------------------

def _report_of_output(text: str) -> tuple:
    """(input length, rows, verdict) as ``platoonkey nist`` printed them."""
    lines = text.splitlines()
    length = int(lines[0].removeprefix("input length:"))
    rows = []
    for line in lines[2:-1]:
        tokens = line.split()
        rows.append((tokens[0], " ".join(tokens[1:-1]), tokens[-1]))
    return length, rows, lines[-1].removeprefix("overall:").strip()


def _report_of_battery(bits) -> tuple:
    rep = randomness.run_battery(bits)
    return (rep.input_length, rep.rows(),
            "pass" if rep.all_passed else "FAIL")


def _nist_op(paths: list[Path], expected: list[tuple]):
    """One ``platoonkey nist`` call per call; its report must match
    ``run_battery`` called directly on the same bits."""
    def op(i: int, run: Run) -> str | None:
        run.attempted += 1
        t0 = perf_counter()
        try:
            rc, out = _quiet_main(["nist", str(paths[i])])
        except Exception as exc:  # a failed operation: counted and reported
            run.failed += 1
            run.error(f"nist {paths[i].name} raised {exc!r}")
            return None
        elapsed = perf_counter() - t0
        if rc != 0:
            run.failed += 1
            run.error(f"nist {paths[i].name} exited {rc}")
            return None
        run.samples.append(elapsed)
        try:
            report = _report_of_output(out)
        except (ValueError, IndexError):
            report = None
        if report != expected[i]:
            run.error(f"nist {paths[i].name}: report differs from run_battery")
        return _sha256(out.encode())
    return op


def run_nist(args, work: Path, run: Run) -> tuple[dict, dict]:
    bits = workloads.nist_bits(args.seed)
    paths = workloads.write_nist_files(bits, work)
    expected = [_report_of_battery(b) for b in bits]
    op = _nist_op(paths, expected)
    info = {"reports_sha256": _sha256(repr(expected).encode())}
    if not args.trace:
        closed_loop(op, len(paths), args.seconds, metrics.MIN_OPS, run)
        return _end_to_end(run, metrics.best_rate(run.samples), info), info

    tracer, plain = Tracer(), Run()
    closed_loop(op, len(paths), args.seconds, 0, run, tracer, plain)
    extra = {"trace_overhead": _overhead(run, plain)}
    return _traced_figures(tracer, args, run, plain, 0, extra), {**info, **extra}


# -- sweep_cli -------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text(encoding="ascii").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_sweep(out: Path, run: Run) -> tuple[dict, float]:
    """Tally and check one sweep's outputs; return their digests and the
    mean BMMR over its cycles."""
    rows = _csv_rows(out / "runs.csv")
    if len(rows) != workloads.SWEEP_UNITS:
        run.error(f"runs.csv has {len(rows)} rows, not {workloads.SWEEP_UNITS}")
    run.attempted += len(rows)
    bits = Counter()
    mismatch = []
    for r in rows:
        if r["failure"] != "0":
            run.failed += 1
            run.error(f"sweep unit seed {r['seed']} point {r['point']} failed")
            continue
        bits[r["point"]] += int(r["key_bits"])
        values = [float(r[c]) for c in BMMR_COLUMNS]
        if not all(0.0 <= v <= 1.0 for v in values):
            run.error(f"sweep unit seed {r['seed']}: BMMR outside [0, 1]")
        mismatch.append(float(r["bmmr_mean"]))
    run.samples += [float(r["compute_seconds"])
                    for r in _csv_rows(out / "timings.csv")]
    corpora = sorted(out.glob("corpus_point*.txt"))
    for path in corpora:
        point = path.stem.removeprefix("corpus_point")
        if len(path.read_text(encoding="ascii").strip()) != bits[point]:
            run.error(f"{path.name} does not hold the point's leader keys")
    digests = {p.name: _sha256(p.read_bytes())
               for p in [*(out / n for n in SWEEP_OUTPUTS), *corpora]}
    return digests, statistics.fmean(mismatch) if mismatch else float("nan")


def sweep_call(scenario_path: Path, out: Path, parallelism: int,
               seed_base: int, run: Run) -> tuple[float, dict, float]:
    """One ``platoonkey sweep`` call; returns its wall time, the digests
    of its outputs and the mean BMMR of its cycles."""
    argv = ["sweep", str(scenario_path), "--out-dir", str(out),
            "--parallelism", str(parallelism), "--seed-base", str(seed_base)]
    t0 = perf_counter()
    try:
        rc, _ = _quiet_main(argv)
    except Exception as exc:  # a failed operation: counted and reported
        rc = repr(exc)
    wall = perf_counter() - t0
    if rc != 0:
        run.attempted += workloads.SWEEP_UNITS
        run.failed += workloads.SWEEP_UNITS
        run.error(f"sweep at parallelism {parallelism} ended with {rc}")
        return wall, {}, float("nan")
    digests, bmmr_mean = _check_sweep(out, run)
    shutil.rmtree(out)
    return wall, digests, bmmr_mean


def run_sweep(args, work: Path, run: Run) -> tuple[dict, dict]:
    scenario_path = work / "sweep.txt"
    scenario_path.write_text(workloads.SWEEP_SCENARIO, encoding="ascii")
    out = work / "sweep-out"
    bases = workloads.sweep_seed_bases(args.seed)
    info: dict = {}
    rates: list[float] = []   # cycles completed per second, per sweep call

    def call(j: int, parallelism: int, tally: Run) -> float:
        completed = tally.attempted - tally.failed
        wall, digests, bmmr_mean = sweep_call(scenario_path, out, parallelism,
                                              bases[j], tally)
        tally.record(j, json.dumps(digests, sort_keys=True) if digests else None)
        if j == 0:
            info.setdefault("sweep_sha256", digests)
            info.setdefault("bmmr_mean", bmmr_mean)
        rates.append((tally.attempted - tally.failed - completed) / wall)
        return wall

    if not args.trace:
        # Round the bases until the time is up; each base runs at least
        # twice, so every sweep is also checked against its rerun.
        deadline = perf_counter() + args.seconds
        k = 0
        while k < 2 * len(bases) or perf_counter() < deadline:
            run.kernel += [calibration.kernel_s() for _ in range(3)]
            call(k % len(bases), NPROC, run)
            k += 1
        return _end_to_end(run, max(rates), info), info

    # Spans from forked pool workers cannot be collected, so the traced
    # sweeps run at parallelism 1, each after an untraced one at
    # parallelism 1.  All must reproduce the parallelism-nproc outputs.
    tracer, plain = Tracer(), Run()
    pool_wall = call(0, NPROC, plain)
    plain_walls, traced_walls = [], []
    deadline = perf_counter() + args.seconds - pool_wall
    while not traced_walls or perf_counter() < deadline:
        plain_walls.append(call(0, 1, plain))
        tracer.op = len(traced_walls)
        with tracer.patched(TARGETS):
            traced_walls.append(call(0, 1, run))
    cycle_s = sum(s.end - s.start for s in tracer.spans
                  if s.name == "protocol.run_cycle") / len(traced_walls)
    extra = {"bmmr_mean": info["bmmr_mean"],
             "parallel_efficiency": cycle_s / (NPROC * pool_wall),
             "trace_overhead": statistics.median(traced_walls)
             / statistics.median(plain_walls)}
    return (_traced_figures(tracer, args, run, plain, workloads.SWEEP_SLOTS, extra),
            {**info, **extra})


# -- results -----------------------------------------------------------------

def _end_to_end(run: Run, rate: float, info: dict) -> dict:
    """The untraced run's end-to-end metrics.  Times are scaled to the
    reference host's speed; the raw figures and the latency percentiles
    go to ``info``.

    Peak memory is this process's peak plus, for each pool worker slot,
    the largest peak among the pool's worker processes (none outside
    sweep_cli).
    """
    slowdown = calibration.slowdown(run.kernel)
    info.update(metrics.latency_ms(run.samples), slowdown=slowdown,
                raw_op_ms_min=1e3 * min(run.samples), raw_ops_per_s=rate)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    info.update(rss_self_mb=usage_self / 1024, rss_children_mb=usage_children / 1024)
    return {"op_ms_min": info["raw_op_ms_min"] / slowdown,
            "ops_per_s": rate * slowdown,
            "peak_rss_mb": (usage_self + NPROC * usage_children) / 1024}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--trace-file", default="spans.jsonl")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(platoonkey.__file__).resolve().is_relative_to(SRC):
        print(f"platoonkey was imported from {platoonkey.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    scen = None
    if args.workload in workloads.CYCLE_SCENARIOS:
        scen = scenario.parse_scenario(workloads.CYCLE_SCENARIOS[args.workload])
    print("ready", flush=True)
    slowdown = calibration.slowdown([calibration.kernel_s() for _ in range(5)])
    print(f"slowdown {slowdown!r}", flush=True)
    if args.setup_only:
        return 0

    work = Path(args.work_dir)
    run = Run()
    if scen is not None:
        figures, info = run_cycles(args, scen, run)
    elif args.workload == "nist_cli":
        figures, info = run_nist(args, work, run)
    else:
        figures, info = run_sweep(args, work, run)
    info.update(samples=len(run.samples), python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__, nproc=NPROC)
    print(json.dumps({"attempted": run.attempted, "failed": run.failed,
                      "errors": run.errors[:MAX_ERRORS], "metrics": figures,
                      "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
