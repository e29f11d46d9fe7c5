"""platoonkey benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cycle_small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run and
saves its spans under ``.bench_work/traces/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the ``meta`` line before it records what was
measured.  The exit code is 0 only when every correctness gate passed.
See README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3     # fresh interpreters timed per untraced run
TIME_LIMIT_S = 170    # the whole run, set-up included


class _TimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise _TimeLimit(f"run exceeded {TIME_LIMIT_S} s")


def _start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return the process
    and the set-up seconds: launch to ready, divided by the slowdown the
    worker measures right after it."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    if line.strip() != "ready":
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    slowdown = proc.stdout.readline().removeprefix("slowdown ")
    return proc, elapsed / float(slowdown)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the workload; return the result, the metadata and gate errors."""
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_file = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    work.mkdir(parents=True, exist_ok=True)
    procs: list[subprocess.Popen] = []
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, elapsed = _start_worker(args, ["--setup-only"])
                procs.append(proc)
                setup.append(elapsed)
                if proc.wait() != 0:
                    raise RuntimeError(f"set-up probe exited {proc.returncode}")
        proc, elapsed = _start_worker(
            args, ["--work-dir", str(work), "--trace-file", str(trace_file)])
        procs.append(proc)
        setup.append(elapsed)
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    finally:
        for proc in procs:
            _stop(proc)
        shutil.rmtree(work, ignore_errors=True)

    raw = json.loads(out.strip().splitlines()[-1])
    figures = raw["metrics"]
    if args.trace:
        names = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        figures["setup_s"] = statistics.median(setup)
        names = [(name, unit) for name, unit, _ in END_TO_END]
    errors = list(raw["errors"])
    if raw["failed"]:
        errors.append(f"{raw['failed']} of {raw['attempted']} operations failed")
    result = {
        "correct": not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in names},
    }
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "src_lines": _src_lines(),
            "setup_samples_s": setup, **raw["info"]}
    if args.trace:
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    return result, meta, errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "platoonkey" / "__init__.py").is_file():
        print(f"error: no platoonkey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        result, meta, errors = measure(args)
    except (RuntimeError, _TimeLimit, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {result['attempted']}  failed {result['failed']}  "
          f"latency samples {meta['samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  unbounded (host-speed sensitive): op_ms_p50 {meta['op_ms_p50']:.6g} ms, "
              f"op_ms_p90 {meta['op_ms_p90']:.6g} ms")
    for e in errors:
        print(f"GATE FAILED: {e}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
