"""Gather untraced ``bench/run.py`` runs into a ``BENCH_<n>.json`` file.

    python3 tools/bench_snapshot.py
    python3 tools/bench_snapshot.py --pair <sha> --pairs 10 --seconds 8
    python3 tools/bench_snapshot.py --workloads cycle_small --seeds 1 --seconds 1 --out /tmp/b.json

Standard library only.  Each run is one ``bench/run.py`` call, unchanged,
in a subprocess: this script reads its ``meta`` line and its last line, the
result JSON.  For every run it keeps the four end-to-end metrics, the
gate verdict, the unscaled ``raw_op_ms_min`` beside the scaled
``op_ms_min`` and the ``slowdown`` that divides it, ``src_lines`` and the
output digests.  The metric names, directions and bounds are read from
``BENCHMARK.json``.

Without ``--pair`` the working tree is run at each seed, and each metric
gets its median and interquartile range.  With ``--pair <sha>`` the commit
is cloned into a scratch directory (a clone, not a worktree, so the run
adds nothing to this repository's ``.git``) and run beside the working
tree in alternated pairs: pair i runs the parent first when i is even.
Each pair is kept, and each metric gets both sides' medians and
interquartile ranges, the number of pairs the change wins, and whether
every pair's digests are equal.

The default snapshot (four workloads, seeds 1-3, 5 s each) takes about
two minutes.  The output defaults to ``BENCH_<n>.json`` at the root of
the checkout, n one above the highest number there.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path("bench") / "run.py"
WORKLOADS = ("cycle_small", "cycle_large", "sweep_cli", "nist_cli")


def end_to_end(root: Path = ROOT) -> dict[str, dict]:
    """``{name: {"better", "bound", "unit"}}`` of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def parse_run(stdout: str) -> dict:
    """One run's record from the standard output of an untraced ``bench/run.py``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    metas = [line for line in lines if line.startswith("meta ")]
    if not metas or not lines[-1].startswith("{"):
        raise ValueError("no meta line or no result line in the bench output")
    meta = json.loads(metas[-1][len("meta "):])
    result = json.loads(lines[-1])
    return {
        "seed": meta["seed"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw_op_ms_min": meta["raw_op_ms_min"],
        "slowdown": meta["slowdown"],
        "git_sha": meta["git_sha"],
        "src_lines": meta["src_lines"],
        "digests": {k: v for k, v in meta.items() if k.endswith("_sha256")},
        "host": {k: meta[k] for k in ("python", "numpy", "scipy", "nproc")},
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """Run ``bench/run.py`` once in ``checkout`` and parse its output.

    A run whose gates fail is recorded with ``correct`` false; one that
    prints no result raises ``RuntimeError``.
    """
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except ValueError:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}") from None


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _figures(record: dict) -> dict[str, float]:
    return {**record["metrics"], "raw_op_ms_min": record["raw_op_ms_min"],
            "slowdown": record["slowdown"]}


def summarize_runs(runs: list[dict]) -> dict:
    """Spread of every metric over a workload's runs."""
    figures = [_figures(r) for r in runs]
    return {name: spread([f[name] for f in figures]) for name in figures[0]}


def summarize_pairs(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Both sides' spread of every metric, with the change's wins.

    ``raw_op_ms_min`` is compared as lower-better; ``slowdown`` gets no
    win count, since it measures the host, not the program.
    """
    sides = {side: [_figures(p[side]) for p in pairs] for side in ("parent", "change")}
    directions = {name: m["better"] for name, m in metrics.items()} | {"raw_op_ms_min": "lower"}
    summary = {}
    for name in sides["change"][0]:
        parent = [f[name] for f in sides["parent"]]
        change = [f[name] for f in sides["change"]]
        row = summary[name] = {"parent": spread(parent), "change": spread(change)}
        if name in directions:
            lower = directions[name] == "lower"
            row["better"] = directions[name]
            row["wins"] = sum(c < p if lower else c > p for p, c in zip(parent, change))
            row["median_change"] = row["change"]["median"] / row["parent"]["median"] - 1.0
            if name in metrics:
                row["bound"] = metrics[name]["bound"]
    summary["digests_equal"] = all(p["parent"]["digests"] == p["change"]["digests"]
                                   for p in pairs)
    summary["all_correct"] = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
    return summary


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def next_path(root: Path = ROOT) -> Path:
    numbers = [int(m.group(1)) for p in root.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(numbers, default=0) + 1}.json"


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def snapshot(args) -> dict:
    workloads = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_bench(ROOT, workload, seed, args.seconds))
            _log(f"{workload} seed {seed}: op_ms_min {runs[-1]['metrics']['op_ms_min']:.4g}")
        workloads[workload] = {"runs": runs, "summary": summarize_runs(runs)}
    return workloads


def pair(args, metrics: dict, parent: Path) -> dict:
    workloads = {}
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            record = {"seed": seed, "first": order[0]}
            for side in order:
                record[side] = run_bench(parent if side == "parent" else ROOT,
                                         workload, seed, args.seconds)
            pairs.append(record)
            _log(f"{workload} pair {i} seed {seed}: op_ms_min "
                 f"{record['parent']['metrics']['op_ms_min']:.4g} -> "
                 f"{record['change']['metrics']['op_ms_min']:.4g}")
        workloads[workload] = {"pairs": pairs, "summary": summarize_pairs(pairs, metrics)}
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, default=5, help="seconds per run")
    parser.add_argument("--pair", metavar="SHA", help="commit to alternate runs with")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--scratch", type=Path,
                        help="directory for the parent's clone (default: system temp)")
    parser.add_argument("--out", type=Path, help="output file (default: the next BENCH_<n>.json)")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    args.seeds = [int(s) for s in args.seeds.split(",")]
    if unknown := set(args.workloads) - set(WORKLOADS):
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    if args.seconds < 1 or args.pairs < 1 or min(args.seeds) < 0:
        parser.error("--seconds and --pairs must be >= 1 and seeds >= 0")

    metrics = end_to_end()
    head = _git("rev-parse", "HEAD")
    doc = {"created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "workloads_run": args.workloads, "seconds": args.seconds, "seeds": args.seeds,
           "change": {"head": head, "dirty": bool(_git("status", "--porcelain"))},
           "metrics": metrics}
    if args.pair:
        sha = _git("rev-parse", "--verify", f"{args.pair}^{{commit}}")
        if args.scratch:
            args.scratch.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.scratch))
        try:
            parent = scratch / "parent"
            _git("clone", "--quiet", "--no-checkout", str(ROOT), str(parent), cwd=scratch)
            _git("checkout", "--quiet", "--detach", sha, cwd=parent)
            doc["mode"], doc["parent"], doc["pairs"] = "pair", {"head": sha}, args.pairs
            doc["workloads"] = pair(args, metrics, parent)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    else:
        doc["mode"] = "snapshot"
        doc["workloads"] = snapshot(args)

    out = args.out or next_path()
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    _log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
