"""Command-line front end.

Subcommands:

    platoonkey run <scenario-file>    one cycle per seed, report + keys
    platoonkey sweep <scenario-file>  full sweep with CSV outputs
    platoonkey nist <bitstream-file>  randomness battery on an ASCII 0/1 file

Exit codes: 0 success, 1 usage error, 2 scenario parse error, 3 runtime
failure.  ``run`` on a sweep document runs the document's first point.
It seeds its cycles as a sweep does (``sweep.point_cycle``), so its keys
are the keys of a sweep over the same seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .protocol import CYCLE_FAILURES
from .randomness import bits_from_ascii, run_battery
from .scenario import ParseError, Scenario, parse_scenario
from .sweep import _write_csv, point_cycle, run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for parse errors
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names the type after it
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    parser = _Parser(prog="platoonkey", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("scenario", help="scenario file")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed-base", type=_int_at_least(0), default=None,
                       help="replace the scenario seeds with this base onward")
        return p

    scenario_command("run", "run the scenario's first point once per seed")
    p_sweep = scenario_command("sweep", "run the scenario's sweep")
    p_sweep.add_argument("--parallelism", type=_int_at_least(1), default=1,
                         help="worker processes for sweep points")

    p_nist = sub.add_parser("nist", help="randomness battery on a bitstream")
    p_nist.add_argument("bitstream", help="ASCII 0/1 file")
    p_nist.add_argument("--out-dir", default=None,
                        help="also write nist_report.csv here")
    return parser


def _load_scenario(args) -> Scenario:
    """The scenario file with the command line's ``--seed-base`` applied."""
    scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    if args.seed_base is None:
        return scenario
    return replace(scenario, seeds=tuple(range(args.seed_base,
                                               args.seed_base + len(scenario.seeds))))


def _cmd_run(args) -> int:
    point = _load_scenario(args).points()[0]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    key_lines, events = [], []
    print("seed  bmmr_mean  bmmr_tail  eaves_bmmr  success  key_bits")
    failed = 0
    for seed in point.seeds:
        try:
            rep = point_cycle(point, seed)
        except CYCLE_FAILURES as exc:
            failed += 1
            print(f"{seed:<5d} failed: {type(exc).__name__}: {exc}")
            continue
        print(f"{seed:<5d} {rep.mean_bmmr:9.4f} {rep.tail_bmmr:10.4f} "
              f"{rep.eavesdropper_bmmr:11.4f} {int(rep.dissemination_success):8d} "
              f"{rep.agreed_key_bits:9d}")
        key = rep.leader_key
        key_lines.append(f"seed {seed} bits {key.to01()}")
        key_lines.append(f"seed {seed} hex  {key.to_hex()}")
        events += [(seed, ev.slot, ev.stage, ev.sender, ev.receiver, ev.kind,
                    ev.outcome) for ev in rep.log.events]
    (out / "keys.txt").write_text("\n".join([*key_lines, ""]), encoding="ascii")
    _write_csv(out / "events.csv", ("seed", "slot", "stage", "sender", "receiver",
                                    "kind", "outcome"), events)
    print(f"wrote {out / 'keys.txt'} and {out / 'events.csv'}")
    if failed:
        print(f"runtime failure: {failed} of {len(point.seeds)} seeds failed",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    report = run_sweep(scenario, args.out_dir, parallelism=args.parallelism)
    n_fail = sum(r["failure"] for r in report.rows)
    print(f"{len(report.rows)} cycles across {len(scenario.points())} points; "
          f"{n_fail} failures")
    print(f"reports in {Path(args.out_dir).resolve()}")
    return EXIT_OK


def _cmd_nist(args) -> int:
    raw = Path(args.bitstream).read_text(encoding="ascii")
    bits = bits_from_ascii(raw)
    if bits.size == 0:
        print("error: bitstream file holds no 0/1 characters", file=sys.stderr)
        return EXIT_RUNTIME
    report = run_battery(bits)
    print(f"input length: {report.input_length}")
    print(f"parameters:   {report.parameters}")
    rows = report.rows()
    width = max(len(name) for name, _, _ in rows)
    for name, ps, verdict in rows:
        print(f"{name:<{width}}  {ps:<22} {verdict}")
    print("overall:", "pass" if report.all_passed else "FAIL")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "nist_report.csv", ("test", "p_values", "verdict"), rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return {"run": _cmd_run, "sweep": _cmd_sweep,
                "nist": _cmd_nist}[args.command](args)
    except ParseError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
