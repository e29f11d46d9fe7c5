"""Command-line front end: each subcommand and the exit codes."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platoonkey
from platoonkey.cli import (EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_USAGE,
                            _build_parser, main)
from platoonkey.protocol import CycleAbort, run_cycle
from platoonkey.randomness import run_battery
from platoonkey.scenario import parse_scenario
from platoonkey.sweep import point_cycle

BITS = np.random.default_rng(3).integers(0, 2, 2000, dtype=np.uint8)
TEXT = "".join(map(str, BITS))


def nist(capsys, path, *extra):
    rc = main(["nist", str(path), *extra])
    return rc, capsys.readouterr()


def printed_report(out):
    """(input length, rows, verdict) as ``nist`` printed them."""
    lines = out.splitlines()
    length = int(lines[0].removeprefix("input length:"))
    rows = []
    for line in lines[2:-1]:
        tokens = line.split()
        rows.append((tokens[0], " ".join(tokens[1:-1]), tokens[-1]))
    return length, rows, lines[-1].removeprefix("overall:").strip()


def test_report_equals_run_battery(tmp_path, capsys):
    path = tmp_path / "bits.txt"
    path.write_text(TEXT + "\n", encoding="ascii")
    rc, captured = nist(capsys, path)
    assert rc == EXIT_OK
    report = run_battery(BITS)
    assert printed_report(captured.out) == (
        len(BITS), report.rows(), "pass" if report.all_passed else "FAIL")


def test_short_stream_marks_skipped_tests(tmp_path, capsys):
    # 500 bits are below the dft test's 1000-bit floor: the test does not
    # run, so it neither fails nor decides the overall verdict
    path = tmp_path / "bits.txt"
    path.write_text(TEXT[:500], encoding="ascii")
    rc, captured = nist(capsys, path)
    assert rc == EXIT_OK
    length, rows, verdict = printed_report(captured.out)
    assert length == 500
    assert ("dft", "", "skipped") in rows
    assert all(v == "pass" for name, _, v in rows if name != "dft")
    assert verdict == "pass"


def test_characters_other_than_0_and_1_are_ignored(tmp_path, capsys):
    clean = tmp_path / "clean.txt"
    clean.write_text(TEXT, encoding="ascii")
    messy = tmp_path / "messy.txt"
    chunks = [TEXT[i:i + 7] for i in range(0, len(TEXT), 7)]
    seps = ("\n", "\r\n", " ", "ab", "Z\t", "2")
    messy.write_bytes("".join(c + seps[i % len(seps)]
                              for i, c in enumerate(chunks)).encode("ascii"))
    assert nist(capsys, clean) == nist(capsys, messy)


@pytest.mark.parametrize("content", [b"", b"abc\r\n 2 3\n"])
def test_no_bits_exits_runtime(tmp_path, capsys, content):
    path = tmp_path / "bits.txt"
    path.write_bytes(content)
    rc, captured = nist(capsys, path)
    assert rc == EXIT_RUNTIME
    assert "no 0/1 characters" in captured.err


def test_non_ascii_exits_runtime(tmp_path, capsys):
    path = tmp_path / "bits.txt"
    path.write_bytes((TEXT[:1000] + "é" + TEXT[1000:]).encode("utf-8"))
    rc, captured = nist(capsys, path)
    assert rc == EXIT_RUNTIME
    assert "runtime failure" in captured.err


def test_missing_file_exits_runtime(tmp_path, capsys):
    rc, captured = nist(capsys, tmp_path / "absent.txt")
    assert rc == EXIT_RUNTIME
    assert "absent.txt" in captured.err


@pytest.mark.parametrize("argv", [
    ["frobnicate"], [], ["nist"],
    ["sweep", "s.scn", "--replications", "2"],
    ["sweep", "s.scn", "--seed-base", "-1"],
    ["run", "s.scn", "--seed-base", "-3"],
    ["run", "s.scn", "--parallelism", "2"],
    ["sweep", "s.scn", "--parallelism", "0"],
    ["sweep", "s.scn", "--parallelism", "-4"],
    ["plot", "summary.csv"],
])
def test_usage_error_exits_usage(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_scenario_error_exits_parse(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("bogus line\n", encoding="utf-8")
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_PARSE
    assert "(line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    # keys are the direct Gray code: a codeword-map key is unknown
    ("run", "map_mode = grouped"),
    # a hop decodes only with the leader's whole key: a command-length key is unknown
    ("run", "data_payload_bits = 800"),
    # a cycle is named by its seed alone: a replication count is an unknown key
    ("sweep", "replications = 2"),
    # a codeword is ceil(log2(L)) bits: a width key is unknown
    ("run", "codeword_bits = 3"),
])
def test_removed_key_exits_parse_naming_it_and_its_line(tmp_path, capsys, command, line):
    path = tmp_path / "doc.scn"
    path.write_text(line + "\n", encoding="utf-8")
    # 2, not EXIT_PARSE: the number is what a shell sees
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    assert line.split()[0] in err


@pytest.mark.parametrize("axis, values, message", [
    ("n_vehicles", "2,4", "n_vehicles must be >= 3"),
    ("pair_distance", "nan", "must be finite"),
])
def test_bad_sweep_value_exits_parse(tmp_path, capsys, axis, values, message):
    path = tmp_path / "sweep.scn"
    path.write_text(f"seeds = 0\nsweep_axis = {axis}\nsweep_values = {values}\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{message} (line 3, field 'sweep_values')" in err
    assert not (out / "runs.csv").exists()


def test_sweep_survives_estimates_past_the_float_range(tmp_path, capsys):
    # shadowing this wide gives reading gaps past the estimator's float
    # range; such an estimate is invalid, not an infinite sample
    path = tmp_path / "sweep.scn"
    path.write_text("shadowing_sigma_db = 2500\nsweep_axis = n_vehicles\n"
                    "sweep_values = 4,6\nseeds = 0..3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == EXIT_OK
    assert (out / "runs.csv").exists()


def test_sweep_keeps_every_fitted_slot(tmp_path, capsys):
    # at 20 dB reciprocity noise vehicle 2 reads above the fitted top in
    # some slots; they stay in the key, so no cycle ends with empty keys
    path = tmp_path / "sweep.scn"
    path.write_text("slots = 5\nreciprocity_sigma_db = 20\nseeds = 0..19\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == EXIT_OK
    with (out / "runs.csv").open(newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 20
    assert all(int(r["key_bits"]) > 0 for r in rows if r["failure"] == "0")


def test_out_dir_writes_report_csv(tmp_path, capsys):
    path = tmp_path / "bits.txt"
    path.write_text(TEXT, encoding="ascii")
    out = tmp_path / "reports"
    rc, _ = nist(capsys, path, "--out-dir", str(out))
    assert rc == EXIT_OK
    with (out / "nist_report.csv").open(newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["test", "p_values", "verdict"]
    assert [tuple(r) for r in rows[1:]] == run_battery(BITS).rows()
    assert (out / "nist_report.csv").read_bytes().count(b"\r\n") == len(rows)


def test_one_parser_serves_every_call_alike(tmp_path, capsys):
    # the parser is built once per process; no call may leave state in it
    # that changes the next, so each call must match one made with a
    # parser built for it alone
    path = tmp_path / "bits.txt"
    path.write_text(TEXT, encoding="ascii")
    out = tmp_path / "reports"
    calls = (["nist", "--out-dir", str(out)], ["nist", str(path)],
             ["nist", str(path), "--out-dir", str(out)], ["nist", str(path)])

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            rc = main(argv)
            written = sorted(os.listdir(out)) if out.exists() else None
            shutil.rmtree(out, ignore_errors=True)
            seen.append((rc, *capsys.readouterr(), written))
        return seen

    shared = outcomes(fresh=False)
    assert _build_parser() is _build_parser()
    assert [(rc, written) for rc, _, _, written in shared] == [
        (EXIT_USAGE, None), (EXIT_OK, None), (EXIT_OK, ["nist_report.csv"]),
        (EXIT_OK, None)]
    assert shared == outcomes(fresh=True)


def fresh_python(code, cwd=None) -> str:
    """The last line ``code`` prints in a new interpreter that imports this
    checkout's package."""
    src = str(Path(platoonkey.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


HEAVY_SCIPY = ("import sys\n"
               "def heavy():\n"
               "    return [m for m in sys.modules\n"
               "            if m.startswith(('scipy.special', 'scipy.stats', 'scipy.signal'))]\n")


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.special is needed only by the randomness battery, scipy.signal
    # only for autocorrelated shadowing, and scipy.stats not at all; each
    # would dominate the start-up time.  The entry point imports every
    # module of the package.
    assert fresh_python(HEAVY_SCIPY + "import platoonkey.cli\nprint(heavy())") == "[]"


def test_run_loads_no_heavy_scipy_module_and_nist_loads_scipy_special(tmp_path):
    # a key agreement cycle computes no p-value; the battery's first one
    # imports scipy.special
    (tmp_path / "run.scn").write_text("slots = 50\nseeds = 0..1\n", encoding="utf-8")
    (tmp_path / "bits.txt").write_text(TEXT, encoding="ascii")
    code = HEAVY_SCIPY + (
        "from platoonkey.cli import main\n"
        "rc_run = main(['run', 'run.scn', '--out-dir', 'run'])\n"
        "after_run = heavy()\n"
        "rc_nist = main(['nist', 'bits.txt'])\n"
        "print(rc_run, after_run, rc_nist, 'scipy.special' in sys.modules)")
    assert fresh_python(code, cwd=tmp_path) == "0 [] 0 True"


@pytest.mark.parametrize("autocorr, loaded", [(0.5, "True"), (0.0, "False")])
def test_sweep_pool_starts_after_scipy_signal_loads_only_for_ar1_shadowing(
        tmp_path, autocorr, loaded):
    # channel._ar1 imports scipy.signal; loaded in the parent before the
    # pool forks, it is imported once rather than once per worker
    code = (
        "import sys\n"
        "from platoonkey import sweep\n"
        "from platoonkey.channel import ChannelParams\n"
        "from platoonkey.scenario import Scenario\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append('scipy.signal' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, items, chunksize):\n"
        "        return map(fn, items)\n"
        "sweep.ProcessPoolExecutor = Pool\n"
        f"p = ChannelParams(shadowing_autocorr={autocorr})\n"
        "sweep.run_sweep(Scenario(channel=p, slots=20, seeds=(0, 1)), 'out', 2)\n"
        "print(*seen)")
    assert fresh_python(code, cwd=tmp_path) == loaded


EVENT_HEADER = ["seed", "slot", "stage", "sender", "receiver", "kind", "outcome"]


def run_cli(tmp_path, capsys, text):
    path = tmp_path / "run.scn"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", str(path), "--out-dir", str(out)])
    return rc, capsys.readouterr(), out


def expected_run(text):
    """keys.txt lines and event count of the seeds whose cycle completes,
    and the seeds whose cycle aborts."""
    scen = parse_scenario(text)
    lines, n_events, aborted = [], 0, []
    for seed in scen.seeds:
        try:
            rep = run_cycle(scen.channel, scen.geometry, scen.protocol,
                            scen.quantizer, scen.keygen, scen.slots,
                            np.random.SeedSequence([seed, 0]))
        except CycleAbort:
            aborted.append(seed)
            continue
        lines += [f"seed {seed} bits {rep.leader_key.to01()}",
                  f"seed {seed} hex  {rep.leader_key.to_hex()}"]
        n_events += len(rep.log.events)
    return lines, n_events, aborted


def written_run(out):
    with (out / "events.csv").open(newline="", encoding="ascii") as fh:
        events = list(csv.reader(fh))
    assert events[0] == EVENT_HEADER
    return (out / "keys.txt").read_text(encoding="ascii").splitlines(), len(events) - 1


def test_run_writes_every_seed_key_and_event(tmp_path, capsys):
    text = "slots = 80\nbeacon_loss_prob = 0.2\nseeds = 0..2\n"
    rc, _, out = run_cli(tmp_path, capsys, text)
    assert rc == EXIT_OK
    lines, n_events, aborted = expected_run(text)
    assert aborted == [] and len(lines) == 6
    assert written_run(out) == (lines, n_events)


def test_run_reports_a_failed_seed_and_runs_the_rest(tmp_path, capsys):
    text = ("slots = 50\nbeacon_loss_prob = 0.5\nretransmission_cap = 2\n"
            "seeds = 0..9\n")
    rc, captured, out = run_cli(tmp_path, capsys, text)
    assert rc == EXIT_RUNTIME
    lines, n_events, aborted = expected_run(text)
    assert aborted and len(aborted) < 10
    assert written_run(out) == (lines, n_events)
    rows = [line.split() for line in captured.out.splitlines()]
    assert [row[:3] for row in rows if row[1:2] == ["failed:"]] == \
        [[str(seed), "failed:", "CycleAbort:"] for seed in aborted]
    assert f"{len(aborted)} of 10 seeds failed" in captured.err


@pytest.mark.parametrize("noise, rc", [(0.0, EXIT_OK), (0.05, EXIT_RUNTIME)])
def test_run_at_a_channel_constant_past_the_noise_scale_range(tmp_path, capsys,
                                                             noise, rc):
    # measurement noise scales with 10 ** (H / 20), which overflows a float
    # at this constant; without noise the scale is never formed
    text = f"channel_constant_db = -7000\nmeasurement_noise_db = {noise}\nseeds = 0\n"
    got, captured, out = run_cli(tmp_path, capsys, text)
    assert got == rc
    if rc == EXIT_OK:
        assert written_run(out)[0] == expected_run(text)[0]
    else:
        assert "measurement_noise_db" in captured.err
        assert "channel_constant_db" in captured.err


OVERFLOW_TEXT = ("path_loss_exponent = 5e306\npair_distance_m = 100.0\n"
                 "n_vehicles = 3\nslots = 64\nseeds = 0..1\n")


@pytest.mark.parametrize("z, recip, rc", [
    (1, 0.0, EXIT_OK), (2, 0.0, EXIT_OK), (2, 0.5, EXIT_RUNTIME)],
    ids=["1-0", "2-0", "2-3"])
def test_run_where_the_pass_average_leaves_the_float_range(tmp_path, capsys,
                                                           z, recip, rc):
    # each pass's RSS is finite but above half the float range, so two
    # distinct passes sum past it: those slots drop, and here no slot is
    # left.  Noiseless passes are one trace, which is not summed, so the
    # run is the one at z = 1.
    text = (OVERFLOW_TEXT + f"z_iterations = {z}\n"
            f"reciprocity_sigma_db = {recip}\n")
    got, captured, out = run_cli(tmp_path, capsys, text)
    assert got == rc
    if rc == EXIT_OK:
        # the keys.txt of z = 1, the default
        assert written_run(out)[0] == expected_run(OVERFLOW_TEXT)[0]
    else:
        assert [line.split()[:3] for line in captured.out.splitlines()[1:3]] == [
            [str(seed), "failed:", "InfeasiblePartition:"] for seed in (0, 1)]


COLLAPSE_TEXT = ("n_vehicles = 3\nslots = 50\nn_intervals = 8\ngrid_size = 512\n"
                 "seeds = 0..2\nshadowing_sigma_db = 0.0001\n"
                 "channel_constant_db = -1e15\n"
                 "rss_decode_floor_db = 999999999999990.0\n")


def test_run_where_the_grid_points_coincide_in_float(tmp_path, capsys):
    # RSS near 1e15 dB has a float step of 0.125, coarser than the grid
    # step, so fitted boundaries would coincide: each seed fails on its own
    rc, captured, out = run_cli(tmp_path, capsys, COLLAPSE_TEXT)
    assert rc == EXIT_RUNTIME
    assert [line.split()[:3] for line in captured.out.splitlines()[1:4]] == [
        [str(seed), "failed:", "InfeasiblePartition:"] for seed in (0, 1, 2)]
    assert "coincide" in captured.out
    keys, n_events = written_run(out)
    assert not any(keys) and n_events == 0
    # no key, no line: the file is empty
    assert (out / "keys.txt").read_bytes() == b""


def csv_lines(path):
    """(provenance lines, data lines) of a sweep CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


def test_run_and_sweep_share_the_seed_base(tmp_path, capsys):
    path = tmp_path / "s.scn"
    path.write_text("slots = 80\nseeds = 0..2\n", encoding="utf-8")
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", str(path), "--out-dir", str(run_out),
                 "--seed-base", "10"]) == EXIT_OK
    assert main(["sweep", str(path), "--out-dir", str(sweep_out),
                 "--seed-base", "10"]) == EXIT_OK
    capsys.readouterr()
    keys = (run_out / "keys.txt").read_text(encoding="ascii").splitlines()
    assert [line.split()[1] for line in keys[::2]] == ["10", "11", "12"]
    corpus = (sweep_out / "corpus_point0.txt").read_text(encoding="ascii")
    assert "".join(line.split()[-1] for line in keys[::2]) == corpus.strip()
    # the provenance names the seeds that ran, once
    provenance, _ = csv_lines(sweep_out / "runs.csv")
    assert [line for line in provenance if line.startswith("# seeds")] == \
        ["# seeds = 10..12"]


def test_run_keys_are_the_sweep_keys_seed_for_seed(tmp_path, capsys):
    # a cycle is named by its seed alone: run and sweep seed it alike
    text = "slots = 80\nseeds = 0..2\n"
    path = tmp_path / "s.scn"
    path.write_text(text, encoding="utf-8")
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", str(path), "--out-dir", str(run_out)]) == EXIT_OK
    assert main(["sweep", str(path), "--out-dir", str(sweep_out)]) == EXIT_OK
    capsys.readouterr()
    keys = [line.split()[-1] for line in
            (run_out / "keys.txt").read_text(encoding="ascii").splitlines()[::2]]
    rows = list(csv.DictReader(csv_lines(sweep_out / "runs.csv")[1]))
    corpus = (sweep_out / "corpus_point0.txt").read_text(encoding="ascii").strip()
    ends = np.cumsum([0, *(int(r["key_bits"]) for r in rows)])
    assert [corpus[a:b] for a, b in zip(ends, ends[1:])] == keys
    assert ends[-1] == len(corpus)
    point = parse_scenario(text)
    for seed in point.seeds:
        rep = run_cycle(point.channel, point.geometry, point.protocol,
                        point.quantizer, point.keygen, point.slots,
                        np.random.SeedSequence([seed, 0]))
        assert point_cycle(point, seed).leader_key == rep.leader_key


LOSSY_TEXT = ("slots = 50\nbeacon_loss_prob = 0.5\nretransmission_cap = 2\n"
              "seeds = 0..9\n")


@pytest.mark.parametrize("text, error", [
    (COLLAPSE_TEXT, "InfeasiblePartition"), (LOSSY_TEXT, "CycleAbort")],
    ids=["collapse", "lossy"])
def test_runs_csv_names_the_error_of_each_failed_cycle(tmp_path, capsys, text, error):
    # every collapse cycle fails its fit; the lossy document loses some
    # beacons past the retry cap and completes the other cycles
    path = tmp_path / "s.scn"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    header, *lines = csv_lines(out / "runs.csv")[1]
    assert header.split(",")[8:11] == ["success", "failure", "error"]
    rows = list(csv.DictReader([header, *lines]))
    failed = [r["failure"] == "1" for r in rows]
    assert [r["error"] for r in rows] == [error if f else "" for f in failed]
    if text == COLLAPSE_TEXT:
        assert all(failed)
    else:
        assert 0 < sum(failed) < len(rows)
