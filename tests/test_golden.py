"""Golden outputs: the bytes ``platoonkey run`` and ``platoonkey sweep``
write for a handful of documents, among them the benchmark's sweep and two
that drive the quantizer to its edges.

``tests/data/golden.sha256`` holds one ``<sha256>  <document>/<file>``
line per pinned file, as ``sha256sum`` writes them, so a declared model
change updates that one file.
"""

import contextlib
import hashlib
import io
import random
import re
from pathlib import Path

import pytest

from platoonkey.cli import EXIT_OK, EXIT_RUNTIME, main

PINS = Path(__file__).parent / "data" / "golden.sha256"

# RSS near 1e15 dB: the grid points coincide in float, so each seed's fit
# is infeasible, and the run and the sweep go on past it
COLLAPSE = ("n_vehicles = 3\nslots = 50\nn_intervals = 8\ngrid_size = 512\n"
            "seeds = 0..2\nshadowing_sigma_db = 0.0001\nchannel_constant_db = -1e15\n"
            "rss_decode_floor_db = 999999999999990.0\n")

# the common shadowing fraction as the sweep axis
COMMON = ("slots = 200\nseeds = 0..3\nsweep_axis = shadowing_common_fraction\n"
          "sweep_values = 0,0.999\n")

# AR(1) shadowing with measurement and reciprocity noise: the one document
# that drives channel._ar1 through the command line
AUTOCORR = ("slots = 200\nseeds = 0..3\nsweep_axis = n_vehicles\nsweep_values = 4,5\n"
            "measurement_noise_db = 0.05\nreciprocity_sigma_db = 0.3\n"
            "shadowing_autocorr = 0.5\n")

# document name -> (scenario text, command line after the document, exit code)
DOCUMENTS = {
    # some seeds exhaust their beacon retries: exit 3, the others' events
    # written; the tries read their loss draws in blocks, as one scalar
    # draw each would
    "lossy": ("slots = 50\nbeacon_loss_prob = 0.5\nretransmission_cap = 2\n"
              "seeds = 0..9\n", ["run"], EXIT_RUNTIME),
    # each stage derives its streams straight from their seed nodes and a
    # lossless stage draws no losses: the EVCD document reads only the
    # EVCD stream, so its keys are the lossless document's
    "lossless": ("slots = 200\nseeds = 0..3\n", ["run"], EXIT_OK),
    "evcd": ("slots = 200\nseeds = 0..3\nz_iterations = 3\ndata_loss_prob = 0.3\n",
             ["run"], EXIT_OK),
    # the benchmark's sweep_cli document at its first seed base, whose
    # digests the benchmark reports as sweep_sha256
    "sweep_cli": ("n_vehicles = 4\npair_distance_m = 2.0\nslots = 2000\n"
                  "z_iterations = 1\nn_intervals = 2\ngrid_size = 64\n"
                  "beacon_loss_prob = 0.2\ndata_loss_prob = 0.2\nseeds = 0..49\n"
                  "sweep_axis = n_vehicles\nsweep_values = 4,8\n",
                  ["sweep", "--seed-base", "400"], EXIT_OK),
    # vehicle 2 reads above the fitted top in some slots: they stay in the
    # key, in bin L for vehicle 2, so every cycle runs
    "noisy": ("slots = 5\nreciprocity_sigma_db = 20\nseeds = 0..19\n",
              ["sweep", "--parallelism", "2"], EXIT_OK),
    # parallelism 1 and 2 write the same files: their pins are equal
    "common_p1": (COMMON, ["sweep", "--parallelism", "1"], EXIT_OK),
    "common_p2": (COMMON, ["sweep", "--parallelism", "2"], EXIT_OK),
    "autocorr_run": (AUTOCORR, ["run"], EXIT_OK),
    "autocorr": (AUTOCORR, ["sweep", "--parallelism", "2", "--seed-base", "10"], EXIT_OK),
    # unpinned: they must write the parallelism-2 sweep's bytes
    "autocorr_p1": (AUTOCORR, ["sweep", "--parallelism", "1", "--seed-base", "10"], EXIT_OK),
    "autocorr_p3": (AUTOCORR, ["sweep", "--parallelism", "3", "--seed-base", "10"], EXIT_OK),
    "collapse": (COLLAPSE, ["run"], EXIT_RUNTIME),
    "collapse_sweep": (COLLAPSE, ["sweep", "--parallelism", "2"], EXIT_OK),
}


def pins() -> dict[str, dict[str, str]]:
    """document -> file name -> sha256 hex digest."""
    out: dict[str, dict[str, str]] = {}
    for line in PINS.read_text(encoding="ascii").splitlines():
        digest, path = line.split("  ")
        document, name = path.split("/")
        out.setdefault(document, {})[name] = digest
    return out


PINNED = pins()


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """document -> (output directory, standard output), each document run
    once per module; the call must end with the document's exit code."""
    root, done = tmp_path_factory.mktemp("golden"), {}

    def run(document):
        if document not in done:
            text, (command, *options), rc = DOCUMENTS[document]
            path, out = root / f"{document}.scn", root / document
            path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main([command, str(path), "--out-dir", str(out), *options]) == rc
            done[document] = out, stdout.getvalue()
        return done[document]
    return run


# a pinned document missing from DOCUMENTS fails with a KeyError
@pytest.mark.parametrize("document, expected", PINNED.items(), ids=PINNED)
def test_run_writes_the_pinned_bytes(ran, document, expected):
    out, _ = ran(document)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expected} == expected


@pytest.mark.parametrize("document", ["autocorr_p1", "autocorr_p3"])
def test_each_parallelism_writes_the_same_sweep(ran, document):
    # each worker runs a strided share of the units
    out, _ = ran(document)
    pinned, _ = ran("autocorr")
    for name in PINNED["autocorr"]:
        assert (out / name).read_bytes() == (pinned / name).read_bytes(), name


@pytest.mark.parametrize("document, cycles", [("noisy", 20), ("collapse_sweep", 3)])
def test_a_sweep_writes_a_row_per_cycle(ran, document, cycles):
    out, _ = ran(document)
    lines = (out / "runs.csv").read_text(encoding="ascii").splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1 + cycles


def test_an_infeasible_fit_fails_its_seed_alone(ran):
    out, stdout = ran("collapse")
    assert len(re.findall(r"^[0-2] *failed: InfeasiblePartition:", stdout, re.M)) == 3
    assert (out / "keys.txt").is_file()
    assert (out / "keys.txt").stat().st_size == 0


def nist_report(bits_file, out):
    """The bytes of the ``nist_report.csv`` that ``platoonkey nist`` writes
    for ``bits_file``; the call must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["nist", str(bits_file), "--out-dir", str(out)]) == EXIT_OK
    return (out / "nist_report.csv").read_bytes()


def test_nist_writes_a_header_and_rows(ran, tmp_path):
    out, _ = ran("sweep_cli")
    report = nist_report(out / "corpus_point0.txt", tmp_path / "nist")
    assert report.startswith(b"test,p_values,verdict")
    assert report.count(b"\n") > 1


def test_a_second_nist_run_writes_the_same_report(ran, tmp_path):
    # the battery runs its spectral test beside the others
    out, _ = ran("sweep_cli")
    first = nist_report(out / "corpus_point0.txt", tmp_path / "nist")
    assert nist_report(out / "corpus_point0.txt", tmp_path / "nist2") == first


def test_below_the_spectral_floor_nist_skips_it_and_exits_0(tmp_path):
    # 999 bits, one under the dft test's floor: it is skipped, the rest run
    draw = random.Random(999)
    path = tmp_path / "short.txt"
    path.write_text("".join(draw.choice("01") for _ in range(999)) + "\n",
                    encoding="ascii")
    report = nist_report(path, tmp_path / "short")
    assert re.search(rb"^dft,,skipped", report, re.M)
