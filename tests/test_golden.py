"""Golden outputs: the bytes ``platoonkey run`` writes for three documents,
and those ``platoonkey sweep`` writes for the benchmark's sweep.

``tests/data/golden.sha256`` holds one ``<sha256>  <document>/<file>``
line per pinned file, as ``sha256sum`` writes them, so a declared model
change updates that one file.
"""

import hashlib
from pathlib import Path

import pytest

from platoonkey.cli import EXIT_OK, EXIT_RUNTIME, main

PINS = Path(__file__).parent / "data" / "golden.sha256"

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


# a pinned document missing from DOCUMENTS fails with a KeyError
@pytest.mark.parametrize("document, expected", PINNED.items(), ids=PINNED)
def test_run_writes_the_pinned_bytes(tmp_path, capsys, document, expected):
    text, (command, *options), rc = DOCUMENTS[document]
    path, out = tmp_path / f"{document}.scn", tmp_path / document
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(out), *options]) == rc
    capsys.readouterr()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expected} == expected
