"""Sweep execution: determinism across parallelism, failure attribution."""

import numpy as np
import pytest

from platoonkey import sweep
from platoonkey.channel import PlatoonGeometry
from platoonkey.protocol import CycleAbort, ProtocolConfig
from platoonkey.quantizer import InfeasiblePartition
from platoonkey.scenario import Scenario

DETERMINISTIC_FILES = ("runs.csv", "summary.csv", "nist.csv",
                       "corpus_point0.txt", "corpus_point1.txt")


def lossy_scenario():
    return Scenario(
        geometry=PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0),
        protocol=ProtocolConfig(beacon_loss_prob=0.2, data_loss_prob=0.2,
                                retransmission_cap=2),
        slots=300, seeds=tuple(range(8)),
        sweep_axis="n_vehicles", sweep_values=(4, 6))


def test_outputs_identical_at_parallelism_one_and_two(tmp_path):
    scenario = lossy_scenario()
    serial = sweep.run_sweep(scenario, tmp_path / "p1", parallelism=1)
    sweep.run_sweep(scenario, tmp_path / "p2", parallelism=2)
    assert len(serial.rows) == 16
    for name in DETERMINISTIC_FILES:
        assert (tmp_path / "p1" / name).read_bytes() == \
            (tmp_path / "p2" / name).read_bytes(), name


def unit_args():
    point = lossy_scenario().points()[0]
    return (0, point, "n_vehicles", "4", 0, 0)


@pytest.mark.parametrize("exc", [CycleAbort, InfeasiblePartition])
def test_domain_failure_becomes_attributed_row(monkeypatch, exc):
    def fail(*args):
        raise exc("modeled failure")
    monkeypatch.setattr(sweep, "run_cycle", fail)
    row = sweep._run_unit(unit_args())
    assert (row["success"], row["failure"]) == (0, 1)
    assert row["error"] == exc.__name__
    assert np.isnan(row["bmmr_mean"]) and row["key01"] == ""


@pytest.mark.parametrize("exc", [ValueError, IndexError])
def test_programming_errors_propagate(monkeypatch, exc):
    def broken(*args):
        raise exc("bug")
    monkeypatch.setattr(sweep, "run_cycle", broken)
    with pytest.raises(exc):
        sweep._run_unit(unit_args())
