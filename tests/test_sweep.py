"""Sweep execution: determinism across parallelism, failure attribution."""

import csv
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from platoonkey import protocol, sweep
from platoonkey.channel import ChannelParams, PlatoonGeometry
from platoonkey.protocol import CycleAbort, ProtocolConfig, run_cycle
from platoonkey.quantizer import InfeasiblePartition
from platoonkey.scenario import Scenario, parse_scenario

DETERMINISTIC_FILES = ("runs.csv", "summary.csv", "nist.csv",
                       "corpus_point0.txt", "corpus_point1.txt")


def lossy_scenario():
    return Scenario(
        geometry=PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0),
        protocol=ProtocolConfig(beacon_loss_prob=0.2, data_loss_prob=0.2,
                                retransmission_cap=2),
        slots=300, seeds=tuple(range(8)),
        sweep_axis="n_vehicles", sweep_values=(4, 6))


def autocorr_scenario():
    # the only AR(1) shadowing is in the sweep values, none in the base channel
    return Scenario(slots=200, seeds=tuple(range(6)),
                    sweep_axis="shadowing_autocorr", sweep_values=(0.9, 0.0))


P2 = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0, eavesdropper_position="P2")
P3 = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0, eavesdropper_position="P3")


def shared_draw_scenarios():
    # sweeps whose two points share each seed's draw of the traces
    return [Scenario(geometry=P2, slots=200, seeds=tuple(range(6)),
                     sweep_axis="n_vehicles", sweep_values=(6, 4)),
            Scenario(slots=200, seeds=tuple(range(6)),
                     sweep_axis="n_intervals", sweep_values=(2, 4))]


def test_outputs_identical_at_parallelism_one_and_two(tmp_path):
    cases = [(lossy_scenario(), 16), (autocorr_scenario(), 12),
             *((s, 12) for s in shared_draw_scenarios())]
    for i, (scenario, n_rows) in enumerate(cases):
        out = tmp_path / f"{i}-{scenario.sweep_axis}"
        serial = sweep.run_sweep(scenario, out / "p1", parallelism=1)
        sweep.run_sweep(scenario, out / "p2", parallelism=2)
        assert len(serial.rows) == n_rows
        for name in DETERMINISTIC_FILES:
            assert (out / "p1" / name).read_bytes() == \
                (out / "p2" / name).read_bytes(), name


# a unit is a seed: two points at three seeds make three units
@pytest.mark.parametrize("seeds, pool_workers", [((0, 1, 2), [3]), ((0,), [])])
def test_pool_gets_no_more_workers_than_units(tmp_path, monkeypatch, seeds, pool_workers):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    report = sweep.run_sweep(Scenario(slots=50, seeds=seeds, sweep_axis="n_vehicles",
                                      sweep_values=(4, 5)), tmp_path, parallelism=4)
    assert asked == pool_workers
    assert len(report.rows) == 2 * len(seeds)


def eavesdropper_scenario():
    return Scenario(slots=200, seeds=tuple(range(5)), sweep_axis="eavesdropper",
                    sweep_values=(("P1", 3.0), ("P2", 10.0), ("P3", 30.0)))


@pytest.mark.parametrize("make, parallelism", [
    (lossy_scenario, 3), (eavesdropper_scenario, 2), (eavesdropper_scenario, 3),
], ids=["lossy-3", "eavesdropper-2", "eavesdropper-3"])
def test_outputs_identical_when_shares_are_uneven(tmp_path, make, parallelism):
    # 16 lossy units at 3 workers are shares of 6/5/5, 15 eavesdropper
    # units at 2 are 8/7; some lossy units fail
    scenario = make()
    sweep.run_sweep(scenario, tmp_path / "p1", parallelism=1)
    sweep.run_sweep(scenario, tmp_path / "pn", parallelism=parallelism)
    corpora = [f"corpus_point{pi}.txt" for pi in range(len(scenario.points()))]
    for name in ["runs.csv", "summary.csv", "nist.csv", *corpora]:
        assert (tmp_path / "p1" / name).read_bytes() == \
            (tmp_path / "pn" / name).read_bytes(), name


def test_pool_gets_one_strided_share_per_worker(tmp_path, monkeypatch):
    tasks = []

    class SpyPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            tasks.extend(items)
            return map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SpyPool)
    scenario = Scenario(slots=50, seeds=tuple(range(5)),
                        sweep_axis="n_vehicles", sweep_values=(4, 5))
    report = sweep.run_sweep(scenario, tmp_path, parallelism=4)
    seeds = list(range(5))
    assert len(tasks) == 4
    assert [[u[3] for u in share] for share in tasks] == [seeds[w::4] for w in range(4)]
    assert [(r["point"], r["seed"]) for r in report.rows] == \
        [(pi, seed) for pi in range(2) for seed in seeds]


def test_worker_error_propagates_and_leaves_no_process(tmp_path, monkeypatch):
    real = sweep.run_cycle

    def flaky(*args, traces):
        if args[-1] == 3:
            raise RuntimeError("bug at seed 3")
        return real(*args, traces=traces)

    # forked pool workers inherit the patched module attribute
    monkeypatch.setattr(sweep, "run_cycle", flaky)
    with pytest.raises(RuntimeError, match="bug at seed 3"):
        sweep.run_sweep(Scenario(slots=50, seeds=tuple(range(6))), tmp_path, parallelism=2)
    assert multiprocessing.active_children() == []


def unit_args(points=None):
    """The unit of seed 0: both points of the lossy sweep."""
    return (points or lossy_scenario().points(), "n_vehicles", ["4", "6"], 0)


@pytest.mark.parametrize("exc", [CycleAbort, InfeasiblePartition])
def test_domain_failure_becomes_attributed_row(monkeypatch, exc):
    def fail(*args, traces):
        raise exc("modeled failure")
    monkeypatch.setattr(sweep, "run_cycle", fail)
    rows = sweep._run_unit(unit_args())
    assert [(r["point"], r["axis_value"], r["seed"]) for r in rows] == [(0, "4", 0), (1, "6", 0)]
    for row in rows:
        assert (row["success"], row["failure"]) == (0, 1)
        assert row["error"] == exc.__name__
        assert np.isnan(row["bmmr_mean"]) and row["key01"] == ""


def test_exhausted_dissemination_is_a_completed_cycle_row():
    # run_cycle records EVCD's DisseminationFailure as success = False, so
    # the unit is a cycle with a key and no attributed failure
    points = [replace(p, protocol=ProtocolConfig(data_loss_prob=1.0))
              for p in lossy_scenario().points()]
    for row in sweep._run_unit(unit_args(points)):
        assert (row["success"], row["failure"], row["error"]) == (0, 0, "")
        assert row["key01"] != ""


@pytest.mark.parametrize("exc", [ValueError, IndexError])
def test_programming_errors_propagate(monkeypatch, exc):
    def broken(*args, traces):
        raise exc("bug")
    monkeypatch.setattr(sweep, "run_cycle", broken)
    with pytest.raises(exc):
        sweep._run_unit(unit_args())


def n_vehicles_sweep(**channel):
    return Scenario(channel=ChannelParams(**channel), slots=60, seeds=(0, 1, 2),
                    sweep_axis="n_vehicles", sweep_values=(4, 6))


@pytest.mark.parametrize("scenario, draws_per_seed", [
    (replace(n_vehicles_sweep(), geometry=P2), 1),
    (replace(n_vehicles_sweep(), protocol=ProtocolConfig(z_iterations=3)), 1),
    (Scenario(slots=60, seeds=(0, 1, 2), sweep_axis="n_intervals",
              sweep_values=(2, 4)), 1),
    (n_vehicles_sweep(measurement_noise_db=0.05), 2),
    (n_vehicles_sweep(reciprocity_sigma_db=0.3), 2),
    (replace(n_vehicles_sweep(), geometry=P3), 2),
    (Scenario(slots=60, seeds=(0, 1, 2), sweep_axis="eavesdropper",
              sweep_values=(("P1", 3.0), ("P2", 3.0))), 2),
], ids=["P2-n_vehicles", "z3-n_vehicles", "n_intervals", "noisy-n_vehicles",
        "reciprocity-n_vehicles", "P3-n_vehicles", "eavesdropper"])
def test_points_of_one_trace_key_share_each_seeds_draw(tmp_path, monkeypatch,
                                                       scenario, draws_per_seed):
    calls = []
    real = protocol.generate_trace

    def spy(*args, **kwargs):
        calls.append(args[1].n_vehicles)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "generate_trace", spy)
    report = sweep.run_sweep(scenario, tmp_path)
    assert len(calls) == draws_per_seed * len(scenario.seeds)
    if draws_per_seed == 1:  # drawn for the widest platoon
        assert set(calls) == {max(p.geometry.n_vehicles for p in scenario.points())}
    # each row is the cycle its point draws on its own
    for row in report.rows:
        rep = sweep.point_cycle(scenario.points()[row["point"]], row["seed"])
        assert row["key01"] == rep.leader_key.to01()
        assert row["bmmr_mean"] == rep.mean_bmmr
        assert row["eavesdropper_bmmr"] == rep.eavesdropper_bmmr


def data_rows(path):
    lines = [line for line in path.read_text(encoding="ascii").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def point_means(out, metric):
    return [float(r["mean"]) for r in data_rows(out / "summary.csv")
            if r["metric"] == metric]


def test_common_shadowing_sets_agreement_and_autocorr_sets_randomness(tmp_path):
    # N=4, T=200, seeds 0..9.  A follower's leader-pair estimate agrees
    # with the leader's reading only through the common shadowing: the
    # tail BMMR reads about 0.485, 0.288 and 0.034 at fractions 0, 0.9 and
    # 0.999, while the eavesdropper stays at chance.
    seeds = tuple(range(10))
    sweep.run_sweep(Scenario(slots=200, seeds=seeds,
                             sweep_axis="shadowing_common_fraction",
                             sweep_values=(0.0, 0.9, 0.999)), tmp_path / "f")
    tail = point_means(tmp_path / "f", "bmmr_tail")
    assert tail[0] > 0.4 and 0.2 < tail[1] < 0.4 and tail[2] < 0.08
    assert all(0.45 < e < 0.55 for e in point_means(tmp_path / "f", "eavesdropper_bmmr"))
    # at 0.999, AR(1) shadowing of 0.9 leaves the agreement (BMMR about
    # 0.0185 and 0.0202) but makes the key corpus fail the runs test
    # (p about 0.823 and 0.000000)
    sweep.run_sweep(Scenario(channel=ChannelParams(shadowing_common_fraction=0.999),
                             slots=200, seeds=seeds, sweep_axis="shadowing_autocorr",
                             sweep_values=(0.0, 0.9)), tmp_path / "a")
    assert all(m < 0.03 for m in point_means(tmp_path / "a", "bmmr_mean"))
    runs = next(r for r in data_rows(tmp_path / "a" / "nist.csv") if r["test"] == "runs")
    assert float(runs["point_0"]) > 0.1 and float(runs["point_1"]) < 1e-3


@pytest.mark.parametrize("axis_lines, tokens", [
    ("sweep_axis = n_vehicles\nsweep_values = 3,5\n", ["3", "5"]),
    ("sweep_axis = pair_distance\nsweep_values = 2.5, 3\n", ["2.5", "3.0"]),
    ("sweep_axis = eavesdropper\nsweep_values = P1:3, P2:10, P3:20.5\n",
     ["P1:3.0", "P2:10.0", "P3:20.5"]),
    # the values differ in the 7th significant digit; each point keeps its own token
    ("sweep_axis = shadowing_common_fraction\nsweep_values = 0.9999999, 1\n",
     ["0.9999999", "1.0"]),
    ("", ["-"]),
], ids=["int", "float", "eavesdropper", "seven digits", "none"])
def test_axis_value_is_the_provenance_token(tmp_path, axis_lines, tokens):
    sweep.run_sweep(parse_scenario("slots = 40\nseeds = 0,1\n" + axis_lines), tmp_path)
    lines = (tmp_path / "runs.csv").read_text(encoding="ascii").splitlines()
    written = [line.split(" = ", 1)[1].split(",") for line in lines
               if line.startswith("# sweep_values = ")]
    assert written == ([tokens] if axis_lines else [])
    assert [r["axis_value"] for r in data_rows(tmp_path / "runs.csv")] == \
        [t for t in tokens for _ in range(2)]
    assert {(r["point"], r["axis_value"]) for r in data_rows(tmp_path / "summary.csv")} \
        == {(str(i), t) for i, t in enumerate(tokens)}


@pytest.mark.parametrize("seed", [0, 2**40, 2**96 - 1])
def test_a_cycle_is_seeded_by_its_seed_alone(seed):
    # numpy pads entropy shorter than its 4-word pool with zeros, so below
    # 2**96 the seed gives the keys that the entropy [seed, 0] gave
    point = Scenario(slots=80)
    rep = run_cycle(point.channel, point.geometry, point.protocol, point.quantizer,
                    point.keygen, point.slots, np.random.SeedSequence([seed, 0]))
    assert sweep.point_cycle(point, seed).leader_key == rep.leader_key
