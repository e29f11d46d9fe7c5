"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_nearest_rank_percentiles():
    samples = [float(v) for v in range(100, 0, -1)]     # 1..100, shuffled order
    assert metrics.percentile(samples, 50) == 50.0
    assert metrics.percentile(samples, 90) == 90.0
    assert metrics.percentile([7.0], 90) == 7.0


def test_hundred_samples_leave_ten_beyond_p90():
    assert metrics.samples_beyond(100, 90) == 10
    assert metrics.samples_beyond(99, 90) == 9
    assert metrics.MIN_OPS == 100


def test_latency_reports_sample_count_and_refuses_too_few():
    out = metrics.latency_ms([0.001 * v for v in range(1, 101)])
    assert out == pytest.approx({"op_ms_p50": 50.0, "op_ms_p90": 90.0,
                                 "samples": 100})
    with pytest.raises(ValueError):
        metrics.latency_ms([0.001] * 99)


def test_best_rate_takes_the_fastest_stretch():
    samples = [0.01] * 100
    samples[40:42] = [0.001, 0.001]        # windows of max(2, 100 // 200) = 2
    assert metrics.best_rate(samples) == pytest.approx(1000.0)
    assert metrics.best_rate([0.5, 0.25]) == pytest.approx(2 / 0.75)


def test_slowdown_is_relative_to_the_fastest_kernel_run():
    import calibration

    ref = calibration.REFERENCE_S
    assert calibration.slowdown([3 * ref, 2 * ref, 5 * ref]) == pytest.approx(2.0)
    assert calibration.kernel_s() > 0


# -- self time ----------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("late", 9.0, 12.0, 0, 0),   # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_metrics_names_match_the_contract():
    spans = [Span("protocol.run_cycle", 0.0, 0.004, -1, 0,
                  {"retained": 150, "fits": 1, "key_bits": 150, "hops": 3,
                   "beacon_transmissions": 4, "retransmissions": 0,
                   "evcd_data_transmissions": 3, "leader_retransmissions": 0,
                   "events": 8}),
             Span("channel.generate_trace", 0.001, 0.002, 0, 0)]
    out = metrics.layer_metrics(spans, 1, 200, {"trace_overhead": 1.0})
    assert list(out) == [name for name, _, _ in metrics.PER_LAYER]
    assert out["channel.generate_trace.ms"] == pytest.approx(1.0)
    assert out["protocol.run_cycle.self_ms"] == pytest.approx(3.0)
    assert out["protocol.run_cycle.self_share"] == pytest.approx(0.75)
    assert out["quantizer.retained_ratio"] == pytest.approx(0.75)
    assert out["protocol.evcd_delivery_ratio"] == pytest.approx(1.0)


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)


# -- wrappers -------------------------------------------------------------------

def _fake_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x * 2
    mod.outer = lambda x: mod.inner(x) + 1
    return mod


def test_wrappers_return_the_same_values_and_restore_originals():
    mod = _fake_module()
    inner, outer = mod.inner, mod.outer
    tracer = Tracer()
    targets = [(mod, "outer", "outer", lambda r: {"result": r}),
               (mod, "inner", "inner", None)]
    with tracer.patched(targets):
        assert mod.outer(20) == 41
    assert mod.inner is inner and mod.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[0].counts == {"result": 41}
    assert tracer.spans[0].start <= tracer.spans[1].start
    assert tracer.spans[1].end <= tracer.spans[0].end


def test_wrappers_restore_originals_when_the_call_raises():
    mod = _fake_module()
    outer = mod.outer
    mod.inner = lambda x: 1 / 0
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.patched([(mod, "outer", "outer", None)]):
            mod.outer(1)
    assert mod.outer is outer
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_traced_cycle_matches_untraced_and_restores_program():
    from platoonkey import protocol, scenario
    import worker

    originals = {(m.__name__, a): getattr(m, a) for m, a, _, _ in worker.TARGETS}
    scen = scenario.parse_scenario(workloads.CYCLE_SCENARIOS["cycle_small"])

    def cycle():
        return protocol.run_cycle(scen.channel, scen.geometry, scen.protocol,
                                  scen.quantizer, scen.keygen, scen.slots,
                                  np.random.SeedSequence((3, 0)))

    plain = cycle()
    tracer = Tracer()
    with tracer.patched(worker.TARGETS):
        traced = cycle()
    assert traced.leader_key == plain.leader_key
    assert traced.bmmr_per_vehicle == plain.bmmr_per_vehicle
    assert {(m.__name__, a): getattr(m, a) for m, a, _, _ in worker.TARGETS} \
        == originals
    names = {s.name for s in tracer.spans}
    assert {"protocol.run_cycle", "protocol.run_cska", "channel.generate_trace",
            "quantizer.optimize_intervals", "quantizer.optimize_boundaries",
            "quantizer.quantize_trace", "keygen.extract_key", "keygen.bmmr",
            "protocol.run_evcd"} <= names


# -- workload inputs --------------------------------------------------------------

def test_inputs_are_identical_for_the_same_seed(tmp_path):
    for w in ("cycle_small", "cycle_large"):
        assert workloads.cycle_seeds(w, 5) == workloads.cycle_seeds(w, 5)
        assert workloads.cycle_seeds(w, 5) != workloads.cycle_seeds(w, 6)
    a, b, c = workloads.nist_bits(5), workloads.nist_bits(5), workloads.nist_bits(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    first = workloads.write_nist_files(a, tmp_path)
    data = [p.read_bytes() for p in first]
    again = workloads.write_nist_files(b, tmp_path)
    assert [p.read_bytes() for p in again] == data
    assert data[0].strip() == (a[0] + ord("0")).tobytes()
    assert len(data[0].strip()) == workloads.NIST_BITS


def test_sweep_scenario_parses_to_the_documented_shape():
    from platoonkey import scenario

    scen = scenario.parse_scenario(workloads.SWEEP_SCENARIO)
    assert scen.slots == workloads.SWEEP_SLOTS
    assert len(scen.points()) * len(scen.seeds) == workloads.SWEEP_UNITS
