"""Metric names, the percentile rule, and per-layer figures from spans.

The names, units and directions here are the benchmark's contract and
must match BENCHMARK.json (a harness test checks that they do).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import Span, self_times

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_min", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

BATTERY_TESTS = (
    "frequency_test", "block_frequency_test", "cusum_test", "runs_test",
    "longest_run_test", "dft_test", "approx_entropy_test", "serial_test",
)

# Cycle counters summed over run_cycle spans and reported per cycle.
CYCLE_COUNTS = ("beacon_transmissions", "retransmissions",
                "evcd_data_transmissions", "leader_retransmissions", "events")

PER_LAYER = (
    ("channel.generate_trace.ms", "ms", "lower"),
    ("channel.generate_trace.calls", "count", "lower"),
    ("quantizer.optimize_boundaries.ms", "ms", "lower"),
    ("quantizer.optimize_boundaries.calls", "count", "lower"),
    ("quantizer.optimize_intervals.self_ms", "ms", "lower"),
    ("quantizer.quantize_trace.ms", "ms", "lower"),
    ("quantizer.retained_ratio", "ratio", "higher"),
    ("keygen.extract_key.ms", "ms", "lower"),
    ("keygen.extract_key.calls", "count", "lower"),
    ("keygen.key_bits", "bits", "higher"),
    ("keygen.bmmr.ms", "ms", "lower"),
    ("keygen.bmmr_mean", "ratio", "lower"),
    ("protocol.run_cycle.self_ms", "ms", "lower"),
    ("protocol.run_cska.self_ms", "ms", "lower"),
    ("protocol.run_evcd.ms", "ms", "lower"),
    *((f"protocol.{c}", "count", "lower") for c in CYCLE_COUNTS),
    ("protocol.evcd_delivery_ratio", "ratio", "higher"),
    ("randomness.run_battery.ms", "ms", "lower"),
    ("randomness.run_battery.self_ms", "ms", "lower"),
    *((f"randomness.{t}.ms", "ms", "lower") for t in BATTERY_TESTS),
    ("randomness.input_kbit", "kbit", "higher"),
    ("scenario.parse_scenario.ms", "ms", "lower"),
    ("sweep.run_sweep.self_ms", "ms", "lower"),
    ("sweep.units", "count", "higher"),
    ("sweep.failed_units", "count", "lower"),
    ("sweep.parallel_efficiency", "ratio", "higher"),
    ("cli.main.self_ms", "ms", "lower"),
    ("protocol.run_cycle.self_share", "ratio", "lower"),
    ("cli.main.self_share", "ratio", "lower"),
    ("sweep.run_sweep.self_share", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

# p90 is reported, so a run needs at least ten samples beyond it.
MIN_OPS = 100
# ops_per_s is the best rate over this share of a run's operations.
RATE_WINDOW_SHARE = 200


def percentile(samples, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of
    the samples at or below it."""
    s = sorted(samples)
    rank = -(-q * len(s) // 100)
    return s[max(rank, 1) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - -(-q * n // 100)


def latency_ms(samples_s) -> dict:
    """p50 and p90 of per-operation seconds, in ms, with the sample count."""
    n = len(samples_s)
    if samples_beyond(n, 90) < 10:
        raise ValueError(f"{n} samples leave fewer than ten beyond p90")
    return {"op_ms_p50": 1e3 * percentile(samples_s, 50),
            "op_ms_p90": 1e3 * percentile(samples_s, 90),
            "samples": n}


def best_rate(samples_s) -> float:
    """Operations per second over the fastest run of consecutive
    operations, each run 1/RATE_WINDOW_SHARE of them (at least two)."""
    k = max(2, len(samples_s) // RATE_WINDOW_SHARE)
    window = sum(samples_s[:k])
    best = window
    for i in range(k, len(samples_s)):
        window += samples_s[i] - samples_s[i - k]
        best = min(best, window)
    return k / best


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], n_ops: int, slots: int,
                  extra: dict) -> dict:
    """Every per-layer metric from one traced run.

    Times are summed span time per operation, in ms, except
    ``scenario.parse_scenario.ms``, which is per call because parsing is
    set-up rather than part of an operation.  Call counts and cycle
    counters are per operation or per cycle.  ``extra`` supplies the
    figures measured outside the spans; layers the workload does not
    reach read 0.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        if s.counts:
            counts[s.name].update(s.counts)

    def ms(name: str) -> float:
        return 1e3 * _ratio(total[name], n_ops)

    def self_ms(name: str) -> float:
        return 1e3 * _ratio(own[name], n_ops)

    cyc = counts["protocol.run_cycle"]
    n_cycles = calls["protocol.run_cycle"]
    battery = counts["randomness.run_battery"]
    sweeps = counts["sweep.run_sweep"]
    n_sweeps = calls["sweep.run_sweep"]
    return {
        "channel.generate_trace.ms": ms("channel.generate_trace"),
        "channel.generate_trace.calls": _ratio(calls["channel.generate_trace"], n_ops),
        "quantizer.optimize_boundaries.ms": ms("quantizer.optimize_boundaries"),
        "quantizer.optimize_boundaries.calls":
            _ratio(calls["quantizer.optimize_boundaries"], n_ops),
        "quantizer.optimize_intervals.self_ms": self_ms("quantizer.optimize_intervals"),
        "quantizer.quantize_trace.ms": ms("quantizer.quantize_trace"),
        "quantizer.retained_ratio": _ratio(cyc["retained"], slots * cyc["fits"]),
        "keygen.extract_key.ms": ms("keygen.extract_key"),
        "keygen.extract_key.calls": _ratio(calls["keygen.extract_key"], n_ops),
        "keygen.key_bits": _ratio(cyc["key_bits"], n_cycles),
        "keygen.bmmr.ms": ms("keygen.bmmr"),
        "keygen.bmmr_mean": extra.get("bmmr_mean", 0.0),
        "protocol.run_cycle.self_ms": self_ms("protocol.run_cycle"),
        "protocol.run_cska.self_ms": self_ms("protocol.run_cska"),
        "protocol.run_evcd.ms": ms("protocol.run_evcd"),
        **{f"protocol.{c}": _ratio(cyc[c], n_cycles) for c in CYCLE_COUNTS},
        "protocol.evcd_delivery_ratio":
            _ratio(cyc["hops"], cyc["evcd_data_transmissions"]),
        "randomness.run_battery.ms": ms("randomness.run_battery"),
        "randomness.run_battery.self_ms": self_ms("randomness.run_battery"),
        **{f"randomness.{t}.ms": ms(f"randomness.{t}") for t in BATTERY_TESTS},
        "randomness.input_kbit":
            _ratio(battery["input_bits"], 1000 * calls["randomness.run_battery"]),
        "scenario.parse_scenario.ms":
            1e3 * _ratio(total["scenario.parse_scenario"],
                         calls["scenario.parse_scenario"]),
        "sweep.run_sweep.self_ms": self_ms("sweep.run_sweep"),
        "sweep.units": _ratio(sweeps["units"], n_sweeps),
        "sweep.failed_units": _ratio(sweeps["failed_units"], n_sweeps),
        "sweep.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "cli.main.self_ms": self_ms("cli.main"),
        **{f"{name}.self_share": _ratio(own[name], total[name])
           for name in ("protocol.run_cycle", "cli.main", "sweep.run_sweep")},
        "trace_overhead": extra["trace_overhead"],
    }
