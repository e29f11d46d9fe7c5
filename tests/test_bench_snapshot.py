"""The BENCH_<n>.json snapshot script: its parser on a recorded bench/run.py
output, and its pair summary."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_snapshot",
                                               ROOT / "tools" / "bench_snapshot.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)

RECORDED = (Path(__file__).parent / "data" / "bench_run_cycle_small.txt").read_text()


def test_parses_a_recorded_run():
    rec = snap.parse_run(RECORDED)
    assert (rec["seed"], rec["correct"], rec["attempted"], rec["failed"]) == (1, True, 1029, 0)
    assert set(rec["metrics"]) == set(snap.end_to_end())
    assert rec["metrics"]["peak_rss_mb"] == 41.08203125
    # the scaled figure is the unscaled one divided by the host slowdown
    assert math.isclose(rec["metrics"]["op_ms_min"], rec["raw_op_ms_min"] / rec["slowdown"])
    assert rec["digests"] == {"keys_sha256": "6f93558a70ca8b8025f739f3462a37c8a9081aa"
                                             "73615194a0278963dcc542ee2"}
    assert rec["src_lines"] == 2300 and rec["host"]["nproc"] == 2


def test_output_without_its_result_line_is_rejected():
    with pytest.raises(ValueError, match="no meta line or no result line"):
        snap.parse_run(RECORDED.rstrip().rsplit("\n", 1)[0])
    with pytest.raises(ValueError):
        snap.parse_run("error: worker exited 1\n")


def test_end_to_end_metrics_come_from_benchmark_json():
    metrics = snap.end_to_end()
    assert list(metrics) == ["setup_s", "op_ms_min", "ops_per_s", "peak_rss_mb"]
    assert metrics["ops_per_s"]["better"] == "higher"
    assert metrics["peak_rss_mb"]["bound"] == 0.1


def _record(op_ms, rate, digest="a"):
    return {"correct": True, "raw_op_ms_min": 2 * op_ms, "slowdown": 2.0,
            "metrics": {"op_ms_min": op_ms, "ops_per_s": rate},
            "digests": {"keys_sha256": digest}}


def test_pair_summary_counts_wins_in_each_direction():
    pairs = [{"parent": _record(p, r), "change": _record(c, s)}
             for p, c, r, s in ((1.0, 0.9, 10.0, 11.0), (1.2, 1.0, 10.0, 9.0),
                                (1.1, 1.3, 10.0, 12.0), (1.0, 0.8, 10.0, 10.0))]
    summary = snap.summarize_pairs(pairs, snap.end_to_end())
    assert summary["op_ms_min"]["wins"] == 3
    assert summary["ops_per_s"]["wins"] == 2  # a tie is no win
    assert summary["raw_op_ms_min"]["wins"] == 3
    assert "wins" not in summary["slowdown"]
    assert summary["op_ms_min"]["parent"]["median"] == pytest.approx(1.05)
    assert summary["op_ms_min"]["change"]["q1"] == pytest.approx(0.875)
    assert summary["op_ms_min"]["change"]["iqr"] == pytest.approx(0.2)
    assert summary["digests_equal"] and summary["all_correct"]
    pairs[2]["change"]["digests"] = {"keys_sha256": "b"}
    assert not snap.summarize_pairs(pairs, snap.end_to_end())["digests_equal"]


def test_next_file_number(tmp_path):
    assert snap.next_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert snap.next_path(tmp_path).name == "BENCH_4.json"
