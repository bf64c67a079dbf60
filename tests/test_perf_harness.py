"""The compare/report plumbing of repro.perf, plus a tiny end-to-end
smoke of the CLI — small scales so the whole file runs in seconds.
"""

import json

import pytest

from repro.perf import SCHEMA_VERSION, compare_reports, load_report
from repro.perf.benches import bench_kernel, bench_transport
from repro.perf.harness import build_report, write_report


def _report(**metrics_by_bench):
    """Hand-built report: name -> (metric, higher_is_better, value)."""
    benchmarks = {}
    for name, (metric, higher, value) in metrics_by_bench.items():
        benchmarks[name] = {
            "metrics": {metric: value},
            "score_metric": metric,
            "higher_is_better": higher,
            "unit": "x",
        }
    return {"schema": SCHEMA_VERSION, "benchmarks": benchmarks}


def test_compare_passes_within_threshold():
    baseline = _report(kernel=("events_per_sec", True, 1_000.0))
    current = _report(kernel=("events_per_sec", True, 900.0))  # -10%
    assert compare_reports(current, baseline, threshold_pct=25.0) == []


def test_compare_flags_throughput_drop():
    baseline = _report(kernel=("events_per_sec", True, 1_000.0))
    current = _report(kernel=("events_per_sec", True, 700.0))  # -30%
    (regression,) = compare_reports(current, baseline, threshold_pct=25.0)
    assert regression.bench == "kernel"
    assert regression.change_pct == pytest.approx(-30.0)
    assert "regressed" in regression.format()


def test_compare_flags_wall_time_rise():
    # Lower is better: 2s -> 3s is a 33% loss, reported as negative.
    baseline = _report(figure=("seconds", False, 2.0))
    current = _report(figure=("seconds", False, 3.0))
    (regression,) = compare_reports(current, baseline, threshold_pct=25.0)
    assert regression.change_pct < -25.0


def test_compare_ignores_improvements_and_new_benches():
    baseline = _report(kernel=("events_per_sec", True, 1_000.0))
    current = _report(kernel=("events_per_sec", True, 5_000.0),
                      transport=("messages_per_sec", True, 1.0))
    assert compare_reports(current, baseline, threshold_pct=25.0) == []


def test_report_roundtrip(tmp_path):
    results = {"kernel": {"events_per_sec": 1234.5, "events": 100.0}}
    scores = {"kernel": ("events_per_sec", True, "events/s")}
    report = build_report(results, scores, scale=0.5, pool=2,
                          reference={"rev": "abc"})
    path = tmp_path / "bench.json"
    write_report(str(path), report)
    loaded = load_report(str(path))
    assert loaded == report
    assert loaded["schema"] == SCHEMA_VERSION
    assert loaded["benchmarks"]["kernel"]["score_metric"] == "events_per_sec"
    assert loaded["reference"] == {"rev": "abc"}
    # The file ends in a newline so it diffs cleanly when committed.
    assert path.read_text(encoding="utf-8").endswith("}\n")


def test_micro_benches_do_real_work():
    kernel = bench_kernel(scale=0.01, pool=1, repeats=1)
    assert kernel["events"] >= 1_000
    assert kernel["events_per_sec"] > 0
    transport = bench_transport(scale=0.01, pool=1, repeats=1)
    assert transport["messages"] >= 1_000
    assert transport["messages_per_sec"] > 0


def test_cli_smoke_writes_report_and_compares(tmp_path):
    from repro.perf.__main__ import main

    out = tmp_path / "bench.json"
    assert main(["--scale", "0.01", "--repeats", "1", "--pool", "2",
                 "--only", "kernel", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["benchmarks"]) == {"kernel"}

    # Comparing against itself.  At this tiny scale the timing is all
    # noise, so the threshold is deliberately loose — this asserts the
    # gate *mechanism*, the realistic-threshold cases above assert the
    # arithmetic.
    second = tmp_path / "bench2.json"
    assert main(["--scale", "0.01", "--repeats", "1", "--pool", "2",
                 "--only", "kernel", "--out", str(second),
                 "--threshold", "90", "--compare", str(out)]) == 0

    # A doctored baseline 100x faster (a -99% drop) must trip it.
    fast = json.loads(out.read_text(encoding="utf-8"))
    entry = fast["benchmarks"]["kernel"]
    entry["metrics"][entry["score_metric"]] *= 100
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(fast), encoding="utf-8")
    assert main(["--scale", "0.01", "--repeats", "1", "--pool", "2",
                 "--only", "kernel", "--out", str(second),
                 "--threshold", "90", "--compare", str(doctored)]) == 1


@pytest.mark.parametrize("overhead_pct, exit_code", [(4.0, 0), (35.0, 1)])
def test_compare_gates_obs_kernel_overhead(tmp_path, monkeypatch, capsys,
                                           overhead_pct, exit_code):
    """The absolute obs gate: a metrics registry may cost the kernel
    loop at most 10 %, whatever the baseline file says."""
    from repro.perf import __main__ as cli
    from repro.perf.benches import BenchSpec

    def fake_obs(scale, pool, repeats=1):
        return {"kernel_events_per_sec_off": 1e6,
                "kernel_overhead_pct": overhead_pct}

    monkeypatch.setattr(cli, "BENCHES", [BenchSpec(
        "obs", fake_obs, "kernel_events_per_sec_off", True, "events/s",
        "stub")])
    baseline = tmp_path / "baseline.json"
    assert cli.main(["--only", "obs", "--out", str(baseline)]) == 0
    assert cli.main(["--only", "obs", "--out", str(tmp_path / "now.json"),
                     "--compare", str(baseline)]) == exit_code
    assert ("obs: metered kernel loop" in capsys.readouterr().out) == bool(
        exit_code)
