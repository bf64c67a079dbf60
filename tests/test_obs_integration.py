"""End-to-end tests of the observability layer.

Three contracts are pinned here:

* **zero perturbation** — installing an :class:`ObsSession` never
  changes what the simulation does (history digests byte-identical
  with and without it, no extra rng draws);
* **determinism** — two runs of the same seed produce byte-identical
  span trees and metric dumps (golden-pinned on the capture version);
* **zero cost** — the kernel has one event loop whether or not a
  registry is installed: metered and unmetered runs take the same time
  (measured both ways) and ``sim.events`` is an exact count.
"""

import json
import sys
import time

import pytest

from repro.check.runner import CheckConfig, run_check
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.obs import STAGES, ObsSession, chrome_trace, stage_breakdown
from repro.obs.record import artifact_digests
from repro.sim import Environment

CHECK_CONFIG = CheckConfig(seed=7, n_txns=20, n_faults=4)

#: Captured on CPython 3.11 (same caveat as the history goldens: the
#: rng variate algorithms are only promised stable within a feature
#: release, and span timestamps derive from them).  Recaptured when
#: protocol timeouts moved to cancelable kernel timers: histories
#: are byte-identical, but runs quiesce earlier (dead timers no longer
#: hold the clock) and ``sim.events`` no longer counts their churn.
GOLDEN_OBS_DIGESTS = {
    7: ("ef13a34baa605cadfe46a54d1b34f9214083e4d5d28f8ee3521320e5fd3ccd7f",
        "dc81edee66e884ec72025fceac9a9a50ef4fadd7ed706203a438ee4eb87bf457"),
    23: ("417d45d069b40a06f389c5aadb056012aa4f78eca7c7d555b2a5b0e0fb12db0a",
         "bf5ceb954ca0656cf42527981cfb120cb15c85d3a95cce07d832fe554b673f00"),
}

_on_capture_version = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="golden digests captured on CPython 3.11")


def _figure_result():
    config = ExperimentConfig(
        name="obs-acceptance", seed=1234, system="planet",
        topology="ec2", n_items=2_000, hotspot_size=50, rate_tps=80.0,
        oracle_samples=400, warmup_ms=500.0, duration_ms=2_000.0,
        drain_ms=1_500.0, observe=True)
    return Experiment(config).run()


# -- zero perturbation ------------------------------------------------------

def test_observe_does_not_change_history_digest():
    plain = run_check(CHECK_CONFIG)
    observed = run_check(CHECK_CONFIG, observe=True)
    assert plain.history.digest() == observed.history.digest()
    assert plain.stats == observed.stats
    assert observed.obs is not None
    assert observed.obs["meta"]["source"] == "check"


# -- determinism ------------------------------------------------------------

def test_same_seed_gives_identical_obs_artifacts():
    first = run_check(CHECK_CONFIG, observe=True)
    second = run_check(CHECK_CONFIG, observe=True)
    assert artifact_digests(first.obs) == artifact_digests(second.obs)


@_on_capture_version
def test_obs_digests_match_goldens():
    for seed, (span_digest, metric_digest) in GOLDEN_OBS_DIGESTS.items():
        result = run_check(
            CheckConfig(seed=seed, n_txns=20, n_faults=4), observe=True)
        digests = artifact_digests(result.obs)
        assert digests["spans"] == span_digest, f"seed {seed} spans drifted"
        assert digests["metrics"] == metric_digest, \
            f"seed {seed} metrics drifted"


# -- acceptance: the stitched stage chain -----------------------------------

def test_figure_run_exports_full_stage_chain():
    result = _figure_result()
    assert result.obs is not None
    spans = result.obs["spans"]
    breakdowns = stage_breakdown(spans)
    committed = [b for b in breakdowns if b.committed and b.complete]
    assert committed, "no committed transaction in the acceptance run"
    # At least one committed transaction shows all five stages
    # stitched across >= 3 nodes with the breakdown summing to e2e.
    best = max(committed, key=lambda b: len(b.nodes))
    assert set(best.stage_ms) == set(STAGES)
    assert len(best.nodes) >= 3
    for tx in committed:
        assert tx.stage_sum_ms == pytest.approx(tx.e2e_ms, abs=1.0)
    # The trace JSON is valid Chrome trace-event format.
    trace = chrome_trace(spans, label="acceptance")
    assert trace["traceEvents"], "empty trace export"
    payload = json.dumps(trace)
    assert json.loads(payload)["displayTimeUnit"] == "ms"
    # Metrics recorded protocol activity end to end.
    counters = result.obs["metrics"]["counters"]
    assert counters["tx.started"][""] >= len(breakdowns)
    assert "transport.delivered" in counters
    assert "storage.options" in counters
    assert "paxos.rounds" in counters


# -- zero cost --------------------------------------------------------------

def _kernel_seconds(observe: bool, n_events: int = 30_000) -> float:
    env = Environment()
    if observe:
        ObsSession(spans=False).install(env)

    def ticker(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(ticker(env))
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start


def test_kernel_zero_cost_band():
    # Interleaved, so a burst of load from elsewhere on the host lands
    # on both sides instead of on one block of five.
    offs, ons = [], []
    for _ in range(5):
        offs.append(_kernel_seconds(False))
        ons.append(_kernel_seconds(True))
    off, on = min(offs), min(ons)
    # One loop serves both: ``sim.events`` comes from bookkeeping
    # around it, so neither side may be measurably slower.
    assert off <= on * 1.10 and on <= off * 1.10, (
        f"no-registry kernel run ({off:.4f}s) and metered run "
        f"({on:.4f}s) differ beyond the 10% band")


def _events_script(observe, windows):
    """Five heap occurrences (process start, three timeouts, process
    end) and three timers of which one is cancelled: seven in all."""
    env = Environment()
    session = ObsSession(spans=False)
    if observe:
        session.install(env)
    history = []

    def ticker(env):
        for _ in range(3):
            yield env.timeout(1.0)
            history.append(("tick", env.now))

    env.process(ticker(env))
    for when in (0.5, 2.5):
        env.arm_timer(when, lambda w=when: history.append(("timer", w)))
    env.arm_timer(1.5, lambda: history.append(("dead", 1.5))).cancel()
    counts = []
    for until in windows:
        env.run(until=until)
        counts.append(session.registry.counter_value("sim.events"))
    return env.now, history, counts


@pytest.mark.parametrize("windows, expected", [
    ((None,), [7.0]),
    # The window ends on the boundary: the stop event beats the tick
    # queued at exactly 2.0, and is not itself counted.
    ((2.0,), [3.0]),
    ((2.0, 4.0), [3.0, 7.0]),
])
def test_sim_events_is_an_exact_count(windows, expected):
    now, history, counts = _events_script(True, windows)
    assert counts == expected
    plain_now, plain_history, plain_counts = _events_script(False, windows)
    assert (now, history) == (plain_now, plain_history)
    assert plain_counts == [0.0] * len(windows)


# -- CLI --------------------------------------------------------------------

def test_obs_cli_record_export_breakdown_top(tmp_path, capsys):
    from repro.obs.__main__ import main

    artifact = tmp_path / "run.obs.json"
    assert main(["record", "--check-seed", "7", "--txns", "15",
                 "--out", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "span digest:" in out and "metric digest:" in out

    assert main(["export", str(artifact)]) == 0
    exported = tmp_path / "run.perfetto.json"
    assert exported.exists()
    trace = json.loads(exported.read_text())
    assert trace["traceEvents"]
    capsys.readouterr()

    assert main(["breakdown", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "txid" in out and "admission_ms" in out

    assert main(["top", str(artifact), "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "e2e_ms" in out


def test_obs_cli_record_requires_exactly_one_source(tmp_path, capsys):
    from repro.obs.__main__ import main

    assert main(["record"]) == 2
    assert main(["record", "--check-seed", "1",
                 "--figure-seed", "2"]) == 2


def test_fuzz_failure_artifact_roundtrip(tmp_path):
    """The fuzz CLI's obs re-run: observe=True on a replayed schedule
    reproduces the same history and yields an exportable artifact."""
    from repro.check.__main__ import _save_obs

    result = run_check(CHECK_CONFIG)
    path = _save_obs(str(tmp_path), result)
    assert path is not None and path.endswith("seed-7.obs.json")
    artifact = json.loads(open(path).read())
    assert artifact["spans"]
    assert artifact["meta"]["source"] == "check"
