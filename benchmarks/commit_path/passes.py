"""One pass over one workload, in this process; prints one JSON line.

``run.py`` starts this file as a fresh subprocess per pass, so every
pass has a clean heap, its own peak RSS and pays its own imports:

``timed``     untraced ``Experiment.run()``: the end-to-end numbers
              (and the time spent in cyclic GC).
``profile``   the same run under ``cProfile``: self time by layer.
``counters``  the same run with ``observe=True`` and a history
              recorder: per-commit counts and CHK001-009.
``drives``    isolated drives of the layers' public entry points.
"""

import time

_INTERPRETER_READY = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

import repro  # noqa: E402
from repro.check import HistoryRecorder, check_history  # noqa: E402
from repro.harness import Experiment  # noqa: E402
from repro.obs import binned_rate, extract_recovery  # noqa: E402
from repro.scenarios.catalogue import get_scenario  # noqa: E402
from repro.scenarios.runner import RECOVERY_THRESHOLD  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: Scale handed to the ``repro.perf.benches`` drivers: all seven
#: isolated drives together take ~5 s on a 2-core box.
DRIVE_SCALE = 0.3
ARRIVALS_RATE_TPS = 100_000.0
ARRIVALS_WINDOW_MS = 1_000.0


def _digest(records) -> str:
    """sha256 of the canonical ``TxRecord`` list."""
    canon = json.dumps([dataclasses.astuple(record) for record in records])
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _recover_ms(config, records) -> float:
    """Simulated ms to regain 95 % of the pre-fault commit rate (the
    ``repro.scenarios.runner.run_arm`` readout); 0 without a fault."""
    if config.faults is None:
        return 0.0
    profile = workloads.scenario_profile()
    scenario = get_scenario(workloads.SCENARIO)
    total = profile.warmup_ms + profile.duration_ms
    fault_start, fault_end = scenario.disturbance_window(
        profile.warmup_ms, profile.duration_ms)
    commits = [record.decided_ms for record in records
               if record.committed and record.decided_ms is not None]
    series = binned_rate(commits, 0.0, total, profile.bin_ms)
    pre = [record for record in records
           if profile.warmup_ms / 2.0 <= record.issued_ms < fault_start]
    commit_fraction = (sum(record.committed is True for record in pre)
                       / len(pre)) if pre else 1.0
    recovery = extract_recovery(
        series, fault_start, fault_end,
        baseline_start_ms=profile.warmup_ms / 2.0,
        threshold=RECOVERY_THRESHOLD, sustain_bins=3,
        baseline_cap=(profile.rate_tps * scenario.rate_scale
                      * commit_fraction))
    if recovery.recovery_ms is None:
        # Never recovered inside the run: report the whole remaining
        # span, so the number still gets worse when recovery does.
        return total - fault_end
    return recovery.recovery_ms


def _summary(result) -> dict:
    """What one finished run produced, in simulated units.

    Raw samples and counts, not percentiles: ``run.py`` pools them
    over the sub-seeds of a run before it takes quantiles.
    """
    metrics = result.metrics
    records = metrics.all_records
    window = metrics.records
    reads = sorted(result.read_latencies_ms)
    return {
        "issued": len(records),
        "committed": sum(1 for record in records if record.committed),
        "unresolved": sum(1 for record in records
                          if record.admitted and record.committed is None),
        "window_s": metrics.window_seconds,
        "window_issued": len(window),
        "window_commits": round(metrics.commit_tps()
                                * metrics.window_seconds),
        "window_in_time": sum(
            1 for record in window
            if record.committed and record.decided_before_timeout),
        "responses_ms": metrics.response_times(),
        "sim_read_p50_ms": reads[len(reads) // 2] if reads else 0.0,
        "sim_recover_ms": _recover_ms(result.config, records),
        "observed": result.config.observe,
        "sim_digest": _digest(records),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _GcClock:
    """Times cyclic collections through ``gc.callbacks`` (two clock
    reads per collection: ~1 ms over a whole run)."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def timed(name: str, seed: int, observe) -> dict:
    experiment = Experiment(workloads.build(name, seed, observe))
    setup_s = time.perf_counter() - _INTERPRETER_READY
    gc_clock = _GcClock()
    gc.collect()
    gc.callbacks.append(gc_clock)
    start = time.perf_counter()
    result = experiment.run()
    wall_s = time.perf_counter() - start
    gc.callbacks.remove(gc_clock)
    out = _summary(result)
    out.update(seed=seed, setup_s=setup_s, wall_s=wall_s,
               peak_rss_mb=_peak_rss_mb(),
               gc_s=gc_clock.seconds, gc_collections=gc_clock.collections)
    return out


def profile(name: str, seed: int) -> dict:
    experiment = Experiment(workloads.build(name, seed))
    profiler = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    result = profiler.runcall(experiment.run)
    wall_s = time.perf_counter() - start
    seconds = layers.layer_seconds(
        pstats.Stats(profiler), os.path.dirname(repro.__file__))
    return {"wall_s": wall_s, "self_share": layers.shares(seconds),
            "sim_digest": _digest(result.metrics.all_records)}


def _total(counters: dict, name: str, label=None) -> float:
    series = counters.get(name, {})
    if label is not None:
        return float(series.get(label, 0.0))
    return float(sum(series.values()))


def counters(name: str, seed: int) -> dict:
    experiment = Experiment(workloads.build(name, seed, observe=True))
    recorder = HistoryRecorder()
    recorder.attach(experiment.cluster)
    result = experiment.run()
    violations = [f"{violation.code}: {violation.message}"
                  for violation in check_history(recorder.detach())]
    count = result.obs["metrics"]["counters"]
    wheel = experiment.env.timer_wheel
    sent = _total(count, "transport.sent")
    fast_rounds = _total(count, "paxos.fast_rounds")
    decisions = _total(count, "planet.admission")
    spec = _total(count, "planet.spec_commit")
    return {
        "violations": violations,
        "sim_digest": _digest(result.metrics.all_records),
        "rebuilds": experiment.model_refreshes,
        # Totals of the run; run.py divides by committed transactions.
        "per_commit": {
            "sim.events": _total(count, "sim.events"),
            "sim.timers_armed": float(wheel.armed_total),
            "sim.timers_fired": float(wheel.fired_total),
            "net.msgs": sent,
            "paxos.rounds": _total(count, "paxos.rounds") + fast_rounds,
            "paxos.fallbacks": _total(count, "paxos.fallbacks"),
            "storage.options": _total(count, "storage.options"),
            "storage.reads": _total(count, "storage.reads"),
            "storage.rounds_lost": _total(count, "storage.rounds_lost"),
            "mdcc.tx_started": _total(count, "tx.started"),
        },
        "shares": {
            "net.msgs_dropped_share":
                _total(count, "transport.dropped") / sent,
            "paxos.fast_chosen_share":
                (_total(count, "paxos.fast_chosen") / fast_rounds
                 if fast_rounds else 0.0),
            # Of the transactions that reached a verdict, how many
            # answered the client speculatively first.
            "core.transaction.spec_commit_share":
                spec / _total(count, "tx.decided"),
            "core.transaction.spec_incorrect_share":
                (_total(count, "planet.spec_incorrect") / spec
                 if spec else 0.0),
            "core.admission.reject_share":
                (_total(count, "planet.admission", "rejected") / decisions
                 if decisions else 0.0),
        },
    }


class _CountingIssuer:
    """Counts arrivals and keeps nothing: load generation alone."""

    def __init__(self):
        self.issued = 0

    def issue(self, writes, touches_hotspot) -> None:
        self.issued += 1


def _arrivals_per_s() -> float:
    from repro.sim import Environment, RandomStreams
    from repro.workload import (AggregateLoad, BuyTransactionFactory,
                                UniformAccess)

    env = Environment()
    issuer = _CountingIssuer()
    load = AggregateLoad(
        env, BuyTransactionFactory(UniformAccess(20_000)), issuer,
        ARRIVALS_RATE_TPS, RandomStreams(seed=97), name="arrivals",
        mode="vectorized")
    load.start(duration_ms=ARRIVALS_WINDOW_MS)
    start = time.perf_counter()
    env.run(until=ARRIVALS_WINDOW_MS)
    return issuer.issued / (time.perf_counter() - start)


def drives() -> dict:
    from repro.perf import benches

    scale = DRIVE_SCALE  # the benches take (scale, pool)
    return {
        "sim.events_per_s":
            benches.bench_kernel(scale, 1)["events_per_sec"],
        "net.msgs_per_s":
            benches.bench_transport(scale, 1)["messages_per_sec"],
        "net.rpc_calls_per_s":
            benches.bench_rpc_timeout(scale, 1)["calls_per_sec"],
        "paxos.fast_rounds_per_s":
            benches.bench_fast_paxos(scale, 1)["txns_per_sec"],
        "core.likelihood.refresh_ms":
            benches.bench_likelihood(scale, 1)["refresh_ms"],
        "core.likelihood.decisions_per_s":
            benches.bench_likelihood_decisions(scale, 1)["memoized_per_sec"],
        "workload.arrivals_per_s": _arrivals_per_s(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pass_name",
                        choices=("timed", "profile", "counters", "drives"))
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--unobserved", action="store_true",
                        help="timed: force observe=False on the workload")
    args = parser.parse_args(argv)
    if args.pass_name == "drives":
        out = drives()
    elif args.workload is None:
        parser.error("--workload is required for this pass")
    elif args.pass_name == "timed":
        out = timed(args.workload, args.seed,
                    observe=False if args.unobserved else None)
    elif args.pass_name == "profile":
        out = profile(args.workload, args.seed)
    else:
        out = counters(args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
