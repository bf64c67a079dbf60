"""Command-line front end of the benchmark harness.

::

    python -m repro.perf                       # full run -> BENCH_kernel.json
    python -m repro.perf --smoke               # CI-sized run (scale 0.2)
    python -m repro.perf --only kernel --only transport
    python -m repro.perf --compare BENCH_kernel.json   # regression gate
    python -m repro.perf --profile             # cProfile the benches

``--compare`` exits non-zero iff any benchmark's score metric is more
than ``--threshold`` percent worse than the baseline file — CI feeds
it the committed ``BENCH_kernel.json``.  Results are always written
(``--out``, default ``BENCH_kernel.json`` in the current directory) so
the fresh numbers survive as an artifact even when the gate fails.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from typing import Dict, List, Optional

from repro.harness.parallel import default_pool_size, effective_cpu_count
from repro.perf.benches import BENCHES
from repro.perf.harness import (
    build_report,
    compare_reports,
    format_report,
    load_report,
    write_report,
)

#: Pre-change reference numbers: the same micro benches measured at
#: the seed revision (before the __slots__/pooling/sampler-binding
#: work, commit bb8ec9e) on the machine that produced the committed
#: baseline.  Informational — compare mode never reads this block.
UNOPTIMIZED_REFERENCE = {
    "rev": "bb8ec9e (pre-optimization)",
    "kernel_events_per_sec": 638_927.0,
    "transport_messages_per_sec": 167_234.0,
    "figure_seconds": 3.044,
}


#: Most a metrics registry may cost the kernel loop (ROADMAP aim 4).
OBS_KERNEL_OVERHEAD_BUDGET_PCT = 10.0


def _run_benches(names: List[str], scale: float, pool: int, repeats: int,
                 profile: bool) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for spec in BENCHES:
        if names and spec.name not in names:
            continue
        print(f"running {spec.name} ({spec.description}) ...", flush=True)
        if profile:
            profiler = cProfile.Profile()
            profiler.enable()
        results[spec.name] = spec.fn(scale, pool, repeats=repeats)
        if profile:
            profiler.disable()
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(20)
            print(f"--- cProfile: {spec.name} ---")
            print(stream.getvalue())
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="micro/macro wall-clock benchmarks of the simulator")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: scale 0.2, single repeat")
    parser.add_argument("--scale", type=float, default=None,
                        help="work multiplier (default 1.0; --smoke: 0.2)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions, best-of (default 3; "
                             "--smoke: 1)")
    parser.add_argument("--pool", type=int, default=None,
                        help="worker pool for the sweep bench (default: "
                             "the CPU-affinity mask, i.e. the CPUs this "
                             "process may actually use)")
    parser.add_argument("--only", action="append", default=[],
                        choices=[spec.name for spec in BENCHES],
                        help="run only this bench (repeatable)")
    parser.add_argument("--out", type=str, default="BENCH_kernel.json",
                        help="result file (default %(default)s)")
    parser.add_argument("--compare", type=str, default=None, metavar="FILE",
                        help="baseline report; exit 1 on regression")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="allowed regression percent "
                             "(default %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each bench and print hot functions")
    parser.add_argument("--speedup-curve", type=str, default=None,
                        metavar="FILE",
                        help="instead of the bench suite, sweep the "
                             "figure-config fan-out at 1..pool workers "
                             "and write the speedup curve to FILE")
    namespace = parser.parse_args(argv)

    scale = namespace.scale if namespace.scale is not None else (
        0.2 if namespace.smoke else 1.0)
    repeats = namespace.repeats if namespace.repeats is not None else (
        1 if namespace.smoke else 3)
    pool = (namespace.pool if namespace.pool is not None
            else default_pool_size())
    effective_pool = min(pool, effective_cpu_count())

    if namespace.speedup_curve is not None:
        from repro.perf.benches import speedup_curve

        points = speedup_curve(scale, max_workers=max(1, pool),
                               repeats=repeats)
        artifact = {
            "scale": scale,
            "effective_cpus": effective_cpu_count(),
            "points": points,
        }
        with open(namespace.speedup_curve, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for point in points:
            print(f"workers {point['workers']:.0f} "
                  f"(effective {point['effective']:.0f}): "
                  f"{point['parallel_seconds']:.3f}s, "
                  f"speedup {point['speedup']:.3f}x")
        print(f"speedup curve written to {namespace.speedup_curve}")
        return 0

    results = _run_benches(namespace.only, scale, pool, repeats,
                           namespace.profile)
    scores = {spec.name: (spec.score_metric, spec.higher_is_better,
                          spec.unit)
              for spec in BENCHES if spec.name in results}
    report = build_report(results, scores, scale, pool,
                          effective_pool=effective_pool,
                          reference=UNOPTIMIZED_REFERENCE)
    print()
    print(format_report(report))
    write_report(namespace.out, report)
    print(f"\nreport written to {namespace.out}")

    if namespace.compare:
        baseline = load_report(namespace.compare)
        if baseline.get("scale") != report.get("scale"):
            print(f"note: baseline scale {baseline.get('scale')} != "
                  f"current scale {report.get('scale')}; comparing anyway")
        failures: List[str] = []
        regressions = compare_reports(report, baseline,
                                      threshold_pct=namespace.threshold)
        for regression in regressions:
            failures.append(regression.format())
        # Absolute gates, independent of the baseline file: whenever
        # a real pool ran, parallel must not lose to serial; the
        # loadgen bench must stay inside its wall/RSS budgets; and a
        # metrics registry must not cost the kernel loop more than the
        # ROADMAP's observability budget.
        sweep = results.get("sweep")
        if (sweep is not None and sweep.get("effective_pool", 1.0) >= 2
                and sweep.get("speedup", 1.0) < 1.0):
            failures.append(
                f"sweep: parallel lost to serial at effective pool "
                f"{sweep['effective_pool']:.0f} "
                f"(speedup {sweep['speedup']:.3f} < 1.0)")
        loadgen = results.get("loadgen")
        if (loadgen is not None
                and loadgen.get("within_budget", 1.0) < 1.0):
            failures.append(
                f"loadgen: outside budget (wall {loadgen['seconds']:.2f}s"
                f" vs {loadgen['wall_budget_s']:.0f}s, rss "
                f"{loadgen['peak_rss_mb']:.0f}MB vs "
                f"{loadgen['rss_budget_mb']:.0f}MB)")
        obs = results.get("obs")
        if (obs is not None and obs.get("kernel_overhead_pct", 0.0)
                > OBS_KERNEL_OVERHEAD_BUDGET_PCT):
            failures.append(
                f"obs: metered kernel loop costs "
                f"{obs['kernel_overhead_pct']:.1f}% (budget "
                f"{OBS_KERNEL_OVERHEAD_BUDGET_PCT:.0f}%)")
        if failures:
            print(f"\nFAIL: {len(failures)} gate failure(s) vs "
                  f"{namespace.compare} (threshold "
                  f"{namespace.threshold:.0f}%)")
            for failure in failures:
                print("  " + failure)
            return 1
        print(f"\nOK: no regression beyond {namespace.threshold:.0f}% "
              f"vs {namespace.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
