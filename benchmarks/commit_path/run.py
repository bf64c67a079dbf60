"""commit_path: committed transactions per wall-second through the
whole stack, with a per-layer cost table.

Two ways in, one measurement underneath:

* the suite -- ``python3 benchmarks/commit_path/run.py [--seed N]
  [--workload NAME] [--repeats K] [--aa] [--record]`` runs every
  workload, prints every metric by name with its unit, checks the
  outputs and exits non-zero on a failed check;
* one driver run -- ``... --workload NAME --seed N --seconds S
  --trace 0|1`` measures one workload and prints one JSON object as
  the last line: the end-to-end metrics (``--trace 0``) or the
  per-layer metrics (``--trace 1``).

Every pass is a fresh ``passes.py`` subprocess, run strictly one
after the other.  The metric names, units and bounds are read from
``BENCHMARK.json``; a metric produced but not declared there (or the
reverse) is an error.  See the README beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
PASSES = os.path.join(HERE, "passes.py")
HISTORY = os.path.join(HERE, "history.jsonl")

#: Nominal wall seconds of one timed repeat: ``--seconds S`` buys
#: ``S / 4`` repeats.  Fixed, not measured, so the work a run does
#: never depends on how fast the code under test is.
SECONDS_PER_REPEAT = 4
DEFAULT_REPEATS = 5
#: Run seed N owns sub-seeds N * stride .. N * stride + repeats - 2.
SUB_SEED_STRIDE = 1000
#: One pass takes 3-15 s; anything near this is a hang.
PASS_TIMEOUT_S = 150
#: ``self_share`` rows may differ by this many points between two sets.
SHARE_TOLERANCE_POINTS = 3.0
#: Rows of one layer table must sum to 100 within this.
TABLE_TOLERANCE_POINTS = 0.1
OTHER_LIMIT_POINTS = 1.0

class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_pass(pass_name: str, workload: Optional[str] = None, seed: int = 1,
             unobserved: bool = False) -> dict:
    """Run one pass in a fresh interpreter; returns its JSON line."""
    command = [sys.executable, PASSES, pass_name, "--seed", str(seed)]
    if workload is not None:
        command += ["--workload", workload]
    if unobserved:
        command.append("--unobserved")
    # One process, one thread: keep numpy's BLAS pool out of the way.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckFailed(
            f"pass {pass_name} of {workload} exited {done.returncode}:\n"
            f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- end-to-end: timed repeats ----------------------------------------------

def sub_seeds(seed: int, repeats: int) -> List[int]:
    """The seed of each timed repeat of one run.

    Repeats use distinct sub-seeds so a run averages over arrival
    luck (which moves simulated results *and* wall time: a sample path
    with more transactions is slower per transaction).  The first
    sub-seed is run twice: both runs are timing samples, and they must
    agree on ``sim_digest``.
    """
    base = seed * SUB_SEED_STRIDE
    return [base] + [base + index for index in range(repeats - 1)]


def timed_repeats(workload: str, seed: int, repeats: int) -> List[dict]:
    runs = [run_pass("timed", workload, sub_seed)
            for sub_seed in sub_seeds(seed, repeats)]
    if repeats > 1 and runs[0]["sim_digest"] != runs[1]["sim_digest"]:
        raise CheckFailed(
            f"{workload}: two runs of sub-seed {seed * SUB_SEED_STRIDE} "
            f"disagree on sim_digest ({runs[0]['sim_digest'][:12]} != "
            f"{runs[1]['sim_digest'][:12]})")
    if min(run["committed"] for run in runs) < 1:
        raise CheckFailed(f"{workload}: a repeat committed nothing")
    return runs


def distinct_paths(runs: Sequence[dict]) -> Sequence[dict]:
    """One repeat per distinct sub-seed (the first is run twice)."""
    return runs[1:] if len(runs) > 1 else runs


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Same rule as ``MetricsCollector.percentile_response_ms``."""
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def end_to_end(runs: Sequence[dict]) -> Dict[str, float]:
    """Every end-to-end metric of one run.

    Set-up time and peak RSS are medians over the repeats.  Throughput
    and the simulated results are taken over the pooled sample paths
    of the distinct sub-seeds: wall time per commit differs by ~2.5 %
    (sd) from one sample path to the next, mostly in how many full GC
    passes it triggers, so a run reports the total over its paths.
    """
    paths = distinct_paths(runs)
    responses = sorted(ms for run in paths for ms in run["responses_ms"])
    return {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "commit_tx_per_wall_s": (sum(run["committed"] for run in paths)
                                 / sum(run["wall_s"] for run in paths)),
        "peak_rss_mb": statistics.median(
            run["peak_rss_mb"] for run in runs),
        "sim_commit_p50_ms": nearest_rank(responses, 0.50),
        "sim_commit_p99_ms": nearest_rank(responses, 0.99),
        "sim_goodput_tps": (sum(run["window_commits"] for run in paths)
                            / sum(run["window_s"] for run in paths)),
        "sim_commit_share": (sum(run["window_in_time"] for run in paths)
                             / sum(run["window_issued"] for run in paths)),
    }


def wall_samples(runs: Sequence[dict]) -> Dict[str, List[float]]:
    """Per-repeat values of the wall-clock metrics (for quartiles)."""
    return {
        "setup_s": [run["setup_s"] for run in runs],
        "commit_tx_per_wall_s":
            [run["committed"] / run["wall_s"] for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }


def attempted_failed(runs: Sequence[dict]) -> Tuple[int, int]:
    """Transactions issued, and those left without a verdict."""
    return (sum(run["issued"] for run in runs),
            sum(run["unresolved"] for run in runs))


def runs_digest(runs: Sequence[dict]) -> str:
    """One digest for a whole run: its sub-seeds' digests, in order."""
    return hashlib.sha256("".join(
        run["sim_digest"] for run in runs).encode("ascii")).hexdigest()


# -- per-layer: the traced run -----------------------------------------------

def traced(workload: str, reference: dict, drives: dict) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    ``reference`` is the untraced timed pass the traced passes are
    held against: they rerun its seed and must reproduce its digest.
    """
    seed = reference["seed"]
    profiled = run_pass("profile", workload, seed)
    counted = run_pass("counters", workload, seed)

    for label, traced_pass in (("profiled", profiled), ("observed", counted)):
        if traced_pass["sim_digest"] != reference["sim_digest"]:
            raise CheckFailed(
                f"{workload}: the {label} pass changed behaviour "
                f"(sim_digest {traced_pass['sim_digest'][:12]} != "
                f"{reference['sim_digest'][:12]})")
    if counted["violations"]:
        raise CheckFailed(
            f"{workload}: {len(counted['violations'])} invariant "
            "violation(s):\n  " + "\n  ".join(counted["violations"][:10]))
    share = profiled["self_share"]
    if abs(sum(share.values()) - 100.0) > TABLE_TOLERANCE_POINTS:
        raise CheckFailed(
            f"{workload}: layer rows sum to {sum(share.values()):.3f}")
    if share["other"] > OTHER_LIMIT_POINTS:
        raise CheckFailed(
            f"{workload}: {share['other']:.2f} points unattributed")

    committed = reference["committed"]
    us_per_commit = reference["wall_s"] * 1e6 / committed
    out: Dict[str, float] = {}
    for layer, points in share.items():
        out[f"{layer}.self_share"] = points
        if layer != "other":
            # The profile gives the split, the untraced run the total.
            out[f"{layer}.self_us_per_commit"] = (
                points / 100.0 * us_per_commit)
    for name, total in counted["per_commit"].items():
        out[f"{name}_per_commit"] = total / committed
    out.update(counted["shares"])
    out["core.likelihood.rebuilds"] = float(counted["rebuilds"])
    out["obs.overhead_share"] = 0.0
    if reference["observed"]:
        unobserved = run_pass("timed", workload, seed, unobserved=True)
        if unobserved["sim_digest"] != reference["sim_digest"]:
            raise CheckFailed(f"{workload}: observe=True changed behaviour")
        out["obs.overhead_share"] = (
            reference["wall_s"] / unobserved["wall_s"] - 1.0)
    out["runtime.gc_share"] = reference["gc_s"] / reference["wall_s"]
    out["runtime.gc_collections"] = float(reference["gc_collections"])
    out["runtime.profile_overhead_ratio"] = (
        profiled["wall_s"] / reference["wall_s"])
    out["harness.sim_read_p50_ms"] = reference["sim_read_p50_ms"]
    out["harness.sim_recover_ms"] = reference["sim_recover_ms"]
    out.update(drives)
    return out


# -- output -------------------------------------------------------------------

def check_names(produced: Sequence[str], declared: Sequence[dict],
                kind: str) -> None:
    names = [metric["name"] for metric in declared]
    if sorted(produced) != sorted(names):
        raise CheckFailed(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(produced) - set(names))}, "
            f"missing {sorted(set(names) - set(produced))}")


def print_end_to_end(spec: dict, runs: Sequence[dict],
                     values: Dict[str, float]) -> None:
    samples = wall_samples(runs)
    paths = distinct_paths(runs)
    responses = sum(len(run["responses_ms"]) for run in paths)
    print(f"  {'end-to-end metric':<24}{'value':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>7}  unit")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in samples:
            q1, _q2, q3 = statistics.quantiles(samples[name], n=4)
            spread = f"{q1:>14.4f}{q3:>14.4f}{len(runs):>7}"
        else:
            # Pooled over the sub-seeds: no quartiles, n latency samples.
            spread = f"{'':>28}{responses:>7}"
        print(f"  {name:<24}{values[name]:>14.4f}{spread}  "
              f"{metric['unit']}")
    issued, unresolved = attempted_failed(runs)
    print(f"  tx_unresolved_share {unresolved / issued:.4f} "
          f"({unresolved} of {issued} issued); simulated metrics pooled "
          f"over {len(paths)} sub-seeds")
    print(f"  sim_digest {runs_digest(runs)}")


def print_per_layer(spec: dict, values: Dict[str, float]) -> None:
    print(f"  {'layer':<18}{'self_share %':>14}{'self_us_per_commit':>22}")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_share"):
            layer = name[:-len(".self_share")]
            micros = values.get(f"{layer}.self_us_per_commit")
            print(f"  {layer:<18}{values[name]:>14.2f}"
                  + (f"{micros:>22.2f}" if micros is not None else ""))
    print(f"  {'per-layer metric':<44}{'value':>16}  unit")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if ".self_" not in name:
            print(f"  {name:<44}{values[name]:>16.4f}  {metric['unit']}")


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- the suite ---------------------------------------------------------------

def run_set(spec: dict, names: Sequence[str], seed: int,
            repeats: int) -> Dict[str, dict]:
    """Timed repeats then the traced run, for each workload in turn."""
    results: Dict[str, dict] = {}
    drives = run_pass("drives")
    for name in names:
        print(f"== {name} (seed {seed}, {repeats} timed repeats) ==")
        runs = timed_repeats(name, seed, repeats)
        values = end_to_end(runs)
        check_names(list(values), spec["end_to_end"], "end-to-end")
        print_end_to_end(spec, runs, values)
        layer_values = traced(name, runs[0], drives)
        check_names(list(layer_values), spec["per_layer"], "per-layer")
        print_per_layer(spec, layer_values)
        print("  checks: rerun of the first sub-seed and both traced "
              "passes keep its sim_digest; CHK001-009 clean")
        results[name] = {
            "end_to_end": values,
            "per_layer": layer_values,
            "sim_digest": runs_digest(runs),
            "attempted_failed": attempted_failed(runs),
        }
    return results


def compare_sets(spec: dict, first: Dict[str, dict],
                 second: Dict[str, dict]) -> List[str]:
    """Print the A/A table; returns what fell outside its bound."""
    failures: List[str] = []
    print("== A/A: two sets of runs of the same code ==")
    print(f"  {'workload':<24}{'metric':<24}{'set A':>14}{'set B':>14}"
          f"{'diff':>9}{'bound':>8}")
    for name in first:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = first[name]["end_to_end"][key]
            b = second[name]["end_to_end"][key]
            diff = abs(b - a) / abs(a)
            # Simulated results repeat exactly for a seed.
            bound = 0.0 if key.startswith("sim_") else metric["bound"]
            verdict = "" if diff <= bound else "  OUTSIDE"
            print(f"  {name:<24}{key:<24}{a:>14.4f}{b:>14.4f}"
                  f"{diff:>9.2%}{bound:>8.0%}{verdict}")
            if verdict:
                failures.append(f"{name} {key} differs by {diff:.2%}")
        if first[name]["sim_digest"] != second[name]["sim_digest"]:
            failures.append(f"{name} sim_digest differs between the sets")
        for key, a in first[name]["per_layer"].items():
            if key.endswith(".self_share"):
                gap = abs(second[name]["per_layer"][key] - a)
                if gap > SHARE_TOLERANCE_POINTS:
                    failures.append(
                        f"{name} {key} differs by {gap:.1f} points")
    return failures


def record(results: Dict[str, dict], seed: int, repeats: int) -> None:
    line = {"rev": git_rev(), "host": host_fingerprint(), "seed": seed,
            "repeats": repeats, "workloads": results}
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"recorded {line['rev'][:12]} in {os.path.relpath(HISTORY, ROOT)}")


def suite(spec: dict, args: argparse.Namespace) -> int:
    names = ([args.workload] if args.workload
             else [workload["name"] for workload in spec["workloads"]])
    results = run_set(spec, names, args.seed, args.repeats)
    failures: List[str] = []
    if args.aa:
        failures = compare_sets(
            spec, results, run_set(spec, names, args.seed, args.repeats))
    if args.record:
        record(results, args.seed, args.repeats)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


# -- one driver run ----------------------------------------------------------

def driver_run(spec: dict, args: argparse.Namespace) -> int:
    if args.workload is None:
        raise SystemExit("--trace needs --workload")
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    if args.trace == 0:
        repeats = max(1, round(args.seconds / SECONDS_PER_REPEAT))
        runs = timed_repeats(args.workload, args.seed, repeats)
        values = end_to_end(runs)
        check_names(list(values), spec["end_to_end"], "end-to-end")
    else:
        runs = timed_repeats(args.workload, args.seed, 1)
        values = traced(args.workload, runs[0], run_pass("drives"))
        check_names(list(values), spec["per_layer"], "per-layer")
    attempted, failed = attempted_failed(runs)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timed repeats per workload (suite)")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice and compare the two")
    parser.add_argument("--record", action="store_true",
                        help="append this run's medians to history.jsonl")
    parser.add_argument("--seconds", type=float,
                        default=DEFAULT_REPEATS * SECONDS_PER_REPEAT,
                        help="driver run: nominal measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver run: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    spec = load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r} (known: {known})")
    try:
        if args.trace is not None:
            return driver_run(spec, args)
        return suite(spec, args)
    except CheckFailed as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
