"""Command-line front end of the simulation-testing subsystem.

::

    python -m repro.check fuzz --seeds 100           # sweep seeds 0..99
    python -m repro.check fuzz --seeds 500 --out DIR # save failing traces
    python -m repro.check replay --seed 17           # one verbose run
    python -m repro.check list                       # invariant catalogue

``fuzz`` exits non-zero iff any seed produced an invariant violation;
each failure is shrunk (unless ``--no-shrink``) and reported as a
minimal fault schedule plus the implicated history events.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.check.invariants import CHECKS
from repro.check.runner import (
    CheckConfig,
    CheckResult,
    fuzz_sweep,
    run_check,
    shrink,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = CheckConfig()
    parser.add_argument("--dcs", type=int, default=defaults.n_datacenters,
                        help="data centers (default %(default)s)")
    parser.add_argument("--partitions", type=int,
                        default=defaults.partitions_per_dc,
                        help="partitions per DC (default %(default)s)")
    parser.add_argument("--items", type=int, default=defaults.n_items,
                        help="table size (default %(default)s)")
    parser.add_argument("--txns", type=int, default=defaults.n_txns,
                        help="transactions per run (default %(default)s)")
    parser.add_argument("--faults", type=int, default=defaults.n_faults,
                        help="fault actions per run (default %(default)s)")
    parser.add_argument("--fault-kinds", type=str, default=None,
                        help="comma-separated subset of fault kinds "
                             "(default: all classic kinds; fast mode "
                             "adds 'collide')")
    parser.add_argument("--mode", choices=("classic", "fast"),
                        default=defaults.mode,
                        help="protocol mode for every run "
                             "(default %(default)s)")
    parser.add_argument("--scenario", type=str, default=None,
                        help="catalogue scenario (repro.scenarios) whose "
                             "fault program anchors every run; seeds "
                             "perturb its timings and intensities")


def _config_from(namespace: argparse.Namespace, seed: int) -> CheckConfig:
    if namespace.fault_kinds:
        kinds = tuple(namespace.fault_kinds.split(","))
    elif namespace.mode == "fast":
        # Fast-mode sweeps get the concurrent-proposer generator so
        # collisions and classic fallbacks are actually exercised.
        from repro.check.faults import FAST_KINDS
        kinds = FAST_KINDS
    else:
        kinds = CheckConfig().fault_kinds
    if namespace.scenario is not None:
        from repro.scenarios import get_scenario
        get_scenario(namespace.scenario)  # fail fast on unknown names
    return CheckConfig(seed=seed, n_datacenters=namespace.dcs,
                       partitions_per_dc=namespace.partitions,
                       n_items=namespace.items, n_txns=namespace.txns,
                       n_faults=namespace.faults, fault_kinds=kinds,
                       mode=namespace.mode, scenario=namespace.scenario)


def _save_trace(directory: str, result: CheckResult) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"seed-{result.config.seed}.trace")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(result.report())
        stream.write("\n\nfull history:\n")
        stream.write(result.history.format())
        stream.write("\n")
    return path


def _save_obs(directory: str, result: CheckResult) -> Optional[str]:
    """Re-run the (shrunk) failing config with observability installed
    and save the span/metric artifact next to the trace file.

    The re-run is byte-identical to the failing run (observability
    draws no randomness), so the artifact really shows the failure —
    ``python -m repro.obs export seed-N.obs.json`` turns it into a
    Perfetto-loadable trace.
    """
    observed = run_check(result.config, schedule=result.schedule,
                         observe=True)
    if observed.obs is None:
        return None
    path = os.path.join(directory,
                        f"seed-{result.config.seed}.obs.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(observed.obs, stream, sort_keys=True,
                  separators=(",", ":"))
        stream.write("\n")
    return path


def _cmd_fuzz(namespace: argparse.Namespace) -> int:
    base = _config_from(namespace, seed=0)
    seeds = range(namespace.start, namespace.start + namespace.seeds)
    checked = 0

    def progress(result: CheckResult) -> None:
        nonlocal checked
        checked += 1
        if not result.ok:
            print(f"seed {result.config.seed}: "
                  f"{len(result.violations)} violation(s)", flush=True)
        elif checked % 25 == 0:
            print(f"... {checked}/{namespace.seeds} seeds clean",
                  flush=True)

    witnesses = 0

    def progress_with_witnesses(result: CheckResult) -> None:
        nonlocal witnesses
        witnesses += int(result.stats.get("atomicity_witnesses", 0.0))
        progress(result)

    if namespace.jobs == 0:
        from repro.harness.parallel import default_pool_size
        namespace.jobs = default_pool_size()
    failures = fuzz_sweep(
        seeds, base,
        on_result=(progress_with_witnesses if namespace.atomicity
                   else progress),
        processes=namespace.jobs, atomicity=namespace.atomicity)
    if namespace.atomicity:
        # Witnesses are diagnostic, not failures: they show which
        # guarded fields actually mutated across suspensions (see
        # repro.check.atomicity).
        print(f"atomicity: {witnesses} cross-yield mutation witness(es) "
              f"on the guarded watchlist")
    if not failures:
        print(f"OK: {namespace.seeds} seeds, no invariant violations")
        return 0
    print(f"\nFAIL: {len(failures)}/{namespace.seeds} seeds violated "
          "invariants\n")
    for failure in failures:
        if namespace.no_shrink:
            final = failure
        else:
            shrunk = shrink(failure)
            final = shrunk.result
            print(f"seed {failure.config.seed}: shrunk to "
                  f"{final.config.n_txns} txn(s) / "
                  f"{len(final.schedule)} fault(s) "
                  f"in {shrunk.runs} runs")
        print(final.report())
        if namespace.out:
            path = _save_trace(namespace.out, final)
            print(f"trace written to {path}")
            obs_path = _save_obs(namespace.out, final)
            if obs_path:
                print(f"obs artifact written to {obs_path} "
                      f"(python -m repro.obs export {obs_path})")
        print()
    return 1


def _cmd_replay(namespace: argparse.Namespace) -> int:
    config = _config_from(namespace, seed=namespace.seed)
    result = run_check(config)
    print(f"seed {config.seed}: {int(result.stats['started'])} txns "
          f"({int(result.stats['committed'])} committed, "
          f"{int(result.stats['aborted'])} aborted), "
          f"{int(result.stats['events'])} events over "
          f"{result.stats['virtual_ms']:.0f} virtual ms")
    if "fast_chosen" in result.stats:
        print(f"fast path: {int(result.stats['fast_chosen'])} fast-learned, "
              f"{int(result.stats['fallbacks'])} fallback(s) "
              f"({int(result.stats['collisions'])} collision(s))")
    print(f"history digest: {result.history.digest()}")
    print("fault schedule:")
    print(result.schedule.describe())
    if namespace.events:
        print(result.history.format())
    if result.ok:
        print("OK: all invariants hold")
        return 0
    print(result.report())
    return 1


def _cmd_list(_namespace: argparse.Namespace) -> int:
    for code, (description, _checker) in CHECKS.items():
        print(f"{code}  {description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="fuzz the MDCC simulation against protocol invariants")
    commands = parser.add_subparsers(dest="command", required=True)

    fuzz = commands.add_parser("fuzz", help="sweep seeds, check, shrink")
    fuzz.add_argument("--seeds", type=int, default=100,
                      help="number of seeds to run (default %(default)s)")
    fuzz.add_argument("--start", type=int, default=0,
                      help="first seed (default %(default)s)")
    fuzz.add_argument("--out", type=str, default=None,
                      help="directory for failing-trace files")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimizing them")
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the sweep "
                           "(0 = one per CPU; default %(default)s)")
    fuzz.add_argument("--atomicity", action="store_true",
                      help="install the yield-point atomicity sanitizer "
                           "(repro.check.atomicity) in every run and "
                           "report cross-yield mutation witnesses")
    _add_config_flags(fuzz)
    fuzz.set_defaults(handler=_cmd_fuzz)

    replay = commands.add_parser("replay", help="run one seed verbosely")
    replay.add_argument("--seed", type=int, required=True)
    replay.add_argument("--events", action="store_true",
                        help="dump the full event history")
    _add_config_flags(replay)
    replay.set_defaults(handler=_cmd_replay)

    listing = commands.add_parser("list", help="show the invariants")
    listing.set_defaults(handler=_cmd_list)

    namespace = parser.parse_args(argv)
    return namespace.handler(namespace)


if __name__ == "__main__":
    sys.exit(main())
