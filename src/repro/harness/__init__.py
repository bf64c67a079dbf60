"""Experiment harness: configuration, execution, metrics, and reports.

One :class:`Experiment` reproduces one experimental run of the paper's
§6: it assembles the cluster, statistics, likelihood model, and load
generator from an :class:`ExperimentConfig`, runs warmup + measurement
windows in virtual time, and returns an :class:`ExperimentResult`
whose :class:`MetricsCollector` exposes the series each figure plots.
"""

from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    TenantSpec,
)
from repro.harness.report import (
    format_table,
    print_table,
    render_bars,
    render_curves,
)
from repro.harness.parallel import (
    default_pool_size,
    parallel_map,
    run_experiments,
)
from repro.obs.monitor import ClusterSnapshot, HealthMonitor, snapshot
from repro.obs.txmetrics import MetricsCollector, TxRecord
from repro.obs.txtrace import TransactionTrace, TransactionTracer

__all__ = [
    "ClusterSnapshot",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "HealthMonitor",
    "MetricsCollector",
    "TenantSpec",
    "TransactionTrace",
    "TransactionTracer",
    "TxRecord",
    "default_pool_size",
    "format_table",
    "parallel_map",
    "print_table",
    "render_bars",
    "render_curves",
    "run_experiments",
    "snapshot",
]
