"""Batched aggregate load generation for million-client scale.

:class:`~repro.workload.load.OpenSystemLoad` models the open system
with one generator process and one heap event per arrival — faithful,
but at 10⁴ tx/s the kernel spends most of its time resuming the load
generator and re-drawing scalars one at a time.  ``AggregateLoad``
replaces that with *batch* scheduling: arrival times, item counts, key
indices, and read/write coin flips for a whole batch are drawn in a
handful of vectorized numpy calls, and the batch is delivered by one
cancelable kernel timer per arrival
(:meth:`repro.sim.Environment.arm_timer`), each armed from the
callback of the one before — no generator process, no heap event.
The issuer-facing behaviour is unchanged: each arrival still calls
:meth:`~repro.workload.load.TransactionIssuer.issue` (or
``issue_read``) at its exact simulated arrival time.

Batches are drawn from the seeded numpy twin stream
(:meth:`repro.sim.RandomStreams.numpy_generator`): the same
distributions as ``OpenSystemLoad``, a different (deterministic)
sample path, O(1) python work per arrival and O(batch) numpy work per
batch.  ``OpenSystemLoad`` stays the reference engine every
:class:`~repro.harness.Experiment` runs; this one serves load
generation at scales the per-client engine cannot reach.

With ``population`` set, every arrival is also attributed to one of
``population`` simulated users (uniformly, from a dedicated stream)
and a bitmap tracks which users have appeared — this is how the
``loadgen`` bench represents 10⁶ clients in ~1 MB instead of 10⁶
generator processes.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.sim import Environment, RandomStreams, Timer
from repro.workload.buying import BuyTransactionFactory
from repro.workload.load import PoissonArrivals, TransactionIssuer


class AggregateLoad:
    """Issues buy transactions at an aggregate rate, batch-scheduled.

    Drop-in alternative to :class:`OpenSystemLoad`: same constructor
    shape, same ``start``/``stop`` lifecycle, same ``issued`` /
    ``reads_issued`` counters, same :class:`TransactionIssuer`
    protocol on the far side.
    """

    def __init__(self, env: Environment, factory: BuyTransactionFactory,
                 issuer: TransactionIssuer, rate_tps: float,
                 streams: RandomStreams, name: str = "load",
                 arrivals: Optional[object] = None,
                 read_fraction: float = 0.0,
                 mode: str = "vectorized",
                 batch_size: int = 1024,
                 population: int = 0):
        if mode != "vectorized":
            raise ValueError(f"unknown aggregate mode {mode!r}")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if population < 0:
            raise ValueError("population must be >= 0")
        if not 0.0 <= read_fraction < 1.0:
            raise ValueError(f"read fraction {read_fraction} outside [0, 1)")
        if read_fraction > 0 and not hasattr(issuer, "issue_read"):
            raise ValueError(
                "issuer does not support read-only transactions")
        self.env = env
        self.factory = factory
        self.issuer = issuer
        self.arrivals = arrivals or PoissonArrivals(rate_tps)
        self.read_fraction = float(read_fraction)
        self.batch_size = int(batch_size)
        self.population = int(population)
        # Client attribution has its own stream so enabling it never
        # perturbs the arrival sequence.
        self._np_rng = streams.numpy_generator(f"load-{name}")
        self._client_rng = streams.numpy_generator(f"load-{name}-clients")
        self._clients_seen = (np.zeros(population, dtype=bool)
                              if population else None)
        self.issued = 0
        self.reads_issued = 0
        self._running = False
        self._finished = False
        self._deadline: Optional[float] = None
        self._next_time = 0.0
        #: The latest arrival armed; :meth:`stop` cancels it if pending.
        self._timer: Optional[Timer] = None
        # Current batch payload (parallel, indexed by arrival) and the
        # index of the arrival ``_timer`` stands for.
        self._times: List[float] = []
        self._writes: List[list] = []
        self._hot: Any = ()
        self._reads: Any = None
        self._index = 0

    # -- lifecycle ----------------------------------------------------

    def start(self, duration_ms: Optional[float] = None) -> None:
        """Begin issuing; stops after ``duration_ms`` (or on stop())."""
        if self._running:
            raise RuntimeError("load generator already running")
        self._running = True
        self._finished = False
        self._next_time = self.env.now
        self._deadline = (self.env.now + duration_ms
                          if duration_ms is not None else None)
        self._begin_batch()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def distinct_clients(self) -> int:
        """How many of the ``population`` users have issued so far."""
        if self._clients_seen is None:
            return 0
        return int(self._clients_seen.sum())

    # -- batch construction -------------------------------------------

    def _load_batch(self) -> int:
        """Draw the next batch into the payload arrays; return size."""
        n = self._draw()
        if n and self._clients_seen is not None:
            clients = self._client_rng.integers(
                0, self.population, size=n)
            self._clients_seen[clients] = True
        return n

    def _draw(self) -> int:
        np_rng = self._np_rng
        timed = getattr(self.arrivals, "batch_interarrivals_at", None)
        if timed is not None:
            gaps = timed(np_rng, self.batch_size, self._next_time)
        else:
            gaps = self.arrivals.batch_interarrivals(np_rng, self.batch_size)
        times = np.cumsum(gaps)
        times += self._next_time
        if self._deadline is not None:
            keep = int(np.searchsorted(times, self._deadline, side="left"))
            if keep < times.shape[0]:
                self._finished = True
                times = times[:keep]
        n = times.shape[0]
        if n:
            self._next_time = float(times[-1])
            self._writes, self._hot = self.factory.build_batch(np_rng, n)
            self._reads = (np_rng.random(n) < self.read_fraction
                           if self.read_fraction else None)
        else:
            self._writes, self._hot, self._reads = [], (), None
        # Plain floats: the kernel clock takes these values as they are.
        self._times = times.tolist()
        return n

    # -- delivery -----------------------------------------------------

    def _issue(self, index: int) -> None:
        if self._reads is not None and self._reads[index]:
            self.issuer.issue_read(  # type: ignore[attr-defined]
                [op.key for op in self._writes[index]])
            self.reads_issued += 1
        else:
            self.issuer.issue(self._writes[index], bool(self._hot[index]))
            self.issued += 1

    def _begin_batch(self) -> None:
        """Draw a batch and arm its first arrival."""
        if self._load_batch() == 0:
            self._running = False
            return
        self._index = 0
        self._timer = self.env.arm_timer(self._times[0], self._fire)

    def _fire(self) -> None:
        """Timer callback: one arrival; arms the next."""
        index = self._index
        self._issue(index)
        if not self._running:
            return  # the issuer stopped the load
        index += 1
        if index < len(self._times):
            self._index = index
            self._timer = self.env.arm_timer(self._times[index], self._fire)
        elif self._finished:
            self._running = False
        else:
            self._begin_batch()
