"""The PLANET transaction programming model (§3 and §4.1).

A :class:`PlanetSession` wraps an MDCC client (transaction manager)
together with the commit-likelihood model, an admission-control
policy, and the remote-callback service.  :meth:`PlanetSession.transaction`
returns a :class:`Tx` builder mirroring Listing 2 of the paper::

    tx = (session.transaction(writes, timeout_ms=300)
          .on_failure(show_error)
          .on_accept(show_thanks)
          .on_complete(show_result, threshold=0.90)
          .finally_callback(update_page)
          .finally_callback_remote(send_email))
    planet_tx = tx.execute()

Within the timeout exactly one stage block runs — the latest defined
block the transaction's progress has reached (Figure 2); the finally
callbacks run whenever the outcome becomes known.  The generalized
model replaces the staged blocks with ``on_progress``, whose handler
may return :data:`FINISH_TX` to regain the thread of control
(Listing 5).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.admission import AdmissionPolicy, NoAdmission
from repro.core.callbacks import RemoteCallbackService
from repro.core.likelihood import CommitLikelihoodModel
from repro.core.states import FINISH_TX, TxInfo, TxState
from repro.mdcc.coordinator import TransactionHandle, TransactionManager
from repro.sim import Environment, Event, Timer
from repro.storage.option import Decision
from repro.storage.record import WriteOp

Callback = Callable[[TxInfo], None]


class PlanetSession:
    """One application client speaking the PLANET model.

    Parameters
    ----------
    model:
        A precomputed :class:`CommitLikelihoodModel`; without one,
        likelihoods default to 1.0 (no speculation, no admission
        rejections) — useful for PLANET's staged callbacks alone.
    admission:
        The admission-control policy (default: attempt everything).
    remote_service:
        Shared :class:`RemoteCallbackService` for at-least-once remote
        finally callbacks; created privately when omitted.
    statistics:
        Optional :class:`~repro.core.statistics.StatisticsService`; when
        given, transaction sizes are registered with it (§5.2.2).
    """

    def __init__(self, cluster, name: str, datacenter: int,
                 model: Optional[CommitLikelihoodModel] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 remote_service: Optional[RemoteCallbackService] = None,
                 statistics=None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.name = name
        self.datacenter = datacenter
        self.tm: TransactionManager = cluster.create_client(name, datacenter)
        self.model = model
        self.admission = admission or NoAdmission()
        self.remote_service = remote_service or RemoteCallbackService(
            self.env, cluster.streams)
        self.statistics = statistics
        self.rng = cluster.streams.get(f"planet-session-{name}")
        self.crashed = False
        #: All transactions ever executed through this session.
        self.transactions: List["PlanetTransaction"] = []

    def transaction(self, writes: Sequence[WriteOp], timeout_ms: float,
                    read_keys: Optional[Sequence[str]] = None,
                    think_time_ms: float = 0.0) -> "Tx":
        """Build a PLANET transaction (Listing 2's ``new Tx(300ms)``)."""
        return Tx(self, writes, timeout_ms, read_keys=read_keys,
                  think_time_ms=think_time_ms)

    def crash(self) -> None:
        """Simulate application-server failure.

        Local finally callbacks of in-flight transactions are lost
        (at-most-once); remote finally callbacks still fire through the
        cluster-side service (at-least-once).
        """
        self.crashed = True

    def read(self, keys: Sequence[str], as_of_ms=None):
        """Read-committed reads of ``keys`` from the local replicas.

        Returns a kernel event that fires with ``{key: ReadReply}`` —
        the read side of the workload the paper calls orthogonal to
        the programming model (reads never conflict and never wait on
        pending options).  ``as_of_ms`` requests a point-in-time read
        (see :meth:`TransactionManager.read_only`).
        """
        return self.tm.read_only(keys, as_of_ms=as_of_ms)

    def estimate_commit_time(self, writes: Sequence[WriteOp],
                             percentile: float = 0.5) -> float:
        """Predicted commit latency (ms) for a write set.

        Uses the likelihood model's per-leader quorum estimates — the
        "estimated duration" statistic of §5.2 — e.g. to choose a
        sensible timeout before executing.  Requires a precomputed
        model.
        """
        if self.model is None:
            raise RuntimeError("session has no likelihood model")
        leaders = [self.cluster.leader_dc(op.key) for op in writes]
        if not leaders:
            raise ValueError("a transaction needs at least one write")
        pmf = self.model.commit_time_pmf(self.datacenter, leaders)
        return pmf.quantile(percentile)

    def suggest_timeout(self, writes: Sequence[WriteOp],
                        confidence: float = 0.99,
                        margin: float = 1.25) -> float:
        """A timeout that the commit should beat with ``confidence``.

        The paper leaves timeout choice to user studies; this helper
        grounds it in the measured latency distributions instead:
        the ``confidence`` quantile of the predicted commit time, padded
        by ``margin`` for processing slack.
        """
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        return self.estimate_commit_time(writes,
                                         percentile=confidence) * margin


class Tx:
    """Builder for one PLANET transaction (the fluent API of §2.3)."""

    def __init__(self, session: PlanetSession, writes: Sequence[WriteOp],
                 timeout_ms: float,
                 read_keys: Optional[Sequence[str]] = None,
                 think_time_ms: float = 0.0):
        if timeout_ms <= 0:
            raise ValueError("timeout must be positive (inf is allowed)")
        self.session = session
        self.writes = list(writes)
        self.timeout_ms = float(timeout_ms)
        self.read_keys = list(read_keys) if read_keys is not None else None
        self.think_time_ms = float(think_time_ms)
        self._on_failure: Optional[Callback] = None
        self._on_accept: Optional[Callback] = None
        self._on_complete: Optional[Callback] = None
        self._complete_threshold: Optional[float] = None
        self._on_progress: Optional[Callable] = None
        self._finally: Optional[Callback] = None
        self._finally_remote: Optional[Callback] = None

    # -- stage blocks (simplified model, §3) ---------------------------------

    def on_failure(self, callback: Callback) -> "Tx":
        """Runs at the timeout when nothing is known (required)."""
        self._on_failure = callback
        return self

    def on_accept(self, callback: Callback) -> "Tx":
        """Runs when the transaction is accepted (will not be lost)."""
        self._on_accept = callback
        return self

    def on_complete(self, callback: Callback,
                    threshold: Optional[float] = None) -> "Tx":
        """Runs when the outcome is known before the timeout.

        With ``threshold`` P < 1.0 the block runs *speculatively* as
        soon as the commit likelihood reaches P (§3.2); the state is
        then ``SPEC_COMMITTED`` and a finally callback later reports
        the true outcome.
        """
        if threshold is not None and not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside (0, 1]")
        self._on_complete = callback
        self._complete_threshold = threshold
        return self

    # -- generalized model (§4.1) ----------------------------------------------

    def on_progress(self, callback: Callable) -> "Tx":
        """Install a generalized progress handler (exclusive with the
        staged blocks).  The handler receives a :class:`TxInfo` on
        every state change and may return :data:`FINISH_TX`."""
        self._on_progress = callback
        return self

    # -- finally callbacks (§3.3) --------------------------------------------------

    def finally_callback(self, callback: Callback) -> "Tx":
        """Local at-most-once notification of the final outcome."""
        self._finally = callback
        return self

    def finally_callback_remote(self, callback: Callback) -> "Tx":
        """Web-service-style at-least-once notification."""
        self._finally_remote = callback
        return self

    # -- execution ------------------------------------------------------------------

    def execute(self) -> "PlanetTransaction":
        """Validate the block combination and launch the transaction."""
        if self._on_progress is not None:
            if (self._on_failure or self._on_accept or self._on_complete):
                raise ValueError(
                    "on_progress (generalized model) cannot be combined "
                    "with the simplified stage blocks")
        elif self._on_failure is None:
            raise ValueError("the on_failure stage block is required (§3.1)")
        transaction = PlanetTransaction(self)
        self.session.transactions.append(transaction)
        transaction._start()
        return transaction


class PlanetTransaction:
    """A running (then finished) PLANET transaction.

    Exposes both the programming-model events and the bookkeeping the
    experiment harness reads:

    * ``closed_event`` — fires when the application regains control
      (a stage block ran, or ``on_progress`` returned FINISH_TX);
    * ``final_event`` — fires when the true outcome is known and the
      finally callbacks have been dispatched;
    * outcome fields (``state``, ``spec_committed``, ``admitted``,
      timestamps) documented inline.
    """

    def __init__(self, tx: Tx):
        self.tx = tx
        self.session = tx.session
        self.env: Environment = tx.session.env
        self.start_ms: float = self.env.now
        self.closed_event: Event = self.env.event()
        self.final_event: Event = self.env.event()
        self.state: TxState = TxState.UNKNOWN
        self.handle: Optional[TransactionHandle] = None
        #: None until admission runs; then True/False.
        self.admitted: Optional[bool] = None
        self.initial_likelihood: Optional[float] = None
        self.current_likelihood: float = 1.0
        self.returned = False
        self.stage_fired: Optional[str] = None
        self.stage_fired_ms: Optional[float] = None
        self.timeout_expired = False
        self.spec_committed = False
        self.spec_fired_ms: Optional[float] = None
        self.decided_ms: Optional[float] = None
        self.committed: Optional[bool] = None
        self._factors: Dict[str, float] = {}
        self._finished = False
        #: Timer guarding the client deadline; cancelled once the
        #: transaction has both finished and fired its user stage, so a
        #: fast commit never leaves a dead timeout on the kernel.
        self._deadline_timer: Optional[Timer] = None

    # -- public accounting ------------------------------------------------------

    @property
    def txid(self) -> str:
        return self.handle.txid if self.handle is not None else "(unstarted)"

    @property
    def elapsed_ms(self) -> float:
        return self.env.now - self.start_ms

    @property
    def commit_response_ms(self) -> Optional[float]:
        """User-perceived commit latency: speculative report if one
        was made, otherwise the real decision time."""
        if self.spec_fired_ms is not None:
            return self.spec_fired_ms - self.start_ms
        if self.decided_ms is not None:
            return self.decided_ms - self.start_ms
        return None

    @property
    def spec_incorrect(self) -> bool:
        """A speculative commit later contradicted by an abort."""
        return self.spec_committed and self.committed is False

    def info(self, stage: str = "") -> TxInfo:
        rejected = ()
        if self.handle is not None and self.handle.result is not None:
            rejected = tuple(self.handle.result.rejected_keys)
        return TxInfo(txid=self.txid, state=self.state,
                      commit_likelihood=self.current_likelihood,
                      timed_out=self.timeout_expired,
                      elapsed_ms=self.elapsed_ms, stage=stage,
                      rejected_keys=rejected)

    # -- lifecycle ------------------------------------------------------------------

    def _start(self) -> None:
        tx = self.tx
        if self.session.statistics is not None:
            self.session.statistics.record_transaction_size(len(tx.writes))
        self.handle = self.session.tm.begin(
            tx.writes, read_keys=tx.read_keys,
            think_time_ms=tx.think_time_ms, gate_after_reads=True)
        self.handle.progress_hooks.append(self._on_tm_event)
        if math.isfinite(tx.timeout_ms):
            self._deadline_timer = self.env.arm_timer(
                self.env.now + tx.timeout_ms, self._on_deadline)

    def _maybe_cancel_deadline(self) -> None:
        """Drop the deadline timer once it can no longer matter."""
        timer = self._deadline_timer
        if timer is not None and self._finished and self.returned:
            timer.cancel()
            self._deadline_timer = None

    def _on_deadline(self) -> None:
        """Timer callback: the client deadline passed."""
        self._deadline_timer = None
        if self._finished and self.returned:
            return
        self.timeout_expired = True
        if self.tx._on_progress is not None:
            self._notify_progress("timeout")
            return
        if self.returned:
            return
        # Figure 2: run the latest defined stage the progress reached.
        if self.state is TxState.ACCEPTED and self.tx._on_accept is not None:
            self._fire_stage("accept", self.tx._on_accept)
        else:
            self._fire_stage("failure", self.tx._on_failure)

    # -- TM event plumbing -----------------------------------------------------------

    def _on_tm_event(self, stage: str, handle: TransactionHandle) -> None:
        if stage == "reads_done":
            self._after_reads(handle)
        elif stage == "accepted":
            self._after_accepted()
        elif stage == "learned":
            self._after_learned(handle)
        elif stage == "decided":
            self._after_decided(handle)

    def _after_reads(self, handle: TransactionHandle) -> None:
        model = self.session.model
        client_dc = self.session.datacenter
        for key, reply in handle.reads.items():
            if model is None:
                self._factors[key] = 1.0
            else:
                self._factors[key] = model.record_likelihood(
                    client_dc, reply.leader_dc, reply.arrival_rate,
                    w_ms=self.tx.think_time_ms)
        likelihood = 1.0
        for factor in self._factors.values():
            likelihood *= factor
        self.initial_likelihood = likelihood
        self.current_likelihood = likelihood
        self.admitted = self.session.admission.decide(
            likelihood, self.session.rng)
        metrics = self.env.metrics
        if metrics is not None:
            metrics.inc("planet.admission",
                        label="admitted" if self.admitted else "rejected")
            # Likelihoods live in [0, 1]: probability buckets, not the
            # registry's default latency buckets.
            metrics.histogram(
                "planet.likelihood",
                bounds=(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
            ).observe(likelihood)
        if not self.admitted:
            handle.gate.succeed(False)
            self._finish_rejected()
            return
        handle.gate.succeed(True)
        self._notify_progress("likelihood")
        self._maybe_spec_commit()

    def _after_accepted(self) -> None:
        if not self.state.is_final and self.state is not TxState.SPEC_COMMITTED:
            self.state = TxState.ACCEPTED
        self._notify_progress("accepted")
        # §3.1: with onComplete undefined, onAccept runs immediately at
        # acceptance instead of waiting for the timeout.
        if (self.tx._on_progress is None and not self.returned
                and not self.timeout_expired
                and self.tx._on_complete is None
                and self.tx._on_accept is not None):
            self._fire_stage("accept", self.tx._on_accept)

    def _after_learned(self, handle: TransactionHandle) -> None:
        self._recompute_likelihood(handle)
        self._notify_progress("learned")
        self._maybe_spec_commit()

    def _recompute_likelihood(self, handle: TransactionHandle) -> None:
        if any(decision is Decision.REJECTED
               for decision in handle.learned.values()):
            self.current_likelihood = 0.0
            return
        likelihood = 1.0
        for key in handle.unlearned_keys:
            likelihood *= self._factors.get(key, 1.0)
        self.current_likelihood = likelihood

    def _maybe_spec_commit(self) -> None:
        threshold = self.tx._complete_threshold
        if (self.tx._on_progress is not None or threshold is None
                or threshold >= 1.0):
            return
        if (self.returned or self.timeout_expired or self._finished
                or self.current_likelihood < threshold):
            return
        if self.handle is not None and not self.handle.unlearned_keys:
            # Every option is already learned: the real decision is
            # being delivered this instant — that is a normal commit,
            # not a speculation.
            return
        self.spec_committed = True
        self.spec_fired_ms = self.env.now
        self.state = TxState.SPEC_COMMITTED
        if self.env.metrics is not None:
            self.env.metrics.inc("planet.spec_commit")
        self._fire_stage("complete", self.tx._on_complete)

    def _after_decided(self, handle: TransactionHandle) -> None:
        result = handle.result
        self.decided_ms = self.env.now
        self.committed = result.committed
        self.state = TxState.COMMITTED if result.committed else TxState.ABORTED
        self.current_likelihood = 1.0 if result.committed else 0.0
        self._notify_progress("decided")
        if (self.tx._on_progress is None and not self.returned
                and not self.timeout_expired
                and self.tx._on_complete is not None):
            self._fire_stage("complete", self.tx._on_complete)
        self._finish()

    # -- terminal paths ---------------------------------------------------------------

    def _finish_rejected(self) -> None:
        """Admission control turned the transaction away (§4.2)."""
        self.state = TxState.REJECTED
        self.current_likelihood = 0.0
        self.committed = False
        self.decided_ms = self.env.now
        self._notify_progress("rejected")
        if self.tx._on_progress is None and not self.returned:
            # The outcome is known immediately: deliver it through the
            # latest defined closure-capable block.
            if self.tx._on_complete is not None:
                self._fire_stage("complete", self.tx._on_complete)
            else:
                self._fire_stage("failure", self.tx._on_failure)
        self._finish()

    def _fire_stage(self, stage: str, callback: Optional[Callback]) -> None:
        self.returned = True
        self.stage_fired = stage
        self.stage_fired_ms = self.env.now
        if self.env.metrics is not None:
            self.env.metrics.inc("planet.stage_fired", label=stage)
        self._maybe_cancel_deadline()
        info = self.info(stage=stage)
        if not self.closed_event.triggered:
            self.closed_event.succeed(info)
        if callback is not None:
            callback(info)

    def _notify_progress(self, stage: str) -> None:
        handler = self.tx._on_progress
        if handler is None:
            return
        outcome = handler(self.info(stage=stage))
        if outcome is FINISH_TX and not self.returned:
            self.returned = True
            self.stage_fired = "progress"
            self.stage_fired_ms = self.env.now
            self._maybe_cancel_deadline()
            if not self.closed_event.triggered:
                self.closed_event.succeed(self.info(stage="progress"))

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._maybe_cancel_deadline()
        if self.env.metrics is not None and self.spec_incorrect:
            self.env.metrics.inc("planet.spec_incorrect")
        # Feedback for adaptive admission policies (probing baselines).
        admission = self.session.admission
        if (self.admitted and self.committed is not None
                and hasattr(admission, "observe_outcome")):
            admission.observe_outcome(self.committed)
        info = self.info(stage="finally")
        if self.tx._finally is not None and not self.session.crashed:
            self.tx._finally(info)
        if self.tx._finally_remote is not None:
            self.session.remote_service.submit(self.tx._finally_remote, info)
        if not self.final_event.triggered:
            self.final_event.succeed(info)
