"""The client-side transaction manager for the MDCC classic protocol.

One :class:`TransactionManager` lives in each application client and
multiplexes that client's transactions over a single RPC endpoint.
A transaction proceeds through the paper's Figure 4 sequence:

1. read every record from the local replica (read-committed);
2. local processing time *w*;
3. propose one option per write to each record's leader;
4. the first ``proposal_ack`` marks the transaction *accepted*;
5. once every option is ``learned``, the outcome is decided
   (commit iff all accepted) — the client may move on;
6. a commit/abort visibility message is sent to every replica.

The :class:`TransactionHandle` exposes kernel events and progress
hooks so PLANET (or the baseline model) can observe each stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.rpc import RpcEndpoint, RpcTimeout
from repro.paxos import Ballot, FastPhase2a, FastRound, ballot_key
from repro.paxos.fast import FastRoundOutcome
from repro.sim import AllOf, Environment, Event
from repro.storage.option import (
    Decision,
    Learned,
    OptionPayload,
    ProposalAck,
    Propose,
    ReadReply,
    ReadRequest,
    Visibility,
)
from repro.storage.record import WriteOp


@dataclass
class TransactionResult:
    """Final outcome and timeline of one transaction (virtual ms)."""

    txid: str
    committed: bool
    start_ms: float
    accepted_ms: Optional[float]
    decided_ms: float
    rejected_keys: List[str] = field(default_factory=list)

    @property
    def response_time_ms(self) -> float:
        """Client-perceived commit latency: start to decision."""
        return self.decided_ms - self.start_ms


class TransactionHandle:
    """Live view of an executing transaction.

    Attributes
    ----------
    accepted_event:
        Fires (once) when the first storage node confirms a proposal.
    decided_event:
        Fires with the :class:`TransactionResult` when the outcome is
        known.  Never fails; it simply may not fire if the network
        wedges the commit (callers race it with their own timeout).
    progress_hooks:
        Callables invoked as ``hook(stage, handle)`` with stage in
        ``{"reads_done", "proposed", "accepted", "learned",
        "decided"}`` — the raw material for PLANET's onProgress.
    """

    def __init__(self, env: Environment, txid: str,
                 writes: Sequence[WriteOp]):
        self.env = env
        self.txid = txid
        self.writes = list(writes)
        self.accepted_event: Event = env.event()
        self.decided_event: Event = env.event()
        self.progress_hooks: List[Callable[[str, "TransactionHandle"], None]] = []
        self.reads: Dict[str, ReadReply] = {}
        self.learned: Dict[str, Decision] = {}
        self.start_ms: float = env.now
        self.accepted_ms: Optional[float] = None
        self.proposed_ms: Optional[float] = None
        self.w_ms: Optional[float] = None
        self.result: Optional[TransactionResult] = None
        #: Set by begin(gate_after_reads=True): succeed with True to
        #: proceed past the read phase, False to cancel unproposed.
        self.gate: Optional[Event] = None
        #: The transaction's stage chain (a
        #: :class:`repro.obs.spans.TxSpanSet`) when span tracing is
        #: installed on the kernel; ``None`` otherwise.
        self.obs: Optional[Any] = None

    @property
    def write_keys(self) -> List[str]:
        return [op.key for op in self.writes]

    @property
    def unlearned_keys(self) -> List[str]:
        return [key for key in self.write_keys if key not in self.learned]

    @property
    def accepted(self) -> bool:
        return self.accepted_ms is not None

    @property
    def decided(self) -> bool:
        return self.result is not None

    def _notify(self, stage: str) -> None:
        for hook in list(self.progress_hooks):
            hook(stage, self)


class TransactionManager:
    """Runs MDCC transactions on behalf of one application client."""

    def __init__(self, env: Environment, transport, address: str,
                 datacenter: int, cluster_view, mode: str = "classic",
                 round_timeout_ms: Optional[float] = None):
        if mode not in ("classic", "fast"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        # Per-instance so txids are reproducible across runs in one
        # process; the address prefix keeps them globally unique.
        self._ids = itertools.count(1)
        self.env = env
        self.address = address
        self.datacenter = datacenter
        self.cluster = cluster_view
        self.mode = mode
        #: Deadline for the Paxos rounds this TM starts (classic and
        #: fast).  Rounds arm it on the cancelable timer queue and a
        #: decided round cancels it — the common case schedules no heap
        #: event, and the transaction-level deadline in
        #: :class:`repro.core.transaction.PlanetTx` rides the same
        #: queue.
        self.round_timeout_ms = round_timeout_ms
        self.endpoint = RpcEndpoint(env, transport, address, datacenter)
        self.endpoint.on("proposal_ack", self._on_proposal_ack)
        self.endpoint.on("learned", self._on_learned)
        self._active: Dict[str, TransactionHandle] = {}
        # Open classic-recovery spans keyed by (txid, key), started at
        # fast-round fallback and finished when the classic verdict is
        # learned.  Empty whenever span tracing is off.
        self._recovery_spans: Dict[tuple, Any] = {}
        #: Observability counters.
        self.started = 0
        self.committed = 0
        self.aborted = 0
        #: Fast-ballot counters (stay zero in classic mode).
        self.fast_chosen = 0
        self.fallbacks = 0
        self.collisions = 0

    # -- public API ----------------------------------------------------------

    def begin(self, writes: Sequence[WriteOp],
              read_keys: Optional[Sequence[str]] = None,
              think_time_ms: float = 0.0,
              gate_after_reads: bool = False) -> TransactionHandle:
        """Start a transaction; returns immediately with its handle.

        ``read_keys`` defaults to the write set (the buy transaction
        reads each item's stock before decrementing it).

        With ``gate_after_reads`` the transaction pauses after the read
        phase until ``handle.gate`` is succeeded with True (proceed to
        commit) or False (cancel without proposing) — the hook PLANET's
        admission control uses.
        """
        if not writes:
            raise ValueError("a transaction needs at least one write")
        txid = f"{self.address}#{next(self._ids)}"
        handle = TransactionHandle(self.env, txid, writes)
        if self.env.tracer is not None:
            self.env.trace("tx_begin", node=self.address, txid=txid,
                           keys=tuple(handle.write_keys))
        if self.env.spans is not None:
            handle.obs = self.env.spans.begin_tx(
                txid, self.address, self.env.now, handle.write_keys)
        if self.env.metrics is not None:
            self.env.metrics.inc("tx.started")
        if gate_after_reads:
            handle.gate = self.env.event()
        self._active[txid] = handle
        self.started += 1
        keys = list(read_keys) if read_keys is not None else handle.write_keys
        self.env.process(self._run(handle, keys, think_time_ms))
        return handle

    def read_only(self, keys: Sequence[str],
                  as_of_ms: Optional[float] = None) -> Event:
        """Read-committed reads from the local replicas (no commit).

        Returns an event that fires with ``{key: ReadReply}``.  Reads
        never block on pending options and never acquire any — they
        observe the latest *visible* versions, which is exactly the
        read-committed guarantee of the MDCC classic protocol.

        With ``as_of_ms`` every key is read as of the same local
        timestamp from the replica's bounded version history — a
        point-in-time snapshot of this data center's timeline (MDCC
        gives atomic durability, not atomic visibility, so the
        snapshot is per-replica).
        """
        if not keys:
            raise ValueError("need at least one key to read")
        if as_of_ms is not None and as_of_ms > self.env.now:
            raise ValueError("cannot read the future")
        result = self.env.event()
        self.env.process(self._run_reads(list(keys), as_of_ms, result))
        return result

    def _run_reads(self, keys: List[str], as_of_ms: Optional[float],
                   result: Event):
        calls = [
            self.endpoint.call(
                self.cluster.local_replica_address(self.datacenter, key),
                "read", ReadRequest(key=key, as_of_ms=as_of_ms))
            for key in keys
        ]
        replies = yield AllOf(self.env, calls)
        if not result.triggered:
            result.succeed({reply.key: reply
                            for reply in replies.values()})

    # -- transaction process -----------------------------------------------------

    def _run(self, handle: TransactionHandle, read_keys: Sequence[str],
             think_time_ms: float):
        read_start = self.env.now
        # 1. Read phase: all reads go to this DC's replicas in parallel.
        if read_keys:
            read_span = handle.obs.ctx if handle.obs is not None else None
            calls = [
                self.endpoint.call(
                    self.cluster.local_replica_address(self.datacenter, key),
                    "read", ReadRequest(key=key), span=read_span)
                for key in read_keys
            ]
            replies = yield AllOf(self.env, calls)
            for reply in replies.values():
                handle.reads[reply.key] = reply
        handle._notify("reads_done")

        if handle.gate is not None:
            proceed = yield handle.gate
            if not proceed:
                del self._active[handle.txid]
                self.started -= 1  # never attempted
                if handle.obs is not None:
                    handle.obs.cancelled(self.env.now)
                if self.env.metrics is not None:
                    self.env.metrics.inc("tx.cancelled")
                handle._notify("cancelled")
                return

        # Admission stage ends here: reads done and (when gated) the
        # admission decision taken.  Think time and option fan-out
        # belong to the propose stage.
        if handle.obs is not None:
            handle.obs.advance("propose", self.env.now)

        # 2. Local processing time between read and commit start.
        if think_time_ms > 0:
            yield self.env.timeout(think_time_ms)

        # 3. Propose one option per write.  Classic mode routes through
        #    each record's leader; fast mode proposes straight to every
        #    acceptor under a fast quorum (one fewer message delay).
        #    The measured w of §5.1.2 is read-request to commit start.
        handle.proposed_ms = self.env.now
        handle.w_ms = self.env.now - read_start
        propose_span = handle.obs.ctx if handle.obs is not None else None
        if self.mode == "fast":
            for op in handle.writes:
                self._start_fast_round(handle, op, propose_span)
        else:
            for op in handle.writes:
                leader = self.cluster.leader_address(op.key)
                if self.env.tracer is not None:
                    self.env.trace("propose", node=self.address,
                                   txid=handle.txid, key=op.key,
                                   leader=leader)
                self.endpoint.cast(leader, "propose", Propose(
                    txid=handle.txid, key=op.key, update=op.update,
                    tm_address=self.address), span=propose_span)
        # Options are in flight: the accept stage runs until the first
        # proposal_ack (classic) or fast vote comes back.
        if handle.obs is not None:
            handle.obs.advance("accept", self.env.now)
        handle._notify("proposed")

    # -- fast-ballot path -------------------------------------------------------

    def _start_fast_round(self, handle: TransactionHandle, op: WriteOp,
                          propose_span) -> None:
        ballot = Ballot.fast(0)
        replicas = self.cluster.replica_addresses(op.key)
        if self.env.tracer is not None:
            self.env.trace("fast_propose", node=self.address,
                           txid=handle.txid, key=op.key,
                           ballot=ballot_key(ballot),
                           n_replicas=len(replicas))
        payload = OptionPayload(txid=handle.txid, key=op.key,
                                update=op.update, decision=None)
        fast2a = FastPhase2a(key=op.key, ballot=ballot, payload=payload)
        round_ = FastRound(
            self.env, self.endpoint, replicas, fast2a,
            timeout_ms=self.round_timeout_ms, parent_span=propose_span,
            on_first_vote=lambda: self._mark_accepted(handle, op.key))
        self.env.process(self._finish_fast_round(round_, handle, op))

    def _finish_fast_round(self, round_: FastRound,
                           handle: TransactionHandle, op: WriteOp):
        outcome: FastRoundOutcome = yield round_.result
        if handle.txid not in self._active or op.key in handle.learned:
            return  # decided meanwhile (e.g. another key's reject)
        if outcome.status in ("chosen", "rejected"):
            decision = (Decision.ACCEPTED if outcome.status == "chosen"
                        else Decision.REJECTED)
            self.fast_chosen += 1
            if self.env.tracer is not None:
                self.env.trace("fast_chosen", node=self.address,
                               txid=handle.txid, key=op.key,
                               seq=outcome.seq, decision=decision.value,
                               votes=outcome.votes)
            if self.env.metrics is not None:
                self.env.metrics.inc("paxos.fast_chosen",
                                     label=decision.value)
            self._record_learned(handle, op.key, decision)
            return
        # Fallback: recover through the record master's classic path.
        self.fallbacks += 1
        if outcome.reason == "collision":
            self.collisions += 1
        if self.env.tracer is not None:
            self.env.trace("fast_fallback", node=self.address,
                           txid=handle.txid, key=op.key,
                           reason=outcome.reason, votes=outcome.votes,
                           fenced=outcome.fenced)
        if self.env.metrics is not None:
            self.env.metrics.inc("paxos.fallbacks", label=outcome.reason)
            if outcome.reason == "collision":
                self.env.metrics.inc("paxos.collisions")
        span_ctx = None
        if self.env.spans is not None and handle.obs is not None:
            span = self.env.spans.child(
                handle.obs.ctx, "paxos.recovery", self.address,
                self.env.now, f"{handle.txid}/{op.key}",
                txid=handle.txid, key=op.key, reason=outcome.reason)
            self._recovery_spans[(handle.txid, op.key)] = span
            span_ctx = span.ctx
        leader = self.cluster.leader_address(op.key)
        if self.env.tracer is not None:
            self.env.trace("propose", node=self.address,
                           txid=handle.txid, key=op.key, leader=leader)
        self.endpoint.cast(leader, "propose", Propose(
            txid=handle.txid, key=op.key, update=op.update,
            tm_address=self.address, fallback=True), span=span_ctx)

    def _mark_accepted(self, handle: TransactionHandle, key: str) -> None:
        """First storage-node confirmation (ack or fast vote) arrived."""
        if handle.txid not in self._active or handle.accepted_ms is not None:
            return
        handle.accepted_ms = self.env.now
        if self.env.tracer is not None:
            self.env.trace("tx_accepted", node=self.address,
                           txid=handle.txid, key=key)
        if handle.obs is not None:
            handle.obs.advance("learn", self.env.now)
        if not handle.accepted_event.triggered:
            handle.accepted_event.succeed(handle)
        handle._notify("accepted")

    def _record_learned(self, handle: TransactionHandle, key: str,
                        decision: Decision) -> None:
        """Record one key's verdict and decide once all are in."""
        handle.learned[key] = decision
        span = self._recovery_spans.pop((handle.txid, key), None)
        if span is not None:
            span.finish(self.env.now, decision=decision.value)
        if self.env.tracer is not None:
            self.env.trace("tx_learned", node=self.address,
                           txid=handle.txid, key=key,
                           decision=decision.value)
        handle._notify("learned")
        if not handle.unlearned_keys:
            self._decide(handle)

    # -- message handlers ------------------------------------------------------------

    def _on_proposal_ack(self, ack: ProposalAck, src: str):
        handle = self._active.get(ack.txid)
        if handle is not None:
            self._mark_accepted(handle, ack.key)
        return RpcEndpoint.NO_REPLY

    def _on_learned(self, learned: Learned, src: str):
        handle = self._active.get(learned.txid)
        if handle is None or learned.key in handle.learned:
            return RpcEndpoint.NO_REPLY
        self._record_learned(handle, learned.key, learned.decision)
        return RpcEndpoint.NO_REPLY

    def _decide(self, handle: TransactionHandle) -> None:
        rejected = [key for key, decision in handle.learned.items()
                    if decision is Decision.REJECTED]
        committed = not rejected
        handle.result = TransactionResult(
            txid=handle.txid, committed=committed,
            start_ms=handle.start_ms, accepted_ms=handle.accepted_ms,
            decided_ms=self.env.now, rejected_keys=rejected)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        if self.env.tracer is not None:
            self.env.trace("tx_decided", node=self.address,
                           txid=handle.txid, committed=committed,
                           keys=tuple(handle.write_keys))
        if self.env.metrics is not None:
            self.env.metrics.inc(
                "tx.decided", label="commit" if committed else "abort")
        # 6. Commit/abort visibility to every replica of every written
        #    record (accepted options must be applied or discarded
        #    everywhere; rejected ones left no pending state).  The
        #    message is idempotent, so it is retried until acknowledged
        #    — a lost visibility must not wedge a conflict window.
        updates = ({op.key: op.update for op in handle.writes}
                   if committed else None)
        visibility = Visibility(txid=handle.txid, keys=handle.write_keys,
                                commit=committed, updates=updates)
        addresses = list(
            self.cluster.all_replica_addresses(handle.write_keys))
        if handle.obs is not None:
            # Enter the visibility stage and arm its countdown before
            # the delivery processes start, so obs.ctx below is the
            # visibility-stage span.
            handle.obs.decided(self.env.now, committed)
            handle.obs.expect_visibility(len(addresses))
        for address in addresses:
            self.env.process(self._deliver_visibility(
                address, visibility, obs=handle.obs))
        del self._active[handle.txid]
        if not handle.decided_event.triggered:
            handle.decided_event.succeed(handle.result)
        handle._notify("decided")

    def _deliver_visibility(self, address: str, visibility: Visibility,
                            max_attempts: int = 10,
                            attempt_timeout_ms: float = 2_000.0,
                            obs: Optional[Any] = None):
        """At-least-once delivery of one replica's visibility message."""
        span = obs.ctx if obs is not None else None
        try:
            for _attempt in range(max_attempts):
                try:
                    yield self.endpoint.call(
                        address, "visibility", visibility,
                        timeout_ms=attempt_timeout_ms, span=span)
                    return
                except RpcTimeout:
                    continue
            # Give up: the replica is unreachable (durable partition);
            # it will hold the pending option until connectivity
            # returns.
        finally:
            # Counts down whether the delivery landed or gave up — a
            # partitioned replica must not hold the root span open.
            if obs is not None:
                obs.visibility_done(self.env.now)
