"""The storage-node server: replica, Paxos acceptor, and record leader.

One node exists per (data center, partition).  All nodes holding a
record form its replica group (one per data center); the node in the
record's *master* data center acts as the record leader and runs the
MDCC option rounds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.rpc import RpcEndpoint
from repro.net.transport import Transport
from repro.paxos import (
    AcceptorState,
    Ballot,
    FastPhase2a,
    PaxosRound,
    Phase2a,
    ballot_key,
    handle_fast2a,
    handle_phase2a,
)
from repro.paxos.round import PaxosRoundTimeout
from repro.sim import Environment
from repro.storage.access_stats import AccessRateTracker
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
from repro.storage.record import Record


class StorageNode:
    """A full-replica storage server for one partition in one DC.

    Parameters
    ----------
    replica_resolver:
        Callable mapping a record key to the addresses of all replicas
        of that key (one per data center), used for phase2a fan-out.
    leader_resolver:
        Callable mapping a key to the master data-center index; this
        node leads the keys whose master DC equals its own.
    """

    def __init__(self, env: Environment, transport: Transport, address: str,
                 datacenter: int,
                 replica_resolver: Callable[[str], List[str]],
                 leader_resolver: Callable[[str], int],
                 bucket_ms: float = 10_000.0, keep_buckets: int = 6,
                 round_timeout_ms: Optional[float] = None,
                 service_time_ms: float = 0.0,
                 service_overrides: Optional[Dict[str, float]] = None,
                 mode: str = "classic"):
        if mode not in ("classic", "fast"):
            raise ValueError(f"unknown protocol mode {mode!r}")
        self.env = env
        self.address = address
        self.datacenter = datacenter
        self.mode = mode
        self.endpoint = RpcEndpoint(env, transport, address, datacenter,
                                    service_time_ms=service_time_ms,
                                    service_overrides=service_overrides)
        self._replicas_of = replica_resolver
        self._leader_dc_of = leader_resolver
        self.records: Dict[str, Record] = {}
        #: When set, unknown keys materialize lazily with this value
        #: (version 1) — lets experiments use multi-hundred-thousand-row
        #: tables without preallocating every replica.
        self.default_value: Optional[Any] = None
        self.acceptors: Dict[str, AcceptorState] = {}
        self.access_stats = AccessRateTracker(
            bucket_ms=bucket_ms, keep_buckets=keep_buckets)
        #: Per-round deadline handed to every classic :class:`PaxosRound`
        #: this node starts.  The round arms it on the kernel's
        #: cancelable timer queue and cancels it when the quorum
        #: resolves, so rounds that finish on time (almost all of them)
        #: leave no dead timer behind on the event heap.
        self.round_timeout_ms = round_timeout_ms
        # Per-record leader ballots: takeovers raise them above the
        # previous leader's so its in-flight rounds are fenced out.
        self._ballots: Dict[str, Ballot] = {}
        self._default_ballot = Ballot(0, address)
        # Per-record proposal queues: one option round in flight per
        # record (its Multi-Paxos log is serial).
        self._proposal_queues: Dict[str, List[Propose]] = {}
        self._round_active: set = set()
        # Recently finalized txids: guards against message reordering
        # re-opening a decided transaction's pending state.
        self._finalized: Dict[str, None] = {}
        #: Optional provider consulted by the "ping" handler; installed
        #: by the statistics service for histogram dissemination.
        self.stats_provider: Optional[Callable[[Any, str], Any]] = None
        #: Observability counters.
        self.proposals = 0
        self.stale_proposals = 0
        self.fallback_proposals = 0
        self.options_accepted = 0
        self.options_rejected = 0
        self.rounds_lost = 0
        self.fast_votes = 0
        # Open option spans keyed by (txid, key): started when the
        # proposal arrives (under the coordinator's propose-stage span
        # riding on the message), finished when the learned verdict is
        # cast back.  Empty whenever span tracing is off.
        self._option_spans: Dict[tuple, Any] = {}

        self.endpoint.on("read", self._on_read)
        self.endpoint.on("propose", self._on_propose)
        self.endpoint.on("phase2a", self._on_phase2a)
        self.endpoint.on("fast2a", self._on_fast2a)
        self.endpoint.on("visibility", self._on_visibility)
        self.endpoint.on("phase1a", self._on_phase1a)
        self.endpoint.on("ping", self._on_ping)
        self.endpoint.on("stats_push", self._on_ping)

    # -- data management -----------------------------------------------------

    def load(self, items: Dict[str, Any]) -> None:
        """Bulk-load committed values (version 1), e.g. the Items table."""
        for key, value in items.items():
            self.records[key] = Record(key=key, value=value, version=1,
                                       history=[(0.0, value)])
            if self.env.tracer is not None:
                self.env.trace("version_visible", node=self.address,
                               key=key, version=1, value=value, txid="")

    def catch_up_from(self, peer: "StorageNode") -> int:
        """State-transfer from a healthy replica after a crash.

        A node that was dark missed every visibility message sent
        while it was down; until it catches up, its replica serves
        stale reads (and, if it leads keys, proposes against stale
        versions).  This copies every visible version the peer is
        ahead on — pending options are left alone, they belong to
        live rounds — and traces each repair as a ``version_visible``
        event, so recorded histories stay checkable.  Returns the
        number of records repaired.  The transfer is instantaneous
        (fail-stop with stable storage; shipping cost is not
        modelled), matching the simulator's process model.
        """
        repaired = 0
        for key, theirs in peer.records.items():
            ours = self.record(key)
            if theirs.version <= ours.version:
                continue
            ours.value = theirs.value
            ours.version = theirs.version
            ours.history.append((self.env.now, theirs.value))
            if len(ours.history) > ours.HISTORY_KEEP:
                del ours.history[:-ours.HISTORY_KEEP]
            repaired += 1
            if self.env.tracer is not None:
                self.env.trace("version_visible", node=self.address,
                               key=key, version=ours.version,
                               value=ours.value, txid="")
        return repaired

    def record(self, key: str) -> Record:
        """The local record for ``key``, created on first touch.

        With :attr:`default_value` set, the record materializes as a
        committed version-1 row (an implicitly pre-loaded table);
        otherwise it starts empty at version 0.
        """
        record = self.records.get(key)
        if record is None:
            if self.default_value is not None:
                record = Record(key=key, value=self.default_value, version=1,
                                history=[(0.0, self.default_value)])
                if self.env.tracer is not None:
                    self.env.trace("version_visible", node=self.address,
                                   key=key, version=1,
                                   value=self.default_value, txid="")
            else:
                record = Record(key=key)
            self.records[key] = record
        return record

    def leads(self, key: str) -> bool:
        """True if this node is the record leader for ``key``."""
        return self._leader_dc_of(key) == self.datacenter

    # -- read path -------------------------------------------------------------

    def _on_read(self, request: ReadRequest, src: str) -> ReadReply:
        record = self.records.get(request.key)
        if record is None and self.default_value is not None:
            record = self.record(request.key)
        rate = self.access_stats.arrival_rate(request.key, self.env.now)
        if record is None:
            reply = ReadReply(key=request.key, value=None, version=0,
                              arrival_rate=rate,
                              leader_dc=self._leader_dc_of(request.key),
                              has_pending=False, exists=False)
        elif request.as_of_ms is not None:
            value, newer = record.value_as_of(request.as_of_ms)
            reply = ReadReply(key=request.key, value=value,
                              version=max(record.version - newer, 0),
                              arrival_rate=rate,
                              leader_dc=self._leader_dc_of(request.key),
                              has_pending=record.has_pending_option)
        else:
            reply = ReadReply(key=request.key, value=record.value,
                              version=record.version, arrival_rate=rate,
                              leader_dc=self._leader_dc_of(request.key),
                              has_pending=record.has_pending_option)
        if self.env.tracer is not None:
            self.env.trace("read_reply", node=self.address, key=reply.key,
                           version=reply.version, value=reply.value,
                           as_of=request.as_of_ms, exists=reply.exists,
                           reader=src)
        if (self.env.spans is not None
                and self.endpoint.current_span is not None):
            self.env.spans.point(
                self.endpoint.current_span, "read", self.address,
                self.env.now, f"{reply.key}/{src}/{reply.version}",
                key=reply.key, version=reply.version)
        if self.env.metrics is not None:
            self.env.metrics.inc("storage.reads")
        return reply

    # -- leader path --------------------------------------------------------------

    def _on_propose(self, propose: Propose, src: str):
        """Handle an option proposal for a record this node masters.

        Option rounds for one record are strictly serialized — each
        record is a Multi-Paxos log with one instance in flight at a
        time — so proposals queue behind the active round.  Under
        contention this is itself a throughput limit: rejected options
        churn the record's log just like accepted ones (both must be
        learned, §5.1.1), which is precisely the contention admission
        control relieves.
        """
        if not self.leads(propose.key):
            # Stale mastership at the client: the record's leadership
            # moved while this proposal was in flight (found by the
            # repro.check fuzzer racing transfers against proposals).
            # Refuse with a REJECTED verdict so the transaction aborts
            # cleanly instead of crashing or silently corrupting the
            # conflict window.
            self.stale_proposals += 1
            if self.env.metrics is not None:
                self.env.metrics.inc("storage.stale_proposals")
            self.endpoint.cast(propose.tm_address, "learned",
                               Learned(txid=propose.txid, key=propose.key,
                                       decision=Decision.REJECTED))
            return RpcEndpoint.NO_REPLY
        self.proposals += 1
        if propose.fallback:
            # Classic-mode recovery of a collided/fenced fast round.
            self.fallback_proposals += 1
            if self.env.metrics is not None:
                self.env.metrics.inc("storage.fallback_proposals")
        if (self.env.spans is not None
                and self.endpoint.current_span is not None):
            span = self.env.spans.child(
                self.endpoint.current_span, "storage.option", self.address,
                self.env.now, f"{propose.txid}/{propose.key}",
                txid=propose.txid, key=propose.key)
            self._option_spans[(propose.txid, propose.key)] = span
        # Acceptance signal: confirm receipt before running the round.
        self.endpoint.cast(propose.tm_address, "proposal_ack",
                           ProposalAck(txid=propose.txid, key=propose.key))
        queue = self._proposal_queues.setdefault(propose.key, [])
        queue.append(propose)
        if propose.key not in self._round_active:
            self._start_next_round(propose.key)
        return RpcEndpoint.NO_REPLY

    def _start_next_round(self, key: str) -> None:
        queue = self._proposal_queues.get(key)
        if not queue:
            self._round_active.discard(key)
            return
        self._round_active.add(key)
        propose = queue.pop(0)

        record = self.record(key)
        # A transaction's own fast-voted option is not a conflict with
        # itself — a fallback re-proposal must be able to recover its
        # own value (in classic mode the proposing txid is never
        # pending here, so the exclusion is a no-op).
        conflict = any(txid != propose.txid for txid in record.pending)
        admissible = propose.update.admissible_on(record.value)
        if conflict or not admissible:
            decision = Decision.REJECTED
            self.options_rejected += 1
        else:
            decision = Decision.ACCEPTED
            record.add_pending(propose.txid, propose.update)
            self.options_accepted += 1

        if self.mode == "fast":
            # Classic recovery must open a *fresh* instance: lower
            # instances may hold fast-chosen values this leader knows
            # only through its own acceptor log (CHK008).
            state = self.acceptors.get(key)
            if state is not None:
                record.seq = max(record.seq, state.highest_accepted_seq())
        record.seq += 1
        if self.env.tracer is not None:
            self.env.trace("option", node=self.address, key=propose.key,
                           txid=propose.txid, seq=record.seq,
                           decision=decision.value, conflict=conflict)
        if self.env.metrics is not None:
            self.env.metrics.inc("storage.options", label=decision.value)
        option_span = self._option_spans.get((propose.txid, propose.key))
        if option_span is not None:
            option_span.attrs["decision"] = decision.value
            option_span.attrs["seq"] = record.seq
        payload = OptionPayload(txid=propose.txid, key=propose.key,
                                update=propose.update, decision=decision)
        ballot = self._ballots.get(propose.key, self._default_ballot)
        phase2a = Phase2a(key=propose.key, seq=record.seq,
                          ballot=ballot, payload=payload)
        replicas = self._replicas_of(propose.key)
        quorum = len(replicas) // 2 + 1
        round_ = PaxosRound(self.env, self.endpoint, replicas, phase2a,
                            quorum, timeout_ms=self.round_timeout_ms,
                            parent_span=(option_span.ctx
                                         if option_span is not None
                                         else None))
        self.env.process(self._finish_round(round_, propose, decision))

    def _finish_round(self, round_: PaxosRound, propose: Propose,
                      decision: Decision):
        """Wait for the quorum, notify the TM, start the next round."""
        try:
            won = yield round_.result
        except PaxosRoundTimeout:
            won = False
        if not won:
            # The round could not be learned as proposed (lost quorum or
            # timed out).  Release the conflict window and report the
            # option as rejected so the transaction aborts cleanly.
            self.rounds_lost += 1
            if self.env.metrics is not None:
                self.env.metrics.inc("storage.rounds_lost")
            if decision is Decision.ACCEPTED:
                self.record(propose.key).clear_pending(propose.txid)
            decision = Decision.REJECTED
        option_span = self._option_spans.pop(
            (propose.txid, propose.key), None)
        if option_span is not None:
            option_span.finish(self.env.now, won=won)
        self.endpoint.cast(propose.tm_address, "learned",
                           Learned(txid=propose.txid, key=propose.key,
                                   decision=decision),
                           span=(option_span.ctx
                                 if option_span is not None else None))
        self._start_next_round(propose.key)

    # -- mastership takeover (Paxos phase 1) ------------------------------------------

    def take_mastership(self, key: str, max_attempts: int = 5,
                        quorum_fast: bool = False):
        """Acquire leadership of ``key`` via phase-1 promises.

        Returns an event that succeeds with True once a majority of
        replicas promised a ballot above the previous leader's (which
        is thereby fenced: its in-flight phase2a rounds get rejected),
        or False after ``max_attempts`` contested rounds.  The caller
        must then update the routing (``Mastership.set_override``) so
        new proposals arrive here — :meth:`Cluster.transfer_mastership`
        does both.

        With ``quorum_fast`` each attempt settles as soon as a quorum
        of promises arrives instead of waiting for every replica —
        essential when a replica is dark (its phase-1 call only
        returns at the RPC timeout, stalling an already-won takeover
        for seconds).  The conservative default keeps the historical
        all-replies timing that the golden digests pin.
        """
        result = self.env.event()
        self.env.process(
            self._take_mastership(key, max_attempts, result, quorum_fast))
        return result

    def _take_mastership(self, key: str, max_attempts: int, result,
                         quorum_fast: bool = False):
        from repro.sim import AllOf  # local import: avoid heavy top-level

        replicas = self._replicas_of(key)
        quorum = len(replicas) // 2 + 1
        number = 1
        for _attempt in range(max_attempts):
            ballot = Ballot(number, self.address)
            if quorum_fast:
                tally = {"promised": 0, "done": 0, "highest": ballot}
                settled = self.env.event()
                for replica in replicas:
                    self.env.process(self._phase1_tally(
                        replica, key, ballot, tally, settled, quorum,
                        len(replicas)))
                yield settled
                promised = tally["promised"]
                highest_seen = tally["highest"]
            else:
                attempts = [
                    self.env.process(self._phase1_call(replica, key, ballot))
                    for replica in replicas
                ]
                replies = yield AllOf(self.env, attempts)
                promised = 0
                highest_seen = ballot
                for reply in replies.values():
                    if reply is None:
                        continue  # unreachable replica
                    ok, previous = reply
                    if ok:
                        promised += 1
                    elif previous is not None and previous > highest_seen:
                        highest_seen = previous
            if promised >= quorum:
                self._ballots[key] = ballot
                if self.env.tracer is not None:
                    self.env.trace("mastership_acquired", node=self.address,
                                   key=key, ballot=ballot_key(ballot),
                                   promises=promised)
                if not result.triggered:
                    result.succeed(True)
                return
            number = highest_seen.number + 1
        if not result.triggered:
            result.succeed(False)

    def _phase1_tally(self, replica: str, key: str, ballot: Ballot,
                      tally, settled, quorum: int, total: int):
        """One phase-1 exchange feeding a shared quorum tally."""
        reply = yield from self._phase1_call(replica, key, ballot)
        tally["done"] += 1
        if reply is not None:
            ok, previous = reply
            if ok:
                tally["promised"] += 1
            elif previous is not None and previous > tally["highest"]:
                tally["highest"] = previous
        if not settled.triggered and (tally["promised"] >= quorum
                                      or tally["done"] == total):
            settled.succeed(None)

    def _phase1_call(self, replica: str, key: str, ballot: Ballot):
        """One replica's phase1a exchange; None if unreachable."""
        from repro.net.rpc import RpcTimeout

        try:
            reply = yield self.endpoint.call(
                replica, "phase1a",
                Phase2a(key=key, seq=-1, ballot=ballot, payload=None),
                timeout_ms=5_000.0)
        except RpcTimeout:
            return None
        return reply

    def _on_phase1a(self, message: Phase2a, src: str):
        from repro.paxos.acceptor import handle_phase1a

        state = self.acceptors.get(message.key)
        if state is None:
            state = AcceptorState()
            self.acceptors[message.key] = state
        granted, previous = handle_phase1a(state, message.ballot)
        if self.env.tracer is not None:
            self.env.trace("promise", node=self.address, key=message.key,
                           ballot=ballot_key(message.ballot),
                           granted=granted, prev=ballot_key(previous))
        return granted, previous

    # -- acceptor path ---------------------------------------------------------------

    def _on_phase2a(self, message: Phase2a, src: str):
        # Every update attempt reaching the replicas counts toward the
        # record's arrival rate (§5.2.3), rejected options included.
        self.access_stats.record_access(message.key, self.env.now)
        state = self.acceptors.get(message.key)
        if state is None:
            state = AcceptorState()
            self.acceptors[message.key] = state
        observer = (self._trace_acceptor if self.env.tracer is not None
                    else None)
        vote = handle_phase2a(state, message, observer=observer)
        option: OptionPayload = message.payload
        if (vote.accepted and option.decision is Decision.ACCEPTED
                and option.txid not in self._finalized):
            self.record(message.key).add_pending(option.txid, option.update)
        if (self.env.spans is not None
                and self.endpoint.current_span is not None):
            self.env.spans.point(
                self.endpoint.current_span, "phase2b", self.address,
                self.env.now, f"{message.key}/{message.seq}/{self.address}",
                accepted=vote.accepted)
        if self.env.metrics is not None:
            self.env.metrics.inc(
                "paxos.votes",
                label="accepted" if vote.accepted else "rejected")
        return vote

    def _on_fast2a(self, message: FastPhase2a, src: str):
        """Vote on a fast-ballot proposal sent directly by a client.

        The acceptor plays the record leader's role locally: it
        evaluates the option against its own record state (conflict
        window, floor) and assigns the value to the next instance of
        its own log.  Clients agreeing on the instance across a fast
        quorum is what makes the value chosen; disagreement is a
        collision the client recovers from via the classic path.
        """
        self.access_stats.record_access(message.key, self.env.now)
        state = self.acceptors.get(message.key)
        if state is None:
            state = AcceptorState()
            self.acceptors[message.key] = state
        option: OptionPayload = message.payload
        record = self.record(message.key)
        conflict = any(txid != option.txid for txid in record.pending)
        admissible = option.update.admissible_on(record.value)
        decision = (Decision.REJECTED if conflict or not admissible
                    else Decision.ACCEPTED)
        observer = (self._trace_acceptor if self.env.tracer is not None
                    else None)
        vote = handle_fast2a(state, message, decision, observer=observer)
        if (vote.accepted and decision is Decision.ACCEPTED
                and option.txid not in self._finalized):
            record.add_pending(option.txid, option.update)
        self.fast_votes += 1
        if (self.env.spans is not None
                and self.endpoint.current_span is not None):
            self.env.spans.point(
                self.endpoint.current_span, "fast2b", self.address,
                self.env.now, f"{message.key}/{vote.seq}/{self.address}",
                accepted=vote.accepted)
        if self.env.metrics is not None:
            self.env.metrics.inc(
                "paxos.fast_votes",
                label="accepted" if vote.accepted else "fenced")
        return vote

    def _trace_acceptor(self, etype: str, fields: Dict[str, Any]) -> None:
        """Forward an acceptor-hook event onto the kernel tracer."""
        self.env.trace(etype, node=self.address, **fields)

    # -- visibility path -----------------------------------------------------------------

    def _on_visibility(self, visibility: Visibility, src: str):
        if visibility.txid in self._finalized:
            return "ack"  # duplicate delivery: already applied
        for key in visibility.keys:
            record = self.record(key)
            if visibility.commit:
                applied = record.commit_pending(visibility.txid,
                                                now_ms=self.env.now)
                if not applied and visibility.updates is not None:
                    # This replica never accepted the option (fenced,
                    # partitioned, or lossy): learn the chosen update
                    # directly from the TM's decision message.
                    update = visibility.updates.get(key)
                    if update is not None:
                        record.apply_value(update.apply_to(record.value),
                                           now_ms=self.env.now)
                        applied = True
                if applied and self.env.tracer is not None:
                    self.env.trace("version_visible", node=self.address,
                                   key=key, version=record.version,
                                   value=record.value, txid=visibility.txid)
            else:
                record.clear_pending(visibility.txid)
        if self.env.tracer is not None:
            self.env.trace("visibility_applied", node=self.address,
                           txid=visibility.txid, commit=visibility.commit,
                           keys=tuple(visibility.keys))
        if (self.env.spans is not None
                and self.endpoint.current_span is not None):
            self.env.spans.point(
                self.endpoint.current_span, "visibility.apply",
                self.address, self.env.now,
                f"{visibility.txid}/{self.address}",
                commit=visibility.commit)
        self._remember_finalized(visibility.txid)
        # Acknowledge so the TM's at-least-once delivery can stop
        # retrying; the operation is idempotent.
        return "ack"

    def _remember_finalized(self, txid: str,
                            retention: int = 4096) -> None:
        """Track finalized transactions so late/duplicate phase2a or
        visibility messages cannot re-open or re-apply them."""
        self._finalized[txid] = None
        while len(self._finalized) > retention:
            self._finalized.pop(next(iter(self._finalized)))

    # -- statistics path ------------------------------------------------------------------

    def _on_ping(self, payload: Any, src: str) -> Any:
        """RTT probe; delegates to the installed statistics provider."""
        if self.stats_provider is not None:
            return self.stats_provider(payload, src)
        return None
