"""Leader-side execution of one phase-2 round.

The leader fans a :class:`Phase2a` out to every replica and resolves as
soon as the outcome is decided: a majority of accepts wins the round, a
blocking minority of rejections loses it.  Lost messages simply leave
the round open; callers that need liveness bound it with
``timeout_ms``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.net.rpc import RpcEndpoint
from repro.paxos.acceptor import ballot_key
from repro.paxos.messages import Phase2a, Phase2b
from repro.sim import Environment, Event


class PaxosRoundTimeout(RuntimeError):
    """The round did not decide within the caller's deadline."""


class PaxosRound:
    """One phase-2 round over a replica group.

    ``result`` is a kernel event that succeeds with ``True`` (quorum of
    accepts), ``False`` (quorum impossible), or fails with
    :class:`PaxosRoundTimeout`.

    >>> round_ = PaxosRound(env, endpoint, replicas, phase2a, quorum=3)
    >>> won = yield round_.result
    """

    def __init__(self, env: Environment, endpoint: RpcEndpoint,
                 replicas: Sequence[str], phase2a: Phase2a, quorum: int,
                 timeout_ms: Optional[float] = None,
                 parent_span: Optional[Tuple[str, str]] = None):
        if not 1 <= quorum <= len(replicas):
            raise ValueError(
                f"quorum {quorum} impossible with {len(replicas)} replicas")
        self.env = env
        self.endpoint = endpoint
        self.phase2a = phase2a
        self.quorum = quorum
        self.replicas = list(replicas)
        self.result: Event = env.event()
        self.accepts = 0
        self.rejects = 0
        self._started_ms = env.now
        if env.tracer is not None:
            env.trace("round_start", node=endpoint.address,
                      key=phase2a.key, seq=phase2a.seq,
                      ballot=ballot_key(phase2a.ballot), quorum=quorum,
                      n_replicas=len(self.replicas))
        # The round span hangs off the caller's context (typically a
        # storage option span that itself descends from the
        # coordinator's stage chain); fan-out calls carry the round's
        # own context so replica-side phase2b spans parent under it.
        self.span = None
        span_ctx = parent_span
        if env.spans is not None and parent_span is not None:
            self.span = env.spans.child(
                parent_span, "paxos.round", endpoint.address, env.now,
                f"{phase2a.key}/{phase2a.seq}/{ballot_key(phase2a.ballot)}",
                key=phase2a.key, seq=phase2a.seq,
                ballot=ballot_key(phase2a.ballot), quorum=quorum)
            span_ctx = self.span.ctx
        for replica in self.replicas:
            call = endpoint.call(replica, "phase2a", phase2a,
                                 span=span_ctx)
            call.callbacks.append(self._on_vote)
        # The round deadline lives on the cancelable timer queue: a
        # decided round cancels it, so the common case never schedules
        # a heap event for a timeout that will not fire.
        self._timer = (env.arm_timer(env.now + timeout_ms,
                                     lambda: self._expire(timeout_ms))
                       if timeout_ms is not None else None)

    def _trace_outcome(self, won: bool, reason: str) -> None:
        env = self.env
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if env.tracer is not None:
            env.trace("round_decided", node=self.endpoint.address,
                      key=self.phase2a.key, seq=self.phase2a.seq,
                      ballot=ballot_key(self.phase2a.ballot), won=won,
                      accepts=self.accepts, rejects=self.rejects,
                      reason=reason)
        if env.metrics is not None:
            env.metrics.inc("paxos.rounds", label=reason)
            env.metrics.observe("paxos.round_ms",
                                env.now - self._started_ms)
        if self.span is not None:
            self.span.finish(env.now, won=won, reason=reason,
                             accepts=self.accepts, rejects=self.rejects)

    def _on_vote(self, event: Event) -> None:
        if self.result.triggered or not event.ok:
            return
        vote: Phase2b = event.value
        if vote.accepted:
            self.accepts += 1
        else:
            self.rejects += 1
        if self.accepts >= self.quorum:
            self._trace_outcome(True, "quorum")
            self.result.succeed(True)
        elif self.rejects > len(self.replicas) - self.quorum:
            self._trace_outcome(False, "blocked")
            self.result.succeed(False)

    def _expire(self, timeout_ms: float) -> None:
        """Timer callback: the round deadline passed undecided."""
        if not self.result.triggered:
            self._trace_outcome(False, "timeout")
            self.result.fail(PaxosRoundTimeout(
                f"round undecided after {timeout_ms} ms "
                f"({self.accepts} accepts / {self.rejects} rejects)"))
