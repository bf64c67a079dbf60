"""Client-side execution of one MDCC fast-ballot round.

The transaction manager fans a :class:`FastPhase2a` out to *every*
acceptor of the record — no leader hop — and resolves as soon as the
outcome is determined:

* ``chosen``   — ⌈3N/4⌉ acceptors voted the option ACCEPTED at the same
  instance: the option is learned in two message delays (one fewer
  than the classic propose → leader → phase2a → phase2b chain);
* ``rejected`` — ⌈3N/4⌉ acceptors voted the option REJECTED at the same
  instance (conflict window open or floor violated everywhere): the
  abort is equally fast-learned;
* ``fallback`` — no instance can still reach a fast quorum.  The vote
  set tells why: acceptors scattered the value across different
  instances (``collision`` — a concurrent proposer raced us), mixed
  verdicts at one instance (``conflict``), classic promises fenced the
  fast ballot (``fenced``), or the round simply timed out under loss
  (``timeout``).  The caller then recovers through the record master's
  classic path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.net.rpc import RpcEndpoint
from repro.paxos.acceptor import ballot_key
from repro.paxos.ballot import fast_quorum_size
from repro.paxos.messages import FastPhase2a, FastPhase2b
from repro.sim import Environment, Event


class FastRoundOutcome:
    """How one fast round ended: ``status`` plus supporting detail."""

    __slots__ = ("status", "reason", "seq", "votes", "fenced")

    def __init__(self, status: str, reason: str, seq: int = -1,
                 votes: int = 0, fenced: int = 0):
        self.status = status      # "chosen" | "rejected" | "fallback"
        self.reason = reason      # quorum | collision | conflict | fenced | timeout
        self.seq = seq            # winning instance for chosen/rejected
        self.votes = votes
        self.fenced = fenced


class FastRound:
    """One fast-ballot round over a record's full replica group.

    ``result`` is a kernel event that succeeds with a
    :class:`FastRoundOutcome`; it never fails (timeouts resolve to a
    ``fallback`` outcome so the caller always recovers via classic).

    >>> round_ = FastRound(env, endpoint, replicas, fast2a)
    >>> outcome = yield round_.result
    """

    def __init__(self, env: Environment, endpoint: RpcEndpoint,
                 replicas: Sequence[str], fast2a: FastPhase2a,
                 quorum: Optional[int] = None,
                 timeout_ms: Optional[float] = None,
                 parent_span: Optional[Tuple[str, str]] = None,
                 on_first_vote=None):
        self.env = env
        self.endpoint = endpoint
        self.fast2a = fast2a
        self.replicas = list(replicas)
        self.quorum = (quorum if quorum is not None
                       else fast_quorum_size(len(self.replicas)))
        if not 1 <= self.quorum <= len(self.replicas):
            raise ValueError(
                f"fast quorum {self.quorum} impossible "
                f"with {len(self.replicas)} replicas")
        self.result: Event = env.event()
        self.on_first_vote = on_first_vote
        # Per-instance tallies of option-accepting / option-rejecting
        # fast votes, plus the count of classic-fenced refusals.
        self._accepts: Dict[int, int] = {}
        self._rejects: Dict[int, int] = {}
        self.fenced = 0
        self.votes = 0
        self._started_ms = env.now
        if env.tracer is not None:
            env.trace("fast_round_start", node=endpoint.address,
                      key=fast2a.key, ballot=ballot_key(fast2a.ballot),
                      quorum=self.quorum, n_replicas=len(self.replicas))
        self.span = None
        span_ctx = parent_span
        if env.spans is not None and parent_span is not None:
            self.span = env.spans.child(
                parent_span, "paxos.fast_round", endpoint.address, env.now,
                f"{fast2a.key}/{ballot_key(fast2a.ballot)}",
                key=fast2a.key, ballot=ballot_key(fast2a.ballot),
                quorum=self.quorum)
            span_ctx = self.span.ctx
        for replica in self.replicas:
            call = endpoint.call(replica, "fast2a", fast2a, span=span_ctx)
            call.callbacks.append(self._on_vote)
        # Deadline on the cancelable timer queue; a decided round
        # cancels it (see PaxosRound — same idiom, same reason).
        self._timer = (env.arm_timer(env.now + timeout_ms,
                                     lambda: self._expire(timeout_ms))
                       if timeout_ms is not None else None)

    def _finish(self, outcome: FastRoundOutcome) -> None:
        env = self.env
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if env.tracer is not None:
            env.trace("fast_round_decided", node=self.endpoint.address,
                      key=self.fast2a.key, seq=outcome.seq,
                      ballot=ballot_key(self.fast2a.ballot),
                      status=outcome.status, reason=outcome.reason,
                      votes=self.votes, fenced=self.fenced)
        if env.metrics is not None:
            env.metrics.inc("paxos.fast_rounds", label=outcome.reason)
            env.metrics.observe("paxos.fast_round_ms",
                                env.now - self._started_ms)
        if self.span is not None:
            self.span.finish(env.now, status=outcome.status,
                             reason=outcome.reason, votes=self.votes)
        self.result.succeed(outcome)

    def _on_vote(self, event: Event) -> None:
        if self.result.triggered or not event.ok:
            return
        vote: FastPhase2b = event.value
        self.votes += 1
        if self.on_first_vote is not None and self.votes == 1:
            self.on_first_vote()
        if not vote.accepted:
            self.fenced += 1
        else:
            from repro.storage.option import Decision
            tally = (self._accepts if vote.decision is Decision.ACCEPTED
                     else self._rejects)
            tally[vote.seq] = tally.get(vote.seq, 0) + 1
            if tally[vote.seq] >= self.quorum:
                status = ("chosen" if tally is self._accepts
                          else "rejected")
                self._finish(FastRoundOutcome(
                    status, "quorum", seq=vote.seq,
                    votes=self.votes, fenced=self.fenced))
                return
        # Can *any* instance still reach a fast quorum?  Unheard
        # acceptors can at best all pile onto the current leading
        # instance-and-verdict tally.
        remaining = len(self.replicas) - self.votes
        best = max(max(self._accepts.values(), default=0),
                   max(self._rejects.values(), default=0))
        if best + remaining < self.quorum:
            self._finish(FastRoundOutcome(
                "fallback", self._fallback_reason(),
                votes=self.votes, fenced=self.fenced))

    def _fallback_reason(self) -> str:
        if self.fenced:
            return "fenced"
        instances = set(self._accepts) | set(self._rejects)
        if len(instances) > 1:
            return "collision"
        return "conflict"

    def _expire(self, timeout_ms: float) -> None:
        """Timer callback: the fast round hit its deadline undecided."""
        if not self.result.triggered:
            self._finish(FastRoundOutcome(
                "fallback", "timeout",
                votes=self.votes, fenced=self.fenced))
