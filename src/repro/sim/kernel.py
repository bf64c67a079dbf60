"""Heap-driven discrete-event simulation kernel.

The design follows the classic generator-based cooperative style (as
popularised by SimPy): a :class:`Process` wraps a Python generator that
``yield``\\ s :class:`Event` objects; the kernel resumes the generator
when the yielded event fires.  The kernel is deliberately small and
fully deterministic: ties in time are broken by a monotonically
increasing sequence number, so two runs with the same seeds produce
identical traces.

Hot-path notes
--------------
Every message a figure-scale experiment sends becomes at least one
:class:`Event` through this kernel, so the per-event constant factors
here bound the whole reproduction's wall-clock time.  Three deliberate
choices keep them small:

* every kernel class declares ``__slots__`` (no per-instance dict;
  attribute access compiles to a fixed-offset load),
* the failure-propagation flag ``_defused`` is a slotted attribute
  initialized in ``Event.__init__`` rather than a ``getattr`` probe in
  the event loop, and
* :meth:`Environment.run` repeats the body of :meth:`Environment.step`
  with the queue and ``heappop`` bound to locals — one Python frame per
  event instead of two.

The environment keeps exactly two ordered structures: the event heap
and one :class:`TimerQueue` of cancelable deadlines.  ``run`` is the
only loop, metered or not, bounded or not.

``python -m repro.perf`` benchmarks this loop; regressions fail CI.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")

#: Sentinel for an event that has not yet been given a value.
_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three phases: *pending* (just created),
    *triggered* (given a value and scheduled on the event queue), and
    *processed* (its callbacks have run).  Waiting processes register
    themselves in :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: True once a waiter has taken responsibility for a failure;
        #: the event loop then will not re-raise it.  A plain slotted
        #: bool (not a getattr probe) — the loop reads it per event.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` raised at their
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` virtual ms."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flattened Event.__init__ (no super() call): timeouts are the
        # single most common event the workload generators create.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay=delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self)


class Process(Event):
    """A running simulation process, wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates: with the generator's return value on normal exit, or
    with the raised exception on failure.  Other processes may
    ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a dead process is an error; interrupting yourself
        is too (a process cannot be suspended and interrupted at once).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process is currently waiting on, then
        # schedule an immediate resume carrying the Interrupt.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup.callbacks.append(self._resume)
        wakeup._defused = True  # never propagate to the kernel
        self.env.schedule(wakeup, priority=Environment.PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Mark the failure as handled by this process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if next_event.env is not env:
                raise SimulationError(
                    "yielded an event from a different environment")
            if next_event.callbacks is not None:
                # Event still pending/triggered: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop and feed its value directly.
            event = next_event

        env._active_process = None


class ConditionEvent(Event):
    """Base for events that fire when a set of child events *occur*.

    A child is considered to have occurred once it is *processed* (its
    callbacks have run), not merely triggered: a :class:`Timeout` holds
    its value from construction but only occurs when the clock reaches
    it.
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError(
                    "condition mixes events from different environments")
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self.succeed({})

    def _collect(self) -> dict:
        """Values of all children that have occurred so far."""
        return {
            event: event._value
            for event in self.events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires once every child event has occurred (or any child fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        if all(child.processed for child in self.events):
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Fires as soon as the first child event occurs."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


#: Timer lifecycle states (plain ints; pending must stay falsy — the
#: queue's prune loop tests ``_state`` for truth).
_TIMER_PENDING = 0
_TIMER_FIRED = 1
_TIMER_CANCELLED = 2


class Timer:
    """Handle for one deadline armed on a :class:`TimerQueue`.

    Holders call :meth:`cancel` when the thing they were guarding (an
    RPC reply, a Paxos decision, a transaction outcome) arrives first;
    the callback then never runs, no heap event was ever scheduled and
    no dead generator is ever resumed.  Cancelling an already-fired or
    already-cancelled timer is a no-op.
    """

    __slots__ = ("when", "callback", "_state", "_queue")

    def __init__(self, when: float, callback: Callable[[], None],
                 queue: "TimerQueue"):
        self.when = when
        self.callback = callback
        self._state = _TIMER_PENDING
        self._queue = queue

    @property
    def active(self) -> bool:
        """True while the timer may still fire."""
        return self._state == _TIMER_PENDING

    @property
    def fired(self) -> bool:
        return self._state == _TIMER_FIRED

    @property
    def cancelled(self) -> bool:
        return self._state == _TIMER_CANCELLED

    def cancel(self) -> None:
        """Drop the timer; its queue entry is reaped lazily."""
        if self._state == _TIMER_PENDING:
            self._state = _TIMER_CANCELLED
            queue = self._queue
            queue.cancelled_total += 1
            queue.live -= 1
            queue._settle()

    def __repr__(self) -> str:
        state = ("pending", "fired", "cancelled")[self._state]
        return f"<Timer {state} when={self.when} at {id(self):#x}>"


class TimerQueue:
    """Cancelable one-shot deadlines, kept beside the event heap.

    A commit protocol arms deadlines one at a time (RPC expiries,
    round timeouts, transaction deadlines) and cancels almost all of
    them before they fire.  They live in a flat ``heapq`` of ``(when,
    arm sequence, timer)`` with lazy deletion: a cancelled timer stays
    in the list until it surfaces.

    Invariant: the top entry is live, or the list is empty.  Whatever
    retires a live timer (cancel, fire) restores it by popping dead
    entries off the top, or clearing the list once nothing is live,
    so the event loop reads the exact next deadline as ``heap[0][0]``
    and a run never stays open for a cancelled deadline.

    Ordering contract: a live timer at time *t* fires after every heap
    event scheduled strictly before *t* and before every heap event
    strictly after *t*.  At exactly equal timestamps the heap wins; in
    particular a ``run(until=t)`` boundary stops *before* a timer at
    exactly ``t``, which survives into the next run window.  Timers
    fire in ``(when, arm order)``.
    """

    __slots__ = ("_heap", "_seq", "live",
                 "armed_total", "cancelled_total", "fired_total")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Timer]] = []
        self._seq = 0
        #: Number of armed timers that may still fire.
        self.live = 0
        self.armed_total = 0
        self.cancelled_total = 0
        self.fired_total = 0

    def arm(self, when: float, callback: Callable[[], None]) -> Timer:
        """Arm ``callback`` to run at virtual time ``when``."""
        timer = Timer(when, callback, self)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (when, seq, timer))
        self.live += 1
        self.armed_total += 1
        return timer

    def _settle(self) -> None:
        """Restore the invariant after a live timer was retired."""
        heap = self._heap
        if not self.live:
            # In place: the running event loop holds this very list.
            del heap[:]
        else:
            while heap[0][2]._state:
                _heappop(heap)

    def _fire_next(self) -> None:
        """Run the earliest timer's callback.

        The event loop calls this with the clock already advanced to
        ``heap[0][0]``.  The invariant holds again before the callback
        runs, so callbacks may arm or cancel freely.
        """
        timer = _heappop(self._heap)[2]
        timer._state = _TIMER_FIRED
        self.fired_total += 1
        self.live -= 1
        self._settle()
        timer.callback()

    def __repr__(self) -> str:
        return (f"<TimerQueue live={self.live} armed={self.armed_total} "
                f"cancelled={self.cancelled_total} "
                f"fired={self.fired_total} at {id(self):#x}>")


class _StopRun(Exception):
    """Unwinds :meth:`Environment.run` when its ``until`` event fires."""


def _stop_run(event: Event) -> None:
    raise _StopRun


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(10)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 10.0
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "_timers",
                 "tracer", "metrics", "spans", "process_wrapper")

    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Cancelable one-shot deadlines (RPC expiries, round and
        #: transaction timeouts, batched arrivals) live here instead of
        #: the heap; while nothing is armed the loop pays one list
        #: truthiness check per event.
        self._timers = TimerQueue()
        #: Optional structured-event sink: a callable
        #: ``(ts_ms, etype, node, fields)`` installed by the history
        #: recorder (``repro.check``).  ``None`` keeps tracing free:
        #: instrumented components guard their ``trace`` calls with
        #: ``if env.tracer is not None`` so disabled runs pay only an
        #: attribute check per hook site.
        self.tracer: Optional[Callable[[float, str, str, dict], None]] = None
        #: Optional observability hooks (``repro.obs``), duck-typed so
        #: the kernel never imports that package: ``metrics`` is a
        #: MetricsRegistry, ``spans`` a SpanRecorder.  Both default to
        #: ``None`` and follow the same zero-cost contract as
        #: :attr:`tracer` — instrumented layers guard each site with an
        #: ``is not None`` check, verified by the ``obs`` perf bench.
        self.metrics: Optional[Any] = None
        self.spans: Optional[Any] = None
        #: Optional generator wrapper applied once per
        #: :meth:`process` call, same zero-cost contract as the hooks
        #: above (one ``is not None`` check at process creation, never
        #: in the event loop).  The atomicity sanitizer
        #: (``repro.check.atomicity``) uses it to interpose yield-point
        #: snapshots without the kernel importing that package.
        self.process_wrapper: Optional[
            Callable[[Generator], Generator]] = None

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def trace(self, etype: str, node: str = "", **fields: Any) -> None:
        """Emit one structured history event to the installed tracer.

        A no-op while :attr:`tracer` is ``None``; every instrumented
        layer (transport, Paxos, coordinator, storage) funnels its
        events through here so a recorder sees one totally ordered
        stream stamped with the virtual clock.
        """
        if self.tracer is not None:
            self.tracer(self._now, etype, node, fields)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` virtual ms."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        wrapper = self.process_wrapper
        if wrapper is not None:
            generator = wrapper(generator)
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def timer_wheel(self) -> TimerQueue:
        """The environment's cancelable-timer queue (always present).

        Named for the structure it once was; benchmarks read its
        ``armed_total``/``cancelled_total``/``fired_total``/``live``.
        """
        return self._timers

    def arm_timer(self, deadline_ms: float,
                  callback: Callable[[], None]) -> Timer:
        """Arm ``callback`` to run at virtual time ``deadline_ms``.

        Returns a :class:`Timer` handle whose :meth:`~Timer.cancel`
        drops the deadline — the idiom for protocol timeouts that are
        almost always won by the event they guard.  Unlike a heap
        :class:`Timeout`, a cancelled timer never schedules anything
        and never keeps :meth:`run` alive.
        """
        if deadline_ms < self._now:
            raise ValueError(
                f"deadline {deadline_ms} lies in the past "
                f"(now={self._now})")
        return self._timers.arm(deadline_ms, callback)

    # -- scheduling & execution -------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` ms from now."""
        eid = self._eid + 1
        self._eid = eid
        _heappush(self._queue, (self._now + delay, priority, eid, event))

    def peek(self) -> float:
        """Time of the next occurrence (heap event or timer), or
        ``inf`` if none."""
        timers = self._timers._heap
        when = timers[0][0] if timers else _INF
        if self._queue and self._queue[0][0] <= when:
            return self._queue[0][0]
        return when

    def step(self) -> None:
        """Process the single next occurrence: the earliest timer if
        it is strictly earlier than the heap head (ties go to the
        heap), else the next queued event.

        :meth:`run` repeats this body with the two structures bound to
        locals; the event-loop semantics live in these two places.
        """
        queue = self._queue
        timers = self._timers._heap
        if timers and (not queue or timers[0][0] < queue[0][0]):
            self._now = timers[0][0]
            self._timers._fire_next()
            return
        if not queue:
            raise SimulationError("no more events to process")
        when, _priority, _eid, event = _heappop(queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: crash the simulation loudly rather
            # than letting errors pass silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until nothing is left or virtual time reaches ``until``.

        ``until`` plants an urgent stop event whose callback unwinds
        the loop, so the loop itself never tests for it.  With a
        metrics registry installed the processed-occurrence count is
        published as ``sim.events`` (even if the run raises) from
        bookkeeping around the loop: heap pops are events scheduled
        minus queue growth, plus timers fired, minus the stop event.
        """
        queue = self._queue
        timer_queue = self._timers
        timers = timer_queue._heap
        pop = _heappop
        base = self._eid - len(queue) + timer_queue.fired_total
        stop: Optional[Event] = None
        if until is not None:
            if until < self._now:
                raise ValueError(
                    f"until={until} lies in the past (now={self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(_stop_run)
            self.schedule(stop, delay=until - self._now,
                          priority=self.PRIORITY_URGENT)
        try:
            # One frame per occurrence: step()'s body with the queue,
            # the timer list and ``heappop`` as locals.
            while True:
                if timers:
                    if not queue or timers[0][0] < queue[0][0]:
                        self._now = timers[0][0]
                        timer_queue._fire_next()
                        continue
                elif not queue:
                    break
                when, _priority, _eid, event = pop(queue)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except _StopRun:
            pass
        finally:
            processed = (self._eid - len(queue) + timer_queue.fired_total
                         - base)
            if stop is not None:
                if stop.callbacks is None:
                    processed -= 1
                else:
                    # Still queued (the run raised first): it must not
                    # end some later run.
                    stop.callbacks = []
            if processed and self.metrics is not None:
                self.metrics.inc("sim.events", float(processed))
