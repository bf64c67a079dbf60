"""Request/response RPC over the raw transport.

An :class:`RpcEndpoint` owns a transport address.  Outgoing calls
return a kernel event that fires with the response payload (or fails
with :class:`RpcTimeout`).  Incoming requests are dispatched to
registered handlers by message kind; a handler's return value is sent
back as the response.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.net.transport import Message, Transport
from repro.sim import Environment, Event, Timer


class RpcError(RuntimeError):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """The response did not arrive within the caller's deadline."""


class RpcEndpoint:
    """A node's attachment point to the network.

    Handlers are plain callables ``handler(payload, src_address) ->
    response`` registered per message kind.  Handlers that need to wait
    (e.g. a leader running a Paxos round) should instead send their
    response later via :meth:`respond`; they signal this by returning
    :data:`NO_REPLY`.
    """

    #: Sentinel a handler returns when it will respond asynchronously.
    NO_REPLY = object()

    __slots__ = ("env", "transport", "address", "datacenter",
                 "service_time_ms", "service_overrides", "_handlers",
                 "_pending", "_timers", "_queue", "_serving",
                 "max_queue_depth", "current_span")

    def __init__(self, env: Environment, transport: Transport,
                 address: str, datacenter: int,
                 service_time_ms: float = 0.0,
                 service_overrides: Optional[Dict[str, float]] = None):
        if service_time_ms < 0:
            raise ValueError("negative service time")
        if service_overrides and any(v < 0 for v in
                                     service_overrides.values()):
            raise ValueError("negative service time override")
        self.env = env
        self.transport = transport
        self.address = address
        self.datacenter = datacenter
        #: Per-message processing cost.  When positive (or when any
        #: override is), incoming messages are served one at a time
        #: from a FIFO queue — the finite-capacity server model that
        #: lets overload experiments exhibit queueing and thrashing.
        #: ``service_overrides`` prices specific message kinds
        #: differently (e.g. a disk-bound ``phase2a``); replies use the
        #: base cost.
        self.service_time_ms = float(service_time_ms)
        self.service_overrides = dict(service_overrides or {})
        self._handlers: Dict[str, Callable[[Any, str], Any]] = {}
        self._pending: Dict[int, Event] = {}
        #: Timers guarding in-flight calls, keyed by msg_id; the
        #: reply path cancels them, so a call that gets its response
        #: before the deadline never touches the event heap at all.
        self._timers: Dict[int, Timer] = {}
        self._queue: Deque[Message] = deque()
        self._serving = False
        #: High-water mark of the service queue (observability).
        self.max_queue_depth = 0
        #: The span context of the request currently being dispatched
        #: (``None`` outside a handler, or when the sender attached no
        #: span).  Handlers read this to parent their own spans under
        #: the remote caller's.
        self.current_span: Optional[Tuple[str, str]] = None
        transport.register(address, datacenter, self._on_message)

    # -- server side --------------------------------------------------------

    def on(self, kind: str, handler: Callable[[Any, str], Any]) -> None:
        """Register ``handler`` for incoming requests of ``kind``."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def respond(self, request: Message, payload: Any) -> None:
        """Send an asynchronous response to ``request``.

        The response rides in the request's span context, so the
        caller's trace shows the reply leg too.
        """
        self.transport.send(self.datacenter, Message(
            src=self.address, dst=request.src, kind=f"{request.kind}.reply",
            payload=payload, msg_id=self.transport.next_msg_id(),
            reply_to=request.msg_id, span=request.span))

    # -- client side --------------------------------------------------------

    def call(self, dst: str, kind: str, payload: Any,
             timeout_ms: Optional[float] = None,
             span: Optional[Tuple[str, str]] = None) -> Event:
        """Send a request; the returned event fires with the response.

        With ``timeout_ms`` set, the event instead *fails* with
        :class:`RpcTimeout` if no response arrives in time.  Without a
        timeout the event may never fire (e.g. across a partition) —
        callers combine it with their own deadline events.  ``span``
        is the caller's span context; it rides on the message so the
        receiver can stitch its spans under the caller's trace.

        Deadlines are armed on the kernel's cancelable timer queue:
        the common case (reply before deadline) cancels the timer and
        never schedules a heap event or spawns an expiry process.  The
        ``rpc_timeout`` perf bench pins that.
        """
        message = Message(src=self.address, dst=dst, kind=kind,
                          payload=payload,
                          msg_id=self.transport.next_msg_id(), span=span)
        result = self.env.event()
        self._pending[message.msg_id] = result
        self.transport.send(self.datacenter, message)
        if timeout_ms is not None:
            msg_id = message.msg_id
            self._timers[msg_id] = self.env.arm_timer(
                self.env.now + timeout_ms,
                lambda: self._expire(msg_id, timeout_ms))
        return result

    def cast(self, dst: str, kind: str, payload: Any,
             span: Optional[Tuple[str, str]] = None) -> None:
        """One-way message with no response expected."""
        self.transport.send(self.datacenter, Message(
            src=self.address, dst=dst, kind=kind, payload=payload,
            msg_id=self.transport.next_msg_id(), span=span))

    # -- internals ------------------------------------------------------------

    def _expire(self, msg_id: int, timeout_ms: float) -> None:
        """Timer callback: the deadline passed with no reply."""
        self._timers.pop(msg_id, None)
        event = self._pending.pop(msg_id, None)
        if event is not None and not event.triggered:
            event.fail(RpcTimeout(f"no response within {timeout_ms} ms"))

    def _service_time_for(self, message: Message) -> float:
        if message.reply_to is not None:
            return self.service_time_ms
        return self.service_overrides.get(message.kind,
                                          self.service_time_ms)

    def _on_message(self, message: Message) -> None:
        if self.service_time_ms <= 0 and not self.service_overrides:
            self._dispatch(message)
            return
        self._queue.append(message)
        if len(self._queue) > self.max_queue_depth:
            self.max_queue_depth = len(self._queue)
        if not self._serving:
            self._serving = True
            self.env.process(self._serve())

    def _serve(self):
        """Drain the FIFO queue, one service time per message."""
        while self._queue:
            cost = self._service_time_for(self._queue[0])
            if cost > 0:
                yield self.env.timeout(cost)
            self._dispatch(self._queue.popleft())
        self._serving = False

    def _dispatch(self, message: Message) -> None:
        if message.reply_to is not None:
            timer = self._timers.pop(message.reply_to, None)
            if timer is not None:
                timer.cancel()
            event = self._pending.pop(message.reply_to, None)
            if event is not None and not event.triggered:
                event.succeed(message.payload)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unknown kinds are dropped, like a real server
        self.current_span = message.span
        try:
            response = handler(message.payload, message.src)
        finally:
            self.current_span = None
        if response is not RpcEndpoint.NO_REPLY:
            self.respond(message, response)
