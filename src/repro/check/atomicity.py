"""Runtime yield-point atomicity sanitizer.

A simulated process may read a ``self.*`` attribute, suspend at a
yield, and act on the value after another handler has mutated it.
An :class:`AtomicityGuard`, installed on an
:class:`~repro.sim.kernel.Environment` via the kernel's
``process_wrapper`` hook, snapshots the guarded attributes of a
process's host object at every yield boundary and records an
:class:`AtomicityWitness` whenever the value actually changed while
the process was suspended.

Workflow: each suspected race becomes a :class:`GuardSpec` (class
name + attributes, tagged with a hazard label: ``RACE001`` for a
stale snapshot read across a yield, ``RACE002`` for check-then-act
across a yield); a fuzz sweep with the guard installed either
produces a witness (the race is real — fix it) or stays silent across
the sweep.

The guard is observation-only: it draws no randomness, schedules no
events, and never perturbs the run — history digests are byte-for-byte
identical with and without it (pinned by ``tests/test_atomicity.py``).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim.kernel import Environment

#: Bounded repr for snapshots: guarded attributes are often whole
#: dicts of in-flight transactions; witnesses must stay readable.
_repr = reprlib.Repr()
_repr.maxlevel = 3
_repr.maxdict = 8
_repr.maxlist = 8
_repr.maxstring = 80
_snapshot_repr = _repr.repr

#: Sentinel distinguishing "attribute missing" from any real value.
_ABSENT = object()


@dataclass(frozen=True)
class GuardSpec:
    """One suspected race translated into a runtime watch.

    ``class_name`` matches the type name of the generator's ``self``;
    ``attrs`` are the attribute names suspected of racing; ``rule`` is
    the hazard label (``RACE001``/``RACE002``); ``origin`` is free-form
    provenance.
    """

    class_name: str
    attrs: Tuple[str, ...]
    rule: str = "RACE001"
    origin: str = ""


@dataclass(frozen=True)
class AtomicityWitness:
    """One observed mutation of a guarded attribute across a yield."""

    rule: str
    class_name: str
    attr: str
    function: str
    time_suspended: float
    time_resumed: float
    before: str
    after: str
    origin: str = ""

    def format(self) -> str:
        return (f"[{self.rule}] {self.class_name}.{self.attr} changed "
                f"while {self.function}() was suspended "
                f"({self.time_suspended:g}ms -> {self.time_resumed:g}ms): "
                f"{self.before} -> {self.after}")


class AtomicityGuard:
    """Snapshots guarded fields at yield boundaries under fuzz runs.

    Install on an environment before building the system under test::

        guard = AtomicityGuard([GuardSpec("TransactionManager",
                                          ("_active",))])
        guard.install(env)
        ...build cluster, run...
        assert not guard.witnesses

    Only generators whose ``self`` is an instance of a guarded class
    pay any cost; everything else passes through untouched.
    """

    def __init__(self, specs: Iterable[GuardSpec]):
        self.specs: List[GuardSpec] = list(specs)
        self.witnesses: List[AtomicityWitness] = []
        self._by_class: Dict[str, List[GuardSpec]] = {}
        for spec in self.specs:
            self._by_class.setdefault(spec.class_name, []).append(spec)
        self._env: Optional[Environment] = None

    # -- lifecycle ---------------------------------------------------------

    def install(self, env: Environment) -> None:
        if env.process_wrapper is not None:
            raise RuntimeError("environment already has a process wrapper")
        self._env = env
        env.process_wrapper = self._wrap

    def detach(self, env: Environment) -> None:
        if env.process_wrapper is self._wrap:
            env.process_wrapper = None
        if self._env is env:
            self._env = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, generator: Generator) -> Generator:
        frame = getattr(generator, "gi_frame", None)
        host = frame.f_locals.get("self") if frame is not None else None
        if host is None:
            return generator
        specs = self._by_class.get(type(host).__name__)
        if not specs:
            return generator
        return self._guarded(generator, host, specs)

    def _guarded(self, generator: Generator, host: Any,
                 specs: List[GuardSpec]) -> Generator:
        """Transparent shim: forwards send/throw/close and return
        values unchanged, snapshotting around each suspension."""
        env = self._env
        function = getattr(generator, "__name__", "<generator>")
        to_send: Any = None
        to_throw: Optional[BaseException] = None
        while True:
            try:
                if to_throw is not None:
                    pending, to_throw = to_throw, None
                    item = generator.throw(pending)
                else:
                    item = generator.send(to_send)
            except StopIteration as stop:
                return stop.value
            snapshot = self._snapshot(host, specs)
            suspended_at = env.now if env is not None else 0.0
            try:
                to_send = yield item
                to_throw = None
            except BaseException as caught:
                to_throw = caught
                to_send = None
            resumed_at = env.now if env is not None else 0.0
            self._compare(host, specs, snapshot, function,
                          suspended_at, resumed_at)

    # -- snapshots ---------------------------------------------------------

    @staticmethod
    def _snapshot(host: Any,
                  specs: List[GuardSpec]) -> Dict[Tuple[str, str], str]:
        snapshot: Dict[Tuple[str, str], str] = {}
        for spec in specs:
            for attr in spec.attrs:
                value = getattr(host, attr, _ABSENT)
                rendered = ("<absent>" if value is _ABSENT
                            else _snapshot_repr(value))
                snapshot[(spec.rule, attr)] = rendered
        return snapshot

    def _compare(self, host: Any, specs: List[GuardSpec],
                 snapshot: Dict[Tuple[str, str], str], function: str,
                 suspended_at: float, resumed_at: float) -> None:
        for spec in specs:
            for attr in spec.attrs:
                before = snapshot[(spec.rule, attr)]
                value = getattr(host, attr, _ABSENT)
                after = ("<absent>" if value is _ABSENT
                         else _snapshot_repr(value))
                if before != after:
                    self.witnesses.append(AtomicityWitness(
                        rule=spec.rule,
                        class_name=spec.class_name,
                        attr=attr,
                        function=function,
                        time_suspended=suspended_at,
                        time_resumed=resumed_at,
                        before=before,
                        after=after,
                        origin=spec.origin))

    # -- reporting ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return bool(self.witnesses)

    def report(self, limit: int = 20) -> str:
        lines = [f"{len(self.witnesses)} atomicity witness(es)"]
        lines.extend(w.format() for w in self.witnesses[:limit])
        if len(self.witnesses) > limit:
            lines.append(f"... {len(self.witnesses) - limit} more")
        return "\n".join(lines)


#: The race watchlist for the shipped system: the coordinator's
#: in-flight transaction table and the storage node's mastership/round
#: state are the fields whose stale snapshot across a yield would
#: break a handler.  The nightly fuzz sweep runs with these installed.
DEFAULT_SPECS: Tuple[GuardSpec, ...] = (
    GuardSpec("TransactionManager", ("_active",), rule="RACE001",
              origin="watchlist: coordinator in-flight table"),
    GuardSpec("StorageNode", ("_round_active", "_ballots"), rule="RACE002",
              origin="watchlist: storage mastership/round state"),
)


def default_guard() -> AtomicityGuard:
    """A guard watching the shipped system's race-prone state."""
    return AtomicityGuard(DEFAULT_SPECS)
