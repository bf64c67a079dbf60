"""AtomicityGuard: yield-point snapshots, witnesses, zero perturbation.

A ``GuardSpec`` names a suspected race, and a run either produces an
``AtomicityWitness`` (the interleaving is real) or demonstrates the
field never mutates across that suspension.  Its hard contract is
transparency — installing it must not change a single simulated event,
pinned here by comparing history digests with and without it.
"""

import pytest

from repro.check import (
    AtomicityGuard,
    CheckConfig,
    GuardSpec,
    default_guard,
    run_check,
)
from repro.sim import Environment
from repro.sim.kernel import Interrupt


class Counter:
    """A deliberately racy service: the handler mutates ``items``
    while the main loop is suspended."""

    def __init__(self, env):
        self.env = env
        self.items = []
        self.epoch = 0

    def loop(self):
        snapshot = self.items
        yield self.env.timeout(10)
        return len(snapshot)

    def mutate(self):
        yield self.env.timeout(5)
        self.items.append("intruder")
        self.epoch += 1


def _guarded_env(specs):
    env = Environment()
    guard = AtomicityGuard(specs)
    guard.install(env)
    return env, guard


# -- witnesses ----------------------------------------------------------------


def test_witness_recorded_for_cross_yield_mutation():
    env, guard = _guarded_env(
        [GuardSpec("Counter", ("items",), rule="RACE001",
                   origin="tests/fixture:1")])
    counter = Counter(env)
    env.process(counter.loop())
    env.process(counter.mutate())
    env.run()
    assert guard.triggered
    (witness,) = [w for w in guard.witnesses if w.attr == "items"]
    assert witness.rule == "RACE001"
    assert witness.class_name == "Counter"
    assert witness.function == "loop"
    assert witness.time_suspended == 0.0
    assert witness.time_resumed == 10.0
    assert "intruder" in witness.after
    assert "intruder" not in witness.before
    assert witness.origin == "tests/fixture:1"
    assert "Counter.items changed" in witness.format()


def test_no_witness_without_interleaved_mutation():
    env, guard = _guarded_env([GuardSpec("Counter", ("items", "epoch"))])
    counter = Counter(env)
    env.process(counter.loop())  # nothing mutates concurrently
    env.run()
    assert not guard.triggered
    assert guard.witnesses == []


def test_unguarded_classes_pass_through_unwrapped():
    env, guard = _guarded_env([GuardSpec("SomethingElse", ("items",))])
    counter = Counter(env)
    env.process(counter.loop())
    env.process(counter.mutate())
    env.run()
    assert not guard.triggered


def test_multiple_attrs_tracked_independently():
    env, guard = _guarded_env([GuardSpec("Counter", ("items", "epoch"))])
    counter = Counter(env)
    env.process(counter.loop())
    env.process(counter.mutate())
    env.run()
    assert {w.attr for w in guard.witnesses} == {"items", "epoch"}


# -- shim transparency --------------------------------------------------------


def test_return_value_and_join_preserved():
    env, guard = _guarded_env([GuardSpec("Counter", ("items",))])
    counter = Counter(env)
    proc = env.process(counter.loop())
    collected = []

    def joiner():
        value = yield proc
        collected.append(value)

    env.process(joiner())
    env.run()
    # loop() returned len(snapshot) == 0 through the shim.
    assert collected == [0]


def test_exceptions_propagate_through_shim():
    class Faulty:
        def __init__(self, env):
            self.env = env
            self.state = 0

        def boom(self):
            yield self.env.timeout(1)
            raise ValueError("inner failure")

    env, guard = _guarded_env([GuardSpec("Faulty", ("state",))])
    faulty = Faulty(env)
    env.process(faulty.boom())
    with pytest.raises(ValueError, match="inner failure"):
        env.run()


def test_interrupt_delivered_through_shim():
    class Sleeper:
        def __init__(self, env):
            self.env = env
            self.naps = 0

        def sleep(self):
            try:
                yield self.env.timeout(1_000)
            except Interrupt as interrupt:
                return interrupt.cause

    env, guard = _guarded_env([GuardSpec("Sleeper", ("naps",))])
    sleeper = Sleeper(env)
    proc = env.process(sleeper.sleep())
    results = []

    def interrupter():
        yield env.timeout(3)
        proc.interrupt("wake")
        value = yield proc
        results.append(value)

    env.process(interrupter())
    env.run()
    assert results == ["wake"]


def test_install_refuses_double_wrap():
    env = Environment()
    AtomicityGuard([]).install(env)
    with pytest.raises(RuntimeError):
        AtomicityGuard([]).install(env)


# -- zero perturbation over the real system -----------------------------------


def test_history_digest_identical_with_guard():
    config = CheckConfig(seed=11, n_txns=12, n_faults=3)
    bare = run_check(config)
    guarded = run_check(config, atomicity=default_guard())
    assert bare.history.digest() == guarded.history.digest()
    assert bare.atomicity is None
    assert guarded.atomicity is not None
    assert guarded.stats["atomicity_witnesses"] == float(
        len(guarded.atomicity))


def test_run_check_surfaces_witnesses():
    # The default watchlist covers the coordinator's in-flight table,
    # which handlers legitimately mutate while other coroutines wait —
    # a busy run must therefore observe at least one cross-yield
    # mutation, proving the sanitizer sees through the real stack.
    config = CheckConfig(seed=3, n_txns=25)
    result = run_check(config, atomicity=default_guard())
    assert result.atomicity is not None
    assert len(result.atomicity) > 0
    witness = result.atomicity[0]
    assert witness.class_name in ("TransactionManager", "StorageNode")
    assert witness.format()
