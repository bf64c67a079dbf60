"""The batched aggregate load engine and its vectorized samplers.

``AggregateLoad`` draws from its own (numpy) sample path, not the
per-client one, so it is pinned for determinism: the same seed gives
the same issue sequence.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import Environment, RandomStreams
from repro.workload import (
    AggregateLoad,
    BuyTransactionFactory,
    DiurnalModulation,
    HotspotAccess,
    ModulatedArrivals,
    PoissonArrivals,
    UniformAccess,
    ZipfianAccess,
)


class _Recorder:
    """Issuer capturing (time, keys, hot) triples and read arrivals."""

    def __init__(self, env):
        self.env = env
        self.calls = []
        self.reads = []

    def issue(self, writes, touches_hotspot):
        self.calls.append(
            (self.env.now, tuple(op.key for op in writes), touches_hotspot))

    def issue_read(self, keys):
        self.reads.append((self.env.now, tuple(keys)))


def _drive(seed=11, duration_ms=4_000.0, **kwargs):
    env = Environment()
    streams = RandomStreams(seed=seed)
    factory = BuyTransactionFactory(HotspotAccess(200, 20, hot_prob=0.8))
    issuer = _Recorder(env)
    load = AggregateLoad(env, factory, issuer, 300.0, streams, **kwargs)
    load.start(duration_ms=duration_ms)
    env.run(until=duration_ms)
    return issuer, load


# -- determinism ---------------------------------------------------------

def test_vectorized_mode_deterministic_at_large_n():
    def run_once():
        env = Environment()
        streams = RandomStreams(seed=29)
        factory = BuyTransactionFactory(ZipfianAccess(10_000, s=0.99))
        issuer = _Recorder(env)
        load = AggregateLoad(env, factory, issuer, 5_000.0, streams,
                             mode="vectorized", batch_size=2_048,
                             population=100_000)
        load.start(duration_ms=10_000.0)
        env.run(until=10_000.0)
        hasher = hashlib.sha256()
        for call in issuer.calls:
            hasher.update(repr(call).encode())
        return len(issuer.calls), load.distinct_clients(), hasher.hexdigest()

    first = run_once()
    assert first == run_once()
    count, clients, _digest = first
    # ~5k tx/s for 10 simulated seconds, all attributed to users.
    assert 45_000 < count < 55_000
    assert 0 < clients <= 100_000


def test_vectorized_experiment_deterministic():
    # The paths the large-N pin skips: hotspot keys, read-only
    # arrivals, and a time-modulated arrival process.
    def drive():
        arrivals = ModulatedArrivals(PoissonArrivals(300.0),
                                     DiurnalModulation(period_ms=2_000.0))
        issuer, load = _drive(read_fraction=0.3, batch_size=64,
                              arrivals=arrivals)
        return issuer.calls, issuer.reads, load.issued, load.reads_issued

    first = drive()
    assert first == drive()
    calls, reads, issued, reads_issued = first
    assert (len(calls), len(reads)) == (issued, reads_issued)
    assert issued > 0 and reads_issued > 0


def test_stop_cancels_pending_batch():
    env = Environment()
    streams = RandomStreams(seed=1)
    factory = BuyTransactionFactory(UniformAccess(50))
    issuer = _Recorder(env)
    load = AggregateLoad(env, factory, issuer, 100.0, streams)
    load.start()

    def stopper(env):
        yield env.timeout(500.0)
        load.stop()

    env.process(stopper(env))
    env.run()
    assert env.now == 500.0
    assert all(when <= 500.0 for when, _keys, _hot in issuer.calls)
    assert load.issued == len(issuer.calls)


def test_validation():
    env = Environment()
    streams = RandomStreams(seed=1)
    factory = BuyTransactionFactory(UniformAccess(50))
    issuer = _Recorder(env)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, mode="psychic")
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, mode="exact")
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, batch_size=0)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, population=-1)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams,
                      read_fraction=1.5)


# -- vectorized batch samplers -------------------------------------------

def test_uniform_sample_batch_distinct_and_cold():
    rng = RandomStreams(seed=5).numpy_generator("t")
    pattern = UniformAccess(100)
    counts = np.array([1, 2, 3, 4] * 25)
    keys, hot = pattern.sample_batch(rng, counts)
    assert len(keys) == 100
    assert not hot.any()
    for row, count in zip(keys, counts):
        assert len(row) == count
        assert len(set(row)) == count


def test_uniform_sample_batch_rejects_oversize():
    rng = RandomStreams(seed=5).numpy_generator("t")
    with pytest.raises(ValueError):
        UniformAccess(3).sample_batch(rng, np.array([4]))


def test_hotspot_sample_batch_regions_and_flags():
    rng = RandomStreams(seed=6).numpy_generator("t")
    pattern = HotspotAccess(1_000, 10, hot_prob=0.9)
    keys, hot = pattern.sample_batch(rng, np.full(500, 3))
    hot_fraction = hot.mean()
    assert 0.8 < hot_fraction < 0.97
    for row, is_hot in zip(keys, hot):
        assert len(set(row)) == len(row)
        for key in row:
            assert pattern.is_hot(key) == bool(is_hot)


def test_hotspot_sample_batch_clamps_to_hot_pool():
    """A hot transaction asking for more items than the hotspot holds
    is clamped, exactly like the scalar path."""
    rng = RandomStreams(seed=7).numpy_generator("t")
    pattern = HotspotAccess(100, 2, hot_prob=1.0)
    keys, hot = pattern.sample_batch(rng, np.array([4, 4]))
    assert hot.all()
    for row in keys:
        assert len(row) == 2
        assert len(set(row)) == 2


def test_hotspot_sample_batch_degenerate_all_hot():
    rng = RandomStreams(seed=8).numpy_generator("t")
    pattern = HotspotAccess(10, 10, hot_prob=0.0)
    keys, hot = pattern.sample_batch(rng, np.full(20, 2))
    assert hot.all()
    for row in keys:
        assert all(pattern.is_hot(key) for key in row)


def test_zipf_sample_batch_skew_and_hot_flags():
    rng = RandomStreams(seed=9).numpy_generator("t")
    pattern = ZipfianAccess(1_000, s=1.1, hot_top=10)
    keys, hot = pattern.sample_batch(rng, np.full(2_000, 2))
    head = sum(1 for row in keys for key in row
               if int(key.rsplit(":", 1)[1]) < 10)
    total = sum(len(row) for row in keys)
    assert head / total > 0.3  # power-law head mass
    for row, is_hot in zip(keys, hot):
        assert len(set(row)) == len(row)
        assert bool(is_hot) == any(pattern.is_hot(key) for key in row)


def test_build_batch_matches_scalar_shape():
    rng = RandomStreams(seed=10).numpy_generator("t")
    factory = BuyTransactionFactory(UniformAccess(500), min_items=2,
                                    max_items=3, quantity=5,
                                    enforce_stock_floor=True)
    writes, hot = factory.build_batch(rng, 50)
    assert len(writes) == 50
    assert len(hot) == 50
    for txn in writes:
        assert 2 <= len(txn) <= 3
        for op in txn:
            assert op.update.value == -5
            assert op.update.floor == 0
