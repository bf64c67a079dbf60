"""Tests for the commit-likelihood model (equations 1-9)."""

import math

import pytest

from repro.core.histograms import Pmf
from repro.core.likelihood import CommitLikelihoodModel, LatencyMatrix
from repro.core.statistics import OracleLatencySource
from repro.net import uniform_topology, ec2_five_dc
from repro.sim import RandomStreams


def constant_matrix(n=3, rtt_ms=40.0, bin_ms=1.0, n_bins=512):
    """Deterministic RTTs: every remote pair takes exactly rtt_ms."""
    pmfs = {
        (a, b): Pmf.point(rtt_ms, bin_ms, n_bins)
        for a in range(n) for b in range(n) if a != b
    }
    return LatencyMatrix(n, pmfs, bin_ms, n_bins)


def make_model(n=3, rtt_ms=40.0, **kwargs):
    model = CommitLikelihoodModel(
        constant_matrix(n=n, rtt_ms=rtt_ms),
        leader_distribution=[1.0 / n] * n, **kwargs)
    model.precompute()
    return model


# ---------------------------------------------------------------- matrix


def test_latency_matrix_symmetric_fallback():
    pmfs = {(0, 1): Pmf.point(40.0, 1.0, 64)}
    matrix = LatencyMatrix(2, pmfs, 1.0, 64)
    assert matrix.rtt(1, 0).mean() == matrix.rtt(0, 1).mean()


def test_latency_matrix_missing_pair_rejected():
    with pytest.raises(ValueError):
        LatencyMatrix(3, {(0, 1): Pmf.point(40.0, 1.0, 64)}, 1.0, 64)


def test_latency_matrix_one_way_is_half_rtt():
    matrix = constant_matrix(rtt_ms=40.0)
    assert matrix.one_way(0, 1).mean() == pytest.approx(20.5, abs=1.0)


def test_latency_matrix_local_is_fast():
    matrix = constant_matrix()
    assert matrix.rtt(1, 1).mean() < 2.0


# ---------------------------------------------------------------- model setup


def test_model_requires_precompute():
    model = CommitLikelihoodModel(constant_matrix(), [1 / 3] * 3)
    assert not model.ready
    with pytest.raises(RuntimeError):
        model.record_likelihood(0, 1, 0.001)


def test_model_validation():
    matrix = constant_matrix(n=3)
    with pytest.raises(ValueError):
        CommitLikelihoodModel(matrix, [0.5, 0.5])  # wrong length
    with pytest.raises(ValueError):
        CommitLikelihoodModel(matrix, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        CommitLikelihoodModel(matrix, [1 / 3] * 3, quorum=4)
    with pytest.raises(ValueError):
        CommitLikelihoodModel(matrix, [1 / 3] * 3,
                              client_distribution=[1.0, 0.0])
    with pytest.raises(ValueError):
        CommitLikelihoodModel(matrix, [1 / 3] * 3,
                              size_distribution={0: 1.0})


def test_size_distribution_folds_above_max():
    model = CommitLikelihoodModel(
        constant_matrix(), [1 / 3] * 3,
        size_distribution={1: 0.5, 99: 0.5}, max_size=4)
    assert model.size_dist == {1: 0.5, 4: 0.5}


# ---------------------------------------------------------------- behaviour


def test_zero_rate_gives_certain_commit():
    model = make_model()
    assert model.record_likelihood(0, 1, 0.0) == 1.0
    assert model.record_likelihood(0, 2, 0.0, w_ms=50.0) == 1.0


def test_likelihood_decreases_with_rate():
    model = make_model()
    rates = [0.0, 0.0001, 0.001, 0.01, 0.1]
    likelihoods = [model.record_likelihood(0, 1, r) for r in rates]
    assert likelihoods == sorted(likelihoods, reverse=True)
    assert likelihoods[-1] < 0.1


def test_likelihood_decreases_with_processing_time():
    model = make_model()
    fast = model.record_likelihood(0, 1, 0.002, w_ms=0.0)
    slow = model.record_likelihood(0, 1, 0.002, w_ms=500.0)
    assert slow < fast


def test_likelihood_decreases_with_latency():
    near = make_model(rtt_ms=20.0)
    far = make_model(rtt_ms=300.0)
    assert (far.record_likelihood(0, 1, 0.002)
            < near.record_likelihood(0, 1, 0.002))


def test_bigger_previous_transactions_lower_likelihood():
    small = make_model(size_distribution={1: 1.0})
    large = make_model(size_distribution={4: 1.0})
    assert (large.record_likelihood(0, 1, 0.002)
            < small.record_likelihood(0, 1, 0.002))


def test_conflict_window_deterministic_case():
    # With constant 40ms RTTs, 3 DCs, majority quorum: the quorum wait
    # at the leader is one remote round trip (40ms; the local vote is
    # instant, the 2nd vote arrives at 40ms).  learned + commit +
    # propose add three one-way hops, but their size depends on
    # client/leader placement; the window must sit in a plausible
    # 40-160ms band and never be negative.
    model = make_model(rtt_ms=40.0)
    window = model.conflict_window_pmf(0, 1)
    assert 40.0 <= window.mean() <= 160.0


def test_commit_time_pmf_scales_with_leaders():
    model = make_model(rtt_ms=40.0)
    one = model.commit_time_pmf(0, [1])
    # Max over more leaders cannot be faster.
    three = model.commit_time_pmf(0, [1, 2, 0])
    assert three.mean() >= one.mean() - 1e-9
    # A remote leader costs propose + quorum + learned >= 2 one-way
    # remote hops + one remote round trip ~= 80ms.
    assert one.mean() >= 75.0


# ---------------------------------------------------------------- accuracy


def test_model_accuracy_against_monte_carlo():
    """Eq. 8b should match a direct Monte-Carlo simulation of the
    conflict window within a few percent (uniform topology)."""
    streams = RandomStreams(seed=3)
    topo = uniform_topology(3, one_way_ms=20.0, sigma=0.1)
    matrix = OracleLatencySource(topo, streams, samples=3000,
                                 bin_ms=1.0, n_bins=512).latency_matrix()
    model = CommitLikelihoodModel(matrix, [1 / 3] * 3)
    model.precompute()

    rng = streams.get("mc")
    lam = 0.004  # updates per ms

    def sample_window():
        leader_prev = rng.randrange(3)
        cp = rng.randrange(3)
        cc, l_cur = 0, 1

        def one_way(a, b):
            if a == b:
                return 0.25
            return topo.latency(a, b).sample(rng)

        # quorum (majority of 3) at previous leader: 2nd fastest of
        # [local, rtt, rtt]; the local vote is ~instant so it's the
        # faster of the two remote round trips.
        rtts = sorted(
            one_way(leader_prev, b) + one_way(b, leader_prev)
            for b in range(3) if b != leader_prev)
        quorum = min(rtts)
        learned = one_way(leader_prev, cp)
        commit = one_way(cp, cc)
        propose = one_way(cc, l_cur)
        return quorum + learned + commit + propose

    trials = 4000
    import math as m
    mc = sum(m.exp(-lam * sample_window()) for _ in range(trials)) / trials
    predicted = model.record_likelihood(0, 1, lam)
    assert predicted == pytest.approx(mc, abs=0.05)


def test_ec2_matrix_precompute_runs():
    streams = RandomStreams(seed=4)
    topo = ec2_five_dc(spike_prob=0.0)
    matrix = OracleLatencySource(topo, streams, samples=500,
                                 bin_ms=2.0, n_bins=1024).latency_matrix()
    model = CommitLikelihoodModel(matrix, [0.2] * 5,
                                  size_distribution={1: 0.4, 2: 0.3,
                                                     3: 0.2, 4: 0.1})
    model.precompute()
    for leader, rate in ((3, 0.001), (2, 0.0005)):
        assert 0.0 < model.record_likelihood(0, leader, rate) < 1.0
