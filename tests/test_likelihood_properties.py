"""Property-style tests for the commit-likelihood model (§5.1.2).

Rather than pinning single values, these check the shape of the model:
likelihoods are probabilities, they decay monotonically in conflict
pressure (arrival rate, processing time w, transaction size), and the
zero-pressure limit is certainty.
"""

import pytest

from repro.core.histograms import Pmf
from repro.core.likelihood import CommitLikelihoodModel, LatencyMatrix

N_DC = 3
BIN_MS = 2.0
N_BINS = 256

RATES = [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 0.02, 0.1, 0.5]
WAITS = [0.0, 10.0, 50.0, 200.0, 1_000.0]


def make_model(rtt_ms: float = 40.0, quorum=None,
               sizes=None, **fast_knobs) -> CommitLikelihoodModel:
    rtts = {(a, b): Pmf.point(rtt_ms, BIN_MS, N_BINS)
            for a in range(N_DC) for b in range(a + 1, N_DC)}
    matrix = LatencyMatrix(N_DC, rtts, BIN_MS, N_BINS)
    model = CommitLikelihoodModel(
        matrix, leader_distribution=[1.0 / N_DC] * N_DC,
        quorum=quorum, size_distribution=sizes, **fast_knobs)
    model.precompute()
    return model


@pytest.fixture(scope="module")
def model() -> CommitLikelihoodModel:
    return make_model()


def all_cells():
    return [(client, leader) for client in range(N_DC)
            for leader in range(N_DC)]


def test_likelihood_is_a_probability(model):
    for client, leader in all_cells():
        for rate in RATES:
            for w_ms in WAITS:
                likelihood = model.record_likelihood(client, leader,
                                                     rate, w_ms)
                assert 0.0 <= likelihood <= 1.0, \
                    (client, leader, rate, w_ms, likelihood)


def test_zero_arrival_rate_means_certain_commit(model):
    for client, leader in all_cells():
        assert model.record_likelihood(client, leader, 0.0) \
            == pytest.approx(1.0)
        assert model.record_likelihood(client, leader, 0.0,
                                       w_ms=10_000.0) \
            == pytest.approx(1.0)


def test_monotone_non_increasing_in_arrival_rate(model):
    for client, leader in all_cells():
        previous = 1.0 + 1e-12
        for rate in RATES:
            likelihood = model.record_likelihood(client, leader, rate)
            assert likelihood <= previous + 1e-12, (client, leader, rate)
            previous = likelihood


def test_monotone_non_increasing_in_processing_time(model):
    rate = 1e-3
    for client, leader in all_cells():
        previous = 1.0 + 1e-12
        for w_ms in WAITS:
            likelihood = model.record_likelihood(client, leader, rate,
                                                 w_ms)
            assert likelihood <= previous + 1e-12, (client, leader, w_ms)
            previous = likelihood


def test_positive_pressure_costs_something(model):
    # A busy record during a nonzero window cannot be a sure commit.
    likelihood = model.record_likelihood(0, 1, 0.05)
    assert likelihood < 1.0


def test_larger_quorum_lengthens_the_window():
    fast = make_model(quorum=1)
    slow = make_model(quorum=N_DC)
    rate = 2e-3
    for client, leader in all_cells():
        assert slow.record_likelihood(client, leader, rate) \
            <= fast.record_likelihood(client, leader, rate) + 1e-12


def test_bigger_previous_transactions_lower_the_likelihood():
    small = make_model(sizes={1: 1.0})
    large = make_model(sizes={8: 1.0})
    rate = 2e-3
    for client, leader in all_cells():
        assert large.record_likelihood(client, leader, rate) \
            <= small.record_likelihood(client, leader, rate) + 1e-12


def test_farther_topology_lowers_the_likelihood():
    near = make_model(rtt_ms=20.0)
    far = make_model(rtt_ms=200.0)
    rate = 2e-3
    for client, leader in all_cells():
        assert far.record_likelihood(client, leader, rate) \
            <= near.record_likelihood(client, leader, rate) + 1e-12


# -- fast ballots (⌈3N/4⌉ quorum + collision-recovery branch) ----------------


def test_fast_likelihood_is_a_probability():
    model = make_model(mode="fast", collision_probability=0.1)
    for client, leader in all_cells():
        for rate in RATES:
            for w_ms in (0.0, 50.0, 1_000.0):
                likelihood = model.record_likelihood(client, leader,
                                                     rate, w_ms)
                assert 0.0 <= likelihood <= 1.0, \
                    (client, leader, rate, w_ms, likelihood)


def test_fast_with_majority_quorum_and_no_collisions_is_classic():
    # At N=3 the default fast quorum ⌈9/4⌉ = 3 exceeds the classic
    # majority of 2 — but forcing the fast quorum down to the
    # majority with p=0 must reproduce the classic chain exactly:
    # the mode knob alone changes no math.
    classic = make_model()
    degraded = make_model(mode="fast", fast_quorum=2,
                          collision_probability=0.0)
    rate = 2e-3
    for client, leader in all_cells():
        for w_ms in (0.0, 50.0):
            assert degraded.record_likelihood(client, leader, rate, w_ms) \
                == classic.record_likelihood(client, leader, rate, w_ms)


def test_larger_fast_quorum_lengthens_the_window():
    rate = 2e-3
    previous = None
    for fast_quorum in (1, 2, 3):
        model = make_model(mode="fast", fast_quorum=fast_quorum)
        likelihoods = [model.record_likelihood(client, leader, rate)
                       for client, leader in all_cells()]
        if previous is not None:
            for tighter, looser in zip(likelihoods, previous):
                assert tighter <= looser + 1e-12
        previous = likelihoods


def test_fast_likelihood_decays_with_rtt():
    near = make_model(rtt_ms=20.0, mode="fast",
                      collision_probability=0.05)
    far = make_model(rtt_ms=200.0, mode="fast",
                     collision_probability=0.05)
    rate = 2e-3
    for client, leader in all_cells():
        assert far.record_likelihood(client, leader, rate) \
            <= near.record_likelihood(client, leader, rate) + 1e-12


def test_collision_probability_decays_the_likelihood():
    # Each extra point of collision probability mixes in more of the
    # longer recovery branch, so the likelihood is non-increasing in p
    # (strictly decreasing under positive pressure).
    rate = 2e-3
    previous = None
    for p in (0.0, 0.1, 0.5, 1.0):
        model = make_model(mode="fast", collision_probability=p)
        likelihoods = [model.record_likelihood(client, leader, rate)
                       for client, leader in all_cells()]
        if previous is not None:
            for riskier, safer in zip(likelihoods, previous):
                assert riskier <= safer + 1e-12
        previous = likelihoods
    certain = make_model(mode="fast", collision_probability=0.0)
    colliding = make_model(mode="fast", collision_probability=0.5)
    assert colliding.record_likelihood(0, 1, rate) \
        < certain.record_likelihood(0, 1, rate)


def test_collision_probability_is_inert_at_zero_pressure():
    model = make_model(mode="fast", collision_probability=0.9)
    for client, leader in all_cells():
        assert model.record_likelihood(client, leader, 0.0) \
            == pytest.approx(1.0)


def test_fast_refresh_matches_a_cold_precompute():
    # The recovery mixture couples every cell to the classic quorum
    # chain, so a dirty link under p > 0 forces the exact full
    # rebuild — which must agree with a from-scratch model.
    def matrix(cross_ms):
        rtts = {(a, b): Pmf.point(cross_ms if (a, b) == (0, 1) else 40.0,
                                  BIN_MS, N_BINS)
                for a in range(N_DC) for b in range(a + 1, N_DC)}
        return LatencyMatrix(N_DC, rtts, BIN_MS, N_BINS)

    knobs = dict(leader_distribution=[1.0 / N_DC] * N_DC,
                 mode="fast", collision_probability=0.2)
    model = CommitLikelihoodModel(matrix(40.0), **knobs)
    model.precompute()
    changed = model.refresh(
        rtt_updates={(0, 1): Pmf.point(80.0, BIN_MS, N_BINS),
                     (1, 0): Pmf.point(80.0, BIN_MS, N_BINS)})
    assert changed == set(all_cells())  # p > 0 rebuilds every cell
    cold = CommitLikelihoodModel(matrix(80.0), **knobs)
    cold.precompute()
    for client, leader in all_cells():
        assert model.record_likelihood(client, leader, 2e-3) \
            == pytest.approx(cold.record_likelihood(client, leader, 2e-3),
                             abs=1e-12)
    # A no-op refresh stays a no-op even under the fast mixture.
    assert model.refresh() == set()


def test_fast_knobs_are_validated():
    with pytest.raises(ValueError):
        make_model(mode="turbo")
    with pytest.raises(ValueError):
        make_model(mode="fast", collision_probability=1.5)
    with pytest.raises(ValueError):
        make_model(mode="fast", fast_quorum=N_DC + 1)
    with pytest.raises(ValueError):
        make_model(mode="classic", fast_quorum=2)
