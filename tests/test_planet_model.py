"""Behavioural tests for the PLANET programming model (§3, §4.1).

These tests pin down the stage-block semantics of Figure 2/3: exactly
one stage block runs within the timeout, acceptance and completion
fire the right blocks at the right times, speculative commits obey the
threshold, and the finally callbacks deliver the apology path.
"""

import math
import random

import pytest

from repro.core import (
    FINISH_TX,
    AdmissionPolicy,
    CommitLikelihoodModel,
    DynamicPolicy,
    OracleLatencySource,
    PlanetSession,
    RemoteCallbackService,
    TxState,
)
from repro.mdcc import Cluster
from repro.net import uniform_topology
from repro.sim import Environment, RandomStreams
from repro.storage import Update, WriteOp


class RejectAll(AdmissionPolicy):
    def decide(self, likelihood, rng):
        return False

    def describe(self):
        return "reject-all"


def make_env(n_dc=3, one_way=50.0, mastership="hash", seed=21, items=20):
    env = Environment()
    topo = uniform_topology(n_dc, one_way_ms=one_way, sigma=0.02)
    streams = RandomStreams(seed=seed)
    cluster = Cluster(env, topo, streams, mastership=mastership)
    cluster.load({f"item:{i}": 100 for i in range(items)})
    return env, cluster


def make_model(cluster, topo_samples=800):
    matrix = OracleLatencySource(cluster.topology, cluster.streams,
                                 samples=topo_samples).latency_matrix()
    model = CommitLikelihoodModel(
        matrix, cluster.mastership.leader_distribution())
    model.precompute()
    return model


def run_tx(env, session, writes, timeout_ms, threshold=None,
           with_accept=True, with_complete=True):
    """Wire a standard instrumented transaction; returns (tx, fired)."""
    fired = []
    tx = session.transaction(writes, timeout_ms=timeout_ms)
    tx.on_failure(lambda i: fired.append(("failure", i)))
    if with_accept:
        tx.on_accept(lambda i: fired.append(("accept", i)))
    if with_complete:
        tx.on_complete(lambda i: fired.append(("complete", i)),
                       threshold=threshold)
    tx.finally_callback(lambda i: fired.append(("finally", i)))
    return tx.execute(), fired


def stage_names(fired):
    return [name for name, _info in fired]


# ---------------------------------------------------------------- validation


def test_on_failure_required():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0)
    tx = session.transaction([WriteOp("item:1", Update.delta(-1))],
                             timeout_ms=300)
    with pytest.raises(ValueError, match="on_failure"):
        tx.execute()


def test_on_progress_exclusive_with_stages():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0)
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=300)
          .on_failure(lambda i: None)
          .on_progress(lambda i: None))
    with pytest.raises(ValueError, match="generalized"):
        tx.execute()


def test_bad_threshold_rejected():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0)
    tx = session.transaction([WriteOp("item:1", Update.delta(-1))],
                             timeout_ms=300)
    with pytest.raises(ValueError):
        tx.on_complete(lambda i: None, threshold=1.5)
    with pytest.raises(ValueError):
        tx.on_complete(lambda i: None, threshold=0.0)


def test_bad_timeout_rejected():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0)
    with pytest.raises(ValueError):
        session.transaction([WriteOp("item:1", Update.delta(-1))],
                            timeout_ms=0)


# ---------------------------------------------------------------- staged flow


def test_complete_fires_when_decided_before_timeout():
    env, cluster = make_env(one_way=20.0)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000)
    env.run()
    assert stage_names(fired) == ["complete", "finally"]
    complete_info = fired[0][1]
    assert complete_info.state is TxState.COMMITTED
    assert complete_info.success
    assert not complete_info.timed_out
    assert tx.stage_fired == "complete"
    assert not tx.spec_committed


def test_accept_fires_at_timeout_when_undecided():
    # Local leader -> fast acceptance; remote quorum -> slow decision.
    env, cluster = make_env(one_way=50.0, mastership=0)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=20)
    env.run()
    assert stage_names(fired) == ["accept", "finally"]
    accept_info = fired[0][1]
    assert accept_info.state is TxState.ACCEPTED
    assert accept_info.timed_out
    assert tx.stage_fired_ms == pytest.approx(tx.start_ms + 20)
    # The transaction still completed after the timeout (Assurance).
    finally_info = fired[1][1]
    assert finally_info.state is TxState.COMMITTED
    assert finally_info.timed_out


def test_failure_fires_at_timeout_before_acceptance():
    # Remote leader: the proposal ack itself takes a WAN round trip.
    env, cluster = make_env(one_way=50.0, mastership=1)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=20)
    env.run()
    assert stage_names(fired) == ["failure", "finally"]
    failure_info = fired[0][1]
    assert failure_info.state is TxState.UNKNOWN
    assert failure_info.timed_out
    # Uncertainty resolves later through the finally callback.
    assert fired[1][1].state is TxState.COMMITTED


def test_early_accept_without_on_complete():
    # Twitter pattern (Listing 4): onFailure + onAccept only; onAccept
    # must run at acceptance, not at the timeout.
    env, cluster = make_env(one_way=50.0, mastership=0)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000, with_complete=False)
    env.run()
    assert stage_names(fired)[0] == "accept"
    assert tx.stage_fired_ms - tx.start_ms < 100  # long before the timeout
    assert fired[0][1].state is TxState.ACCEPTED


def test_atm_pattern_failure_then_success_apology():
    # ATM (Listing 3): no onAccept; timeout -> onFailure even though
    # accepted; the remote finally callback reports the late commit.
    env, cluster = make_env(one_way=50.0, mastership=0)
    session = PlanetSession(cluster, "web", 0)
    apologies = []
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=20)
          .on_failure(lambda i: apologies.append(("failure", i.state)))
          .on_complete(lambda i: apologies.append(("complete", i.state)))
          .finally_callback_remote(
              lambda i: apologies.append(("remote", i.state, i.timed_out))))
    planet_tx = tx.execute()
    env.run()
    assert apologies[0] == ("failure", TxState.ACCEPTED)
    assert apologies[-1] == ("remote", TxState.COMMITTED, True)
    assert planet_tx.committed


def test_only_one_stage_block_fires():
    env, cluster = make_env(one_way=20.0)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000)
    env.run()
    stage_blocks = [n for n in stage_names(fired) if n != "finally"]
    assert len(stage_blocks) == 1


def test_infinite_timeout_allowed():
    env, cluster = make_env(one_way=20.0)
    session = PlanetSession(cluster, "web", 0)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=math.inf)
    env.run()
    assert stage_names(fired) == ["complete", "finally"]
    assert not fired[0][1].timed_out


# ---------------------------------------------------------------- speculation


def test_spec_commit_fires_immediately_at_high_likelihood():
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000, threshold=0.95)
    env.run()
    assert stage_names(fired) == ["complete", "finally"]
    assert fired[0][1].state is TxState.SPEC_COMMITTED
    assert tx.spec_committed
    assert tx.commit_response_ms < 10  # read + likelihood, no WAN wait
    assert tx.committed  # the real outcome confirmed the guess
    assert not tx.spec_incorrect
    assert fired[1][1].state is TxState.COMMITTED


def test_initial_likelihood_is_product_of_record_likelihoods():
    # Eq. 9: a transaction's likelihood is the product of its records'
    # eq. 8b likelihoods, each at the leader and arrival rate its read
    # reply carried, with the think time as the window shift w.
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    keys = ["item:1", "item:2", "item:3"]
    warm = PlanetSession(cluster, "warm", 1)
    for round_ in range(6):
        for key in keys:
            run_tx(env, warm, [WriteOp(key, Update.delta(-1))],
                   timeout_ms=5_000)
        env.run(until=env.now + 40.0 * (round_ + 1))
    session = PlanetSession(cluster, "web", 0, model=model)
    tx = (session.transaction([WriteOp(key, Update.delta(-1))
                               for key in keys],
                              timeout_ms=5_000, think_time_ms=7.0)
          .on_failure(lambda i: None))
    planet_tx = tx.execute()
    env.run()
    replies = planet_tx.handle.reads
    assert len(replies) == len(keys)
    assert any(reply.arrival_rate > 0 for reply in replies.values())
    expected = 1.0
    for reply in replies.values():
        expected *= model.record_likelihood(
            0, reply.leader_dc, reply.arrival_rate, w_ms=7.0)
    assert planet_tx.initial_likelihood == expected
    assert 0.0 < expected < 1.0


def test_spec_commit_threshold_one_never_speculates():
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000, threshold=1.0)
    env.run()
    assert not tx.spec_committed
    assert fired[0][1].state is TxState.COMMITTED


def test_incorrect_spec_commit_is_apologized():
    env, cluster = make_env(one_way=50.0, mastership=0)
    model = make_model(cluster)
    rival = PlanetSession(cluster, "rival", 0)  # co-located with leader
    session = PlanetSession(cluster, "web", 1, model=model)  # remote
    fired = []

    def driver(env):
        # The rival grabs the record first; by the time our transaction
        # proposes, the conflict window is open but the arrival-rate
        # statistics barely register it, so we still speculate.
        (rival.transaction([WriteOp("item:1", Update.delta(-1))],
                           timeout_ms=math.inf)
         .on_failure(lambda i: None)).execute()
        yield env.timeout(5)
        tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                                  timeout_ms=5_000)
              .on_failure(lambda i: fired.append(("failure", i.state)))
              .on_complete(lambda i: fired.append(("complete", i.state)),
                           threshold=0.9)
              .finally_callback(
                  lambda i: fired.append(("finally", i.state))))
        planet_tx = tx.execute()
        yield planet_tx.final_event
        assert planet_tx.spec_committed
        assert planet_tx.spec_incorrect

    env.process(driver(env))
    env.run()
    assert ("complete", TxState.SPEC_COMMITTED) in fired
    assert ("finally", TxState.ABORTED) in fired


def test_spec_commit_not_after_timeout():
    # Timeout fires before the likelihood ever reaches the threshold
    # (model absent until learned messages resolve, rate high).
    env, cluster = make_env(one_way=50.0, mastership=1)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    # Saturate the arrival rate so the initial likelihood is ~0.
    leader = cluster.leader_node("item:1")
    local = cluster.node_for(0, "item:1")
    for _ in range(2000):
        local.access_stats.record_access("item:1", env.now)
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=20, threshold=0.95)
    env.run()
    assert not tx.spec_committed
    assert stage_names(fired)[0] == "failure"


# ---------------------------------------------------------------- admission


def test_admission_rejection_short_circuits():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0, admission=RejectAll())
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000)
    env.run()
    assert tx.state is TxState.REJECTED
    assert tx.admitted is False
    assert stage_names(fired) == ["complete", "finally"]
    assert fired[0][1].state is TxState.REJECTED
    assert not fired[0][1].success
    # Nothing was proposed: no option traffic for this key.
    assert cluster.leader_node("item:1").proposals == 0
    assert session.tm.started == 0


def test_admission_rejection_without_on_complete_uses_failure():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0, admission=RejectAll())
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000, with_complete=False,
                       with_accept=False)
    env.run()
    assert stage_names(fired) == ["failure", "finally"]
    assert fired[0][1].state is TxState.REJECTED


def test_dynamic_policy_attempts_high_likelihood():
    env, cluster = make_env()
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model,
                            admission=DynamicPolicy(50))
    tx, fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                       timeout_ms=5_000)
    env.run()
    assert tx.admitted is True
    assert tx.committed


# ---------------------------------------------------------------- finally


def test_finally_callback_suppressed_by_crash():
    env, cluster = make_env(one_way=50.0)
    session = PlanetSession(cluster, "web", 0)
    local_calls = []
    remote_calls = []

    def driver(env):
        tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                                  timeout_ms=20)
              .on_failure(lambda i: None)
              .finally_callback(lambda i: local_calls.append(i.state))
              .finally_callback_remote(lambda i: remote_calls.append(i.state)))
        tx.execute()
        yield env.timeout(30)
        session.crash()  # application server dies after the timeout

    env.process(driver(env))
    env.run()
    assert local_calls == []  # at-most-once: lost with the client
    assert remote_calls == [TxState.COMMITTED]  # at-least-once: survives


def test_remote_callback_duplicates_tolerated():
    env, cluster = make_env(one_way=20.0)
    service = RemoteCallbackService(env, cluster.streams,
                                    duplicate_prob=1.0)
    session = PlanetSession(cluster, "web", 0, remote_service=service)
    remote_calls = []
    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_failure(lambda i: None)
          .finally_callback_remote(lambda i: remote_calls.append(i.state)))
    tx.execute()
    env.run()
    assert remote_calls == [TxState.COMMITTED, TxState.COMMITTED]


def test_final_event_and_closed_event():
    env, cluster = make_env(one_way=20.0)
    session = PlanetSession(cluster, "web", 0)
    order = []

    def driver(env):
        tx, _fired = run_tx(env, session,
                            [WriteOp("item:1", Update.delta(-1))],
                            timeout_ms=5_000)
        info = yield tx.closed_event
        order.append(("closed", info.stage))
        info = yield tx.final_event
        order.append(("final", info.state))

    env.process(driver(env))
    env.run()
    assert order == [("closed", "complete"),
                     ("final", TxState.COMMITTED)]


# ---------------------------------------------------------------- generalized


def test_on_progress_sees_state_changes_and_finishes():
    env, cluster = make_env(one_way=50.0, mastership=0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    seen = []

    def progress(info):
        seen.append((info.stage, info.state))
        if info.stage == "decided":
            return FINISH_TX
        return None

    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_progress(progress)
          .finally_callback(lambda i: seen.append(("finally", i.state))))
    planet_tx = tx.execute()
    env.run()
    stages = [stage for stage, _state in seen]
    assert stages[0] == "likelihood"
    assert "accepted" in stages
    assert "learned" in stages
    assert "decided" in stages
    assert stages[-1] == "finally"
    assert planet_tx.stage_fired == "progress"
    assert planet_tx.returned


def test_on_progress_timeout_event():
    env, cluster = make_env(one_way=50.0, mastership=1)
    session = PlanetSession(cluster, "web", 0)
    seen = []

    def progress(info):
        seen.append((info.stage, info.timed_out))
        if info.timed_out:
            return FINISH_TX
        return None

    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=20)
          .on_progress(progress))
    planet_tx = tx.execute()
    env.run()
    assert ("timeout", True) in seen
    assert planet_tx.returned


def test_user_defined_commit_via_on_progress():
    # §4.1.2: the developer redefines commit as "accepted" — control
    # returns at acceptance, long before the Paxos round settles.
    env, cluster = make_env(one_way=50.0, mastership=0)
    session = PlanetSession(cluster, "web", 0)

    def progress(info):
        if info.state is TxState.ACCEPTED:
            return FINISH_TX
        return None

    tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                              timeout_ms=5_000)
          .on_progress(progress))
    planet_tx = tx.execute()
    env.run()
    assert planet_tx.returned
    assert planet_tx.stage_fired_ms - planet_tx.start_ms < 50
    assert planet_tx.committed  # still completed underneath


# ---------------------------------------------------------------- bookkeeping


def test_likelihood_drops_to_zero_on_rejected_option():
    env, cluster = make_env(one_way=50.0, mastership=0)
    rival = PlanetSession(cluster, "rival", 0)
    session = PlanetSession(cluster, "web", 0)
    trace = []

    def driver(env):
        (rival.transaction([WriteOp("item:1", Update.delta(-1))],
                           timeout_ms=math.inf)
         .on_failure(lambda i: None)).execute()
        yield env.timeout(5)
        tx = (session.transaction([WriteOp("item:1", Update.delta(-1))],
                                  timeout_ms=5_000)
              .on_progress(lambda i: trace.append(
                  (i.stage, i.commit_likelihood))))
        planet_tx = tx.execute()
        yield planet_tx.final_event
        assert planet_tx.committed is False
        assert planet_tx.current_likelihood == 0.0

    env.process(driver(env))
    env.run()
    learned = [l for stage, l in trace if stage == "learned"]
    assert learned and learned[-1] == 0.0


def test_transactions_recorded_on_session():
    env, cluster = make_env(one_way=20.0)
    session = PlanetSession(cluster, "web", 0)
    for key in ("item:1", "item:2"):
        run_tx(env, session, [WriteOp(key, Update.delta(-1))],
               timeout_ms=5_000)
    env.run()
    assert len(session.transactions) == 2
    assert all(t.committed for t in session.transactions)


# ---------------------------------------------------------------- estimation


def test_estimate_commit_time_matches_measurement():
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    estimate = session.estimate_commit_time(
        [WriteOp("item:1", Update.delta(-1))], percentile=0.5)
    tx, _fired = run_tx(env, session, [WriteOp("item:1", Update.delta(-1))],
                        timeout_ms=math.inf)
    env.run()
    measured = tx.decided_ms - tx.start_ms
    # Estimate within a factor of ~1.5 of the observed commit latency.
    assert estimate == pytest.approx(measured, rel=0.5)


def test_estimate_commit_time_grows_with_percentile():
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    writes = [WriteOp("item:1", Update.delta(-1)),
              WriteOp("item:2", Update.delta(-1))]
    p50 = session.estimate_commit_time(writes, percentile=0.5)
    p99 = session.estimate_commit_time(writes, percentile=0.99)
    assert p99 >= p50 > 0


def test_estimate_commit_time_requires_model():
    env, cluster = make_env()
    session = PlanetSession(cluster, "web", 0)
    with pytest.raises(RuntimeError):
        session.estimate_commit_time([WriteOp("item:1", Update.delta(-1))])
    model = make_model(cluster)
    session.model = model
    with pytest.raises(ValueError):
        session.estimate_commit_time([])


def test_suggest_timeout_beats_actual_commits():
    env, cluster = make_env(one_way=50.0)
    model = make_model(cluster)
    session = PlanetSession(cluster, "web", 0, model=model)
    writes = [WriteOp("item:1", Update.delta(-1))]
    timeout = session.suggest_timeout(writes, confidence=0.99)
    finished = []
    for i in range(5):
        tx, fired = run_tx(env, session,
                           [WriteOp(f"item:{i}", Update.delta(-1))],
                           timeout_ms=timeout)
        finished.append((tx, fired))
    env.run()
    # With a 99%-confidence timeout, these uncontended commits all
    # complete inside it (the complete stage fired, not failure).
    for tx, fired in finished:
        assert stage_names(fired)[0] == "complete"
    with pytest.raises(ValueError):
        session.suggest_timeout(writes, margin=0.5)
