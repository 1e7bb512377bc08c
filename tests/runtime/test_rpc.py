"""Unit tests for the RPC layer."""

import pytest

from repro.runtime.network import Link, Network
from repro.runtime.rpc import RpcEndpoint, RpcError
from repro.runtime.simulator import Simulator


def make_pair():
    sim = Simulator()
    net = Network(sim, seed=3)
    server = RpcEndpoint(net, "server")
    client = RpcEndpoint(net, "client")
    return sim, net, server, client


def test_roundtrip():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    future = client.call("server", "add", 2, 3)
    assert not future.done
    sim.run()
    assert future.result() == 5


def test_kwargs_passed():
    sim, net, server, client = make_pair()
    server.register("greet", lambda name, punct="!": f"hi {name}{punct}")
    future = client.call("server", "greet", "bob", punct="?")
    sim.run()
    assert future.result() == "hi bob?"


def test_unknown_method_fails():
    sim, net, server, client = make_pair()
    future = client.call("server", "nope")
    sim.run()
    assert future.failed
    with pytest.raises(RpcError, match="unknown method"):
        future.result()


def test_remote_exception_propagates():
    sim, net, server, client = make_pair()

    def boom():
        raise ValueError("bad input")

    server.register("boom", boom)
    future = client.call("server", "boom")
    sim.run()
    with pytest.raises(RpcError, match="ValueError: bad input"):
        future.result()


def test_timeout_fires_when_partitioned():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    net.partition({"client"}, {"server"})
    future = client.call("server", "add", 1, 1, timeout=2.0)
    sim.run()
    assert future.failed
    with pytest.raises(RpcError, match="timeout"):
        future.result()


def test_timeout_cancelled_on_success():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    future = client.call("server", "add", 1, 1, timeout=60.0)
    sim.run()
    assert future.result() == 2
    assert sim.now < 1.0  # did not wait for the timeout


def test_result_before_done_raises():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    future = client.call("server", "add", 1, 1)
    with pytest.raises(RpcError, match="not yet complete"):
        future.result()


def test_on_done_callback():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    results = []
    future = client.call("server", "add", 4, 4)
    future.on_done(lambda f: results.append(f.result()))
    sim.run()
    assert results == [8]


def test_on_done_after_completion_fires_immediately():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    future = client.call("server", "add", 4, 4)
    sim.run()
    results = []
    future.on_done(lambda f: results.append(f.result()))
    assert results == [8]


def test_default_timeout_reaps_lost_reply():
    """Regression: a call with no explicit timeout whose reply is lost
    must not leave its pending record in the endpoint forever."""
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    # request delivered, reply dropped by loss on the return link
    net.set_link("server", "client", Link(loss_probability=1.0))
    future = client.call("server", "add", 1, 1)
    sim.run()
    assert future.failed
    with pytest.raises(RpcError, match="timeout"):
        future.result()
    assert client._pending == {}


def test_explicit_none_timeout_waits_forever_but_fails_on_link_down():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    net.set_link("server", "client", Link(loss_probability=1.0))
    future = client.call("server", "add", 1, 1, timeout=None)
    sim.run_until(1000.0)
    assert not future.done  # no timeout was armed
    net.partition({"client"}, {"server"})
    assert future.failed
    with pytest.raises(RpcError, match="link down"):
        future.result()
    assert client._pending == {}


def test_link_down_fails_pending_calls_promptly():
    """A partition while a call is in flight fails it immediately rather
    than making the caller wait out the full timeout."""
    sim, net, server, client = make_pair()
    never = []
    server.register("slow", lambda: never.append(1))
    net.set_link("client", "server", Link(base_delay=5.0))
    future = client.call("server", "slow", timeout=120.0)
    sim.run_until(1.0)
    net.partition({"client"}, {"server"})
    assert future.failed
    assert sim.now < 2.0  # did not wait for the 120s timeout
    assert client._pending == {}


def test_link_down_between_other_nodes_leaves_pending_calls_alone():
    sim, net, server, client = make_pair()
    net.add_node("bystander", lambda m: None)
    server.register("add", lambda a, b: a + b)
    net.set_link("client", "server", Link(base_delay=1.0))
    future = client.call("server", "add", 1, 1)
    net.partition({"bystander"}, {"server"})
    sim.run_until(5.0)
    assert future.result() == 2


def test_rpc_latency_matches_link():
    sim, net, server, client = make_pair()
    net.set_link("client", "server", Link(base_delay=0.1))
    net.set_link("server", "client", Link(base_delay=0.2))
    server.register("noop", lambda: None)
    future = client.call("server", "noop")
    done_at = []
    future.on_done(lambda f: done_at.append(sim.now))
    sim.run()
    assert done_at[0] == pytest.approx(0.3)


# ----------------------------------------------------------- retry machinery

from repro.runtime.rpc import RetryPolicy


def test_retry_succeeds_across_transient_partition():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    net.partition({"client"}, {"server"})
    policy = RetryPolicy(max_attempts=6, base_delay=0.5, multiplier=2.0, jitter=0.1)
    future = client.call("server", "add", 2, 2, timeout=1.0, retry=policy)
    sim.schedule(3.0, net.heal, {"client"}, {"server"})
    sim.run_until(60.0)
    assert future.result() == 4
    assert client.stats.retries >= 1
    assert server.stats.executions == 1


def test_retry_budget_exhausted_fails_with_attempt_count():
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    net.partition({"client"}, {"server"})
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, retry_on_link_down=False)
    future = client.call("server", "add", 1, 1, timeout=0.5, retry=policy)
    sim.run_until(60.0)
    assert future.failed
    with pytest.raises(RpcError) as excinfo:
        future.result()
    err = excinfo.value
    assert err.dest == "server"
    assert err.method == "add"
    assert err.attempts == 3
    assert "timeout" in str(err)
    assert "'add'" in str(err) and "'server'" in str(err) and "3 attempt(s)" in str(err)


def test_remote_exception_is_not_retried():
    sim, net, server, client = make_pair()
    calls = []

    def boom():
        calls.append(1)
        raise ValueError("bad input")

    server.register("boom", boom)
    policy = RetryPolicy(max_attempts=5, base_delay=0.1)
    future = client.call("server", "boom", retry=policy)
    sim.run()
    with pytest.raises(RpcError, match="ValueError: bad input"):
        future.result()
    assert len(calls) == 1  # a definite remote answer is never retried


def test_at_most_once_under_network_duplication():
    """Every message (request AND reply) is duplicated by the fault
    injector, yet the counting handler runs exactly once per call."""
    sim, net, server, client = make_pair()
    count = [0]

    def bump(n):
        count[0] += 1
        return n

    server.register("bump", bump)
    net.set_fault_injector(lambda message, delay: [delay, delay + 0.002])
    futures = [client.call("server", "bump", i) for i in range(20)]
    sim.run()
    assert [f.result() for f in futures] == list(range(20))
    assert count[0] == 20
    assert server.stats.executions == 20
    assert server.stats.duplicates_suppressed >= 20
    assert net.stats.duplicated >= 40


def test_at_most_once_when_reply_lost_and_retried():
    """The request arrives and executes, the reply dies; the retry must be
    answered from the dedup cache, not re-execute the handler."""
    sim, net, server, client = make_pair()
    count = [0]

    def bump():
        count[0] += 1
        return count[0]

    server.register("bump", bump)
    # first reply lost, later replies pass
    net.set_link("server", "client", Link(loss_probability=1.0))
    sim.schedule(1.0, net.set_link, "server", "client", Link())
    policy = RetryPolicy(max_attempts=4, base_delay=0.6, jitter=0.0)
    future = client.call("server", "bump", timeout=0.5, retry=policy)
    sim.run_until(30.0)
    assert future.result() == 1
    assert count[0] == 1                      # executed once, not per attempt
    assert client.stats.retries >= 1
    assert server.stats.replies_resent >= 1


def test_dedup_window_expires():
    sim, net, server, client = make_pair()
    count = [0]

    def bump():
        count[0] += 1
        return count[0]

    server.register("bump", bump)
    future = client.call("server", "bump")
    sim.run()
    assert future.result() == 1
    assert len(server._served) == 1
    # after the window, the next request purges the forgotten entry
    sim.run_until(sim.now + server.dedup_window + 1.0)
    future2 = client.call("server", "bump")
    sim.run()
    assert future2.result() == 2
    assert len(server._served) == 1  # only the fresh call remains


def _queued_entries(sim):
    """Every entry tuple still physically queued in the wheel kernel."""
    for level in (sim._l0, sim._l1, sim._l2):
        for slot in level:
            yield from slot
    yield from sim._overflow


def test_cancelled_timeouts_do_not_accumulate_in_simulator():
    """Satellite regression: a reply arriving well before the timeout
    must free the timer event (callback and, eventually, its queue slot)
    — long soaks otherwise accumulate dead _PendingCall timers for the
    full 60-second default timeout."""
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    n = 600
    for i in range(n):
        future = client.call("server", "add", i, 1)
        sim.run_until(sim.now + 0.01)
        assert future.result() == i + 1
    # cancelled entries must never keep their closures alive...
    assert all(
        entry.fn is None
        for _, _, entry in _queued_entries(sim)
        if entry.cancelled and not entry.reusable
    )
    # ...and compaction keeps the queue from growing linearly with calls
    assert sum(1 for _ in _queued_entries(sim)) < n
    assert sim.cancelled_pending() <= 256
    assert client._pending == {}


# ---------------------------------------------------------------- ISSUE 6

from repro.runtime.rpc import BreakerPolicy


def test_spurious_timeout_does_not_count():
    """Satellite regression: a timeout firing for a call that already
    resolved must not bump ``stats.timeouts``."""
    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    future = client.call("server", "add", 1, 2, timeout=5.0)
    sim.run_until(1.0)
    assert future.result() == 3
    # fire the (stale) timeout path by hand — the timer itself was
    # cancelled at resolve, so this models a spurious/stale firing
    client._on_timeout(1)
    assert client.stats.timeouts == 0


def test_real_timeout_still_counts():
    sim, net, server, client = make_pair()
    net.partition({"client"}, {"server"})
    future = client.call("server", "add", 1, 2, timeout=0.5)
    sim.run_until(5.0)
    assert future.failed
    assert client.stats.timeouts == 1


def make_breaker_pair(threshold=3, cooldown=1.0):
    sim = Simulator()
    net = Network(sim, seed=3)
    server = RpcEndpoint(net, "server")
    client = RpcEndpoint(
        net,
        "client",
        breaker=BreakerPolicy(failure_threshold=threshold, cooldown=cooldown),
    )
    return sim, net, server, client


def test_breaker_opens_after_consecutive_failures_and_fails_fast():
    sim, net, server, client = make_breaker_pair(threshold=3, cooldown=10.0)
    server.register("add", lambda a, b: a + b)
    net.node("server").up = False            # silent peer: every attempt times out
    futures = [client.call("server", "add", i, 1, timeout=0.5) for i in range(3)]
    sim.run_until(5.0)
    assert all(f.failed for f in futures)
    assert client.stats.breaker_opens == 1
    sent_before = client.stats.requests_sent
    fast = client.call("server", "add", 9, 9, timeout=0.5)
    sim.run_until(6.0)
    assert fast.failed
    with pytest.raises(RpcError, match="circuit open"):
        fast.result()
    # the fast-failed call never touched the wire
    assert client.stats.requests_sent == sent_before
    assert client.stats.breaker_fast_failures == 1


def test_breaker_half_open_probe_closes_on_recovery():
    sim, net, server, client = make_breaker_pair(threshold=3, cooldown=2.0)
    server.register("add", lambda a, b: a + b)
    net.node("server").up = False
    for i in range(3):
        client.call("server", "add", i, 1, timeout=0.5)
    sim.run_until(5.0)
    assert client.stats.breaker_opens == 1
    net.node("server").up = True             # peer recovers during cooldown
    sim.run_until(10.0)                      # let the cooldown elapse
    probe = client.call("server", "add", 2, 2, timeout=0.5)
    sim.run_until(11.0)
    assert probe.result() == 4
    assert client.stats.breaker_probes == 1
    assert client.stats.breaker_closes == 1
    after = client.call("server", "add", 3, 3, timeout=0.5)
    sim.run_until(12.0)
    assert after.result() == 6               # circuit closed again


def test_breaker_half_open_probe_failure_reopens():
    sim, net, server, client = make_breaker_pair(threshold=3, cooldown=2.0)
    net.node("server").up = False
    for i in range(3):
        client.call("server", "add", i, 1, timeout=0.5)
    sim.run_until(5.0)
    probe = client.call("server", "add", 2, 2, timeout=0.5)   # half-open probe
    shed = client.call("server", "add", 3, 3, timeout=0.5)    # beyond the probe budget
    sim.run_until(8.0)
    assert probe.failed and shed.failed
    with pytest.raises(RpcError, match="circuit open"):
        shed.result()
    assert client.stats.breaker_probes == 1
    assert client.stats.breaker_opens == 2   # the failed probe re-opened it


def test_remote_exception_counts_as_peer_alive():
    """A remote error is a definite answer: it must reset the breaker,
    not walk it toward open."""
    sim, net, server, client = make_breaker_pair(threshold=2, cooldown=1.0)

    def boom():
        raise ValueError("bad")

    server.register("boom", boom)
    for _ in range(5):
        future = client.call("server", "boom", timeout=1.0)
        sim.run_until(sim.now + 2.0)
        assert future.failed
    assert client.stats.breaker_opens == 0


def test_retransmission_into_down_link_fails_fast():
    """Satellite regression: retries toward a link the endpoint observed
    down must not wait out the full per-attempt timeout each."""
    from repro.runtime.rpc import RetryPolicy

    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    policy = RetryPolicy(max_attempts=5, base_delay=0.2, multiplier=1.0, jitter=0.0)
    future = client.call("server", "add", 1, 1, timeout=10.0, retry=policy)
    net.partition({"client"}, {"server"})    # dooms attempt 1, observed down
    sim.run_until(60.0)
    assert future.failed
    # all remaining attempts drained at backoff pace (0.2s each), not at
    # the 10s per-attempt timeout: the whole call dies in ~1s
    assert client.stats.link_down_fast_fails >= 3
    assert client.stats.timeouts == 0
    # only the first attempt ever hit the wire
    assert client.stats.requests_sent == 1


def test_down_link_fast_fail_recovers_after_heal():
    from repro.runtime.rpc import RetryPolicy

    sim, net, server, client = make_pair()
    server.register("add", lambda a, b: a + b)
    policy = RetryPolicy(max_attempts=8, base_delay=0.5, multiplier=2.0, jitter=0.0)
    future = client.call("server", "add", 2, 2, timeout=5.0, retry=policy)
    net.partition({"client"}, {"server"})
    sim.schedule(3.0, net.heal, {"client"}, {"server"})
    sim.run_until(60.0)
    assert future.result() == 4
    assert client.stats.link_down_fast_fails >= 1
    assert server.stats.executions == 1
