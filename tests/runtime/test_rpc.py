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
    server.register("add", lambda caller, a, b: a + b)
    future = client.call("server", "add", 2, 3)
    assert not future.done
    sim.run()
    assert future.result() == 5


def test_kwargs_passed():
    sim, net, server, client = make_pair()
    server.register("greet", lambda caller, name, punct="!": f"hi {name}{punct}")
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

    def boom(caller):
        raise ValueError("bad input")

    server.register("boom", boom)
    future = client.call("server", "boom")
    sim.run()
    with pytest.raises(RpcError, match="ValueError: bad input"):
        future.result()


def test_timeout_fires_when_partitioned():
    """A cut the endpoint cannot observe (a link that drops everything,
    with no link-down notification) ends in the timeout."""
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    net.set_link("client", "server", Link(loss_probability=1.0))
    future = client.call("server", "add", 1, 1, timeout=2.0)
    sim.run()
    assert future.failed
    assert sim.now == pytest.approx(2.0)
    with pytest.raises(RpcError, match="timeout"):
        future.result()


def test_down_link_fast_fail_recovers_after_heal():
    """A call toward a peer whose link the endpoint has seen go down (and
    not yet come back) fails at once, without a send; after the link-up
    the next call goes through."""
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    net.partition({"client"}, {"server"})
    sent = net.stats.messages_sent
    future = client.call("server", "add", 1, 1, timeout=2.0)
    assert future.failed                      # resolved inside call()
    with pytest.raises(RpcError, match="link down"):
        future.result()
    assert net.stats.messages_sent == sent
    assert client.stats.link_down_fast_fails == 1
    assert client.stats.requests_sent == 0 and client._pending == {}
    net.heal({"client"}, {"server"})
    after = client.call("server", "add", 2, 2, timeout=2.0)
    sim.run()
    assert after.result() == 4
    assert client.stats.timeouts == 0


def test_remote_exception_is_not_retried():
    sim, net, server, client = make_pair()
    calls = []

    def boom(caller):
        calls.append(1)
        raise ValueError("bad input")

    server.register("boom", boom)
    future = client.call("server", "boom")
    sim.run()
    with pytest.raises(RpcError, match="ValueError: bad input"):
        future.result()
    assert len(calls) == 1  # a definite remote answer is never retried
    assert client.stats.requests_sent == 1


def test_handler_receives_the_callers_address():
    """The channel names the caller: the handler's first argument is the
    calling node's address, whatever the arguments claim."""
    sim, net, server, client = make_pair()
    server.register("whoami", lambda caller, claimed: (caller, claimed))
    future = client.call("server", "whoami", "server")
    sim.run()
    assert tuple(future.result()) == ("client", "server")


def test_network_duplicate_runs_the_handler_again():
    """No reply cache: a duplicated request executes twice, and the
    first reply resolves the call (handlers must be idempotent)."""
    sim, net, server, client = make_pair()
    count = [0]

    def bump(caller):
        count[0] += 1
        return count[0]

    server.register("bump", bump)
    net.set_fault_injector(lambda message, delay: [delay, delay + 0.002])
    future = client.call("server", "bump")
    sim.run()
    assert future.result() == 1
    assert count[0] == server.stats.executions == 2
    assert server.stats.duplicates_suppressed == 0
    assert client.stats.retries == 0


def test_timeout_cancelled_on_success():
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    future = client.call("server", "add", 1, 1, timeout=60.0)
    sim.run()
    assert future.result() == 2
    assert sim.now < 1.0  # did not wait for the timeout


def test_result_before_done_raises():
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    future = client.call("server", "add", 1, 1)
    with pytest.raises(RpcError, match="not yet complete"):
        future.result()


def test_on_done_callback():
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    results = []
    future = client.call("server", "add", 4, 4)
    future.on_done(lambda f: results.append(f.result()))
    sim.run()
    assert results == [8]


def test_on_done_after_completion_fires_immediately():
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    future = client.call("server", "add", 4, 4)
    sim.run()
    results = []
    future.on_done(lambda f: results.append(f.result()))
    assert results == [8]


def test_default_timeout_reaps_lost_reply():
    """Regression: a call with no explicit timeout whose reply is lost
    must not leave its pending record in the endpoint forever."""
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
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
    server.register("add", lambda caller, a, b: a + b)
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
    server.register("slow", lambda caller: never.append(1))
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
    server.register("add", lambda caller, a, b: a + b)
    net.set_link("client", "server", Link(base_delay=1.0))
    future = client.call("server", "add", 1, 1)
    net.partition({"bystander"}, {"server"})
    sim.run_until(5.0)
    assert future.result() == 2


def test_rpc_latency_matches_link():
    sim, net, server, client = make_pair()
    net.set_link("client", "server", Link(base_delay=0.1))
    net.set_link("server", "client", Link(base_delay=0.2))
    server.register("noop", lambda caller: None)
    future = client.call("server", "noop")
    done_at = []
    future.on_done(lambda f: done_at.append(sim.now))
    sim.run()
    assert done_at[0] == pytest.approx(0.3)


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
    server.register("add", lambda caller, a, b: a + b)
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


def test_spurious_timeout_does_not_count():
    """Satellite regression: a timeout firing for a call that already
    resolved must not bump ``stats.timeouts``."""
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    future = client.call("server", "add", 1, 2, timeout=5.0)
    sim.run_until(1.0)
    assert future.result() == 3
    # fire the (stale) timeout path by hand — the timer itself was
    # cancelled at resolve, so this models a spurious/stale firing
    client._on_timeout(1)
    assert client.stats.timeouts == 0


def test_real_timeout_still_counts():
    sim, net, server, client = make_pair()
    net.set_link("client", "server", Link(loss_probability=1.0))
    future = client.call("server", "add", 1, 2, timeout=0.5)
    sim.run_until(5.0)
    assert future.failed
    assert client.stats.timeouts == 1


def test_remote_exception_counts_as_peer_alive():
    """A remote error is a definite answer from a live peer: it never
    makes later calls fail fast the way a link-down notification does."""
    sim, net, server, client = make_pair()

    def boom(caller):
        raise ValueError("bad")

    server.register("boom", boom)
    server.register("add", lambda caller, a, b: a + b)
    for _ in range(5):
        future = client.call("server", "boom", timeout=1.0)
        sim.run_until(sim.now + 2.0)
        assert future.failed
    after = client.call("server", "add", 1, 1, timeout=1.0)
    sim.run_until(sim.now + 2.0)
    assert after.result() == 2
    assert client.stats.link_down_fast_fails == 0


def test_retransmission_into_down_link_fails_fast():
    """A caller's retransmission toward a link the endpoint observed go
    down fails at once, without a send, instead of waiting out its
    timeout: only the first request ever hit the wire."""
    sim, net, server, client = make_pair()
    server.register("add", lambda caller, a, b: a + b)
    first = client.call("server", "add", 1, 1, timeout=10.0)
    net.partition({"client"}, {"server"})    # dooms the first, observed down
    assert first.failed
    retries = [client.call("server", "add", 1, 1, timeout=10.0) for _ in range(3)]
    assert all(f.failed for f in retries)
    sim.run_until(60.0)
    assert client.stats.link_down_fast_fails == 3
    assert client.stats.timeouts == 0
    assert client.stats.requests_sent == 1

