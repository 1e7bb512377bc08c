"""Unit tests for the wire-efficiency layer (batching, coalescing,
heartbeat piggybacking) and the NetworkStats counter surface."""

import pytest

from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Link, Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel, ChannelPool, WirePolicy


def make_world(**net_kwargs):
    sim = Simulator()
    net = Network(sim, seed=13, **net_kwargs)
    got = []

    def sink(message):
        for msg in wire.unpack(message):
            got.append((msg.kind, msg.payload))

    net.add_node("a", lambda m: None)
    net.add_node("b", sink)
    return sim, net, got


class TestBatching:
    def test_same_instant_sends_share_one_message(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        for i in range(10):
            channel.send("item", i)
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.payloads_carried == 10
        assert [p for _, p in got] == list(range(10))

    def test_size_flush_at_max_batch(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b", policy=WirePolicy(max_batch=4))
        for i in range(10):
            channel.send("item", i)
        channel.flush()
        sim.run()
        # 4 + 4 + 2 (explicit)
        assert net.stats.messages_sent == 3
        assert [p for _, p in got] == list(range(10))

    def test_time_flush_after_max_delay(self):
        sim, net, got = make_world()
        channel = BatchedChannel(
            net, "a", "b", policy=WirePolicy(max_batch=1000, max_delay=0.5)
        )
        channel.send("item", 1)
        sim.run_until(0.4)
        assert net.stats.messages_sent == 0  # still queued
        sim.run_until(0.4 + 0.5)
        assert net.stats.messages_sent == 1

    def test_urgent_send_flushes_immediately(self):
        sim, net, got = make_world()
        channel = BatchedChannel(
            net, "a", "b", policy=WirePolicy(max_batch=1000, max_delay=10.0)
        )
        channel.send("item", 1)
        channel.send("item", 2, urgent=True)
        assert channel.pending == 0
        sim.run_until(0.1)
        assert [p for _, p in got] == [1, 2]

    def test_flush_is_idempotent_and_empty_flush_sends_nothing(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        channel.flush()
        channel.send("item", 1)
        channel.flush()
        channel.flush()
        sim.run()
        assert net.stats.messages_sent == 1

    def test_batches_deliver_in_send_order(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b", policy=WirePolicy(max_batch=3))
        for i in range(9):
            channel.send("item", i)
        sim.run()
        assert [p for _, p in got] == list(range(9))

    def test_unpack_passes_plain_messages_through(self):
        sim, net, got = make_world()
        net.send("a", "b", "plain", {"x": 1})
        sim.run()
        assert got == [("plain", {"x": 1})]


class TestCoalescing:
    def test_last_state_wins(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        channel.send("state", "TRUE", coalesce_key="r1")
        channel.send("state", "UNKNOWN", coalesce_key="r1")
        channel.send("state", "FALSE", coalesce_key="r1")
        sim.run()
        assert got == [("state", "FALSE")]
        assert net.stats.messages_sent == 1
        assert net.stats.payloads_carried == 1
        assert net.stats.coalesced == 2
        assert channel.stats.coalesced == 2

    def test_coalescing_is_per_key(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        channel.send("state", ("r1", 1), coalesce_key="r1")
        channel.send("state", ("r2", 1), coalesce_key="r2")
        channel.send("state", ("r1", 2), coalesce_key="r1")
        sim.run()
        assert got == [("state", ("r1", 2)), ("state", ("r2", 1))]

    def test_coalescing_resets_after_flush(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        channel.send("state", 1, coalesce_key="k")
        channel.flush()
        channel.send("state", 2, coalesce_key="k")
        channel.flush()
        sim.run()
        assert [p for _, p in got] == [1, 2]
        assert net.stats.coalesced == 0

    def test_unkeyed_sends_never_coalesce(self):
        sim, net, got = make_world()
        channel = BatchedChannel(net, "a", "b")
        channel.send("event", "x")
        channel.send("event", "x")
        sim.run()
        assert len(got) == 2


class TestNetworkStats:
    def test_loss_probability_drops_are_counted(self):
        sim, net, got = make_world()
        net.set_link("a", "b", Link(loss_probability=1.0))
        net.send("a", "b", "ping", None)
        assert net.stats.dropped_by_loss == 1
        assert net.link_stats("a", "b").dropped_by_loss == 1
        assert net.stats.dropped_while_down == 0  # loss is not a link-down drop

    def test_partition_drops_count_as_down(self):
        sim, net, got = make_world()
        net.partition({"a"}, {"b"})
        net.send("a", "b", "ping", None)
        assert net.stats.dropped_while_down == 1
        assert net.link_stats("a", "b").dropped_while_down == 1
        assert net.stats.dropped_by_loss == 0

    def test_per_link_stats_are_directional(self):
        sim, net, got = make_world()
        net.send("a", "b", "ping", None)
        assert net.link_stats("a", "b").messages_sent == 1
        assert net.link_stats("b", "a").messages_sent == 0

    def test_bytes_in_spirit_accumulate_and_batching_saves_headers(self):
        def run(max_batch):
            sim = Simulator()
            net = Network(sim, seed=1)
            net.add_node("a", lambda m: None)
            net.add_node("b", lambda m: None)
            channel = BatchedChannel(
                net, "a", "b", policy=WirePolicy(max_batch=max_batch)
            )
            for i in range(50):
                channel.send("item", {"n": i})
            channel.flush()
            sim.run()
            return net.stats.bytes_sent

        assert 0 < run(max_batch=64) < run(max_batch=1)

    def test_down_node_counts_toward_network_stats(self):
        sim, net, got = make_world()
        net.node("b").up = False
        net.send("a", "b", "ping", None)
        sim.run()
        assert net.stats.dropped_while_down == 1
        assert net.link_stats("a", "b").dropped_while_down == 1


class TestChannelPool:
    def test_per_destination_channels(self):
        sim = Simulator()
        net = Network(sim, seed=2)
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: None)
        net.add_node("c", lambda m: None)
        pool = ChannelPool(net, "a")
        assert pool.to("b") is pool.to("b")
        assert pool.to("b") is not pool.to("c")
        pool.to("b").send("x", 1)
        pool.to("c").send("x", 2)
        pool.flush_all()
        sim.run()
        assert net.link_stats("a", "b").messages_sent == 1
        assert net.link_stats("a", "c").messages_sent == 1


class TestHeartbeatPiggyback:
    def make_pair(self, period=1.0, **monitor_kwargs):
        sim = Simulator()
        net = Network(sim, seed=21)
        sender = HeartbeatSender(net, "svc", "cli", period)
        monitor = HeartbeatMonitor(net, "cli", "svc", period, **monitor_kwargs)

        def cli_node(message):
            hb = wire.heartbeat_of(message)
            if hb is not None:
                monitor.handle_message("heartbeat", hb)
            for msg in wire.unpack(message):
                if msg.kind == "heartbeat":
                    monitor.handle_message(msg.kind, msg.payload)

        net.add_node("svc", lambda message: None)
        net.add_node("cli", cli_node)
        channel = BatchedChannel(net, "svc", "cli", heartbeat=sender)
        return sim, net, sender, monitor, channel

    def test_busy_link_sends_no_standalone_heartbeats(self):
        sim, net, sender, monitor, channel = self.make_pair(period=1.0)
        sender.start()

        def traffic():
            channel.send("data", sim.now)
            sim.schedule(0.4, traffic)

        traffic()
        sim.run_until(1.0)
        # only the startup tick (t=0, before any data flowed) may be bare
        bare_at_warmup = sender.stats.heartbeats_sent
        assert bare_at_warmup <= 1
        sim.run_until(30.0)
        assert sender.stats.heartbeats_sent == bare_at_warmup
        assert sender.stats.piggybacked > 0
        assert not monitor.suspect

    def test_idle_link_falls_back_to_bare_heartbeats(self):
        sim, net, sender, monitor, channel = self.make_pair(period=1.0)
        sender.start()
        channel.send("data", "only-once")
        sim.run_until(10.0)
        assert sender.stats.heartbeats_sent >= 8
        assert not monitor.suspect

    def test_idle_silence_still_detected_within_bound(self):
        suspected = []
        sim, net, sender, monitor, channel = self.make_pair(
            period=1.0, grace=2.0, on_suspect=lambda: suspected.append(sim.now)
        )
        sender.start()

        def traffic():
            channel.send("data", sim.now)
            sim.schedule(0.4, traffic)

        traffic()
        sim.run_until(10.0)
        net.partition({"svc"}, {"cli"})
        sim.run_until(30.0)
        assert suspected
        # detection within grace*period + one watchdog period of the cut
        assert suspected[0] <= 10.0 + 2.0 * 1.0 + 1.0 + 1e-9

    def test_piggyback_resets_bare_timer(self):
        sim, net, sender, monitor, channel = self.make_pair(period=1.0)
        sender.start()   # t=0 tick sends a bare heartbeat immediately
        sim.run_until(0.5)
        bare_before = sender.stats.heartbeats_sent
        channel.send("data", 1)   # piggyback at t=0.5
        sim.run_until(1.2)        # t=1.0 tick sees recent traffic: no bare
        assert sender.stats.heartbeats_sent == bare_before

    def test_gap_after_piggyback_never_exceeds_one_period(self):
        """A skipped tick must re-arm for when the piggyback's quiet
        interval expires, not a full period later — otherwise one burst of
        traffic stretches the liveness gap toward 2x period and a monitor
        with grace < 2 falsely suspects a healthy link."""
        suspected = []
        sim, net, sender, monitor, channel = self.make_pair(
            period=1.0, grace=1.5, on_suspect=lambda: suspected.append(sim.now)
        )
        sender.start()
        channel.send("data", "burst")   # piggyback at t=0, then silence
        sim.run_until(10.0)
        assert suspected == []
        assert not monitor.suspect
        # bare heartbeats resumed at period cadence after the burst
        assert sender.stats.heartbeats_sent >= 8
