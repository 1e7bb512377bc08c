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

        def svc_node(message):
            if message.kind == "heartbeat-ack":
                sender.handle_ack(message.payload["ack"])
            elif message.kind == "heartbeat-nack":
                sender.handle_nack(message.payload["missing"])

        def cli_node(message):
            hb = wire.heartbeat_of(message)
            if hb is not None:
                monitor.handle_message("heartbeat", hb)
            for msg in wire.unpack(message):
                if msg.kind in ("heartbeat", "heartbeat-payload", "heartbeat-fillers"):
                    monitor.handle_message(msg.kind, msg.payload)

        net.add_node("svc", svc_node)
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

    def test_lost_batch_detected_as_heartbeat_gap(self):
        sim, net, sender, monitor, channel = self.make_pair(period=1.0)
        sender.start()
        # this batch's piggybacked seq is dropped with the batch
        sim.schedule(1.4, net.partition, {"svc"}, {"cli"})
        sim.schedule(1.5, channel.send, "data", "lost")
        sim.schedule(1.5, channel.flush)
        sim.schedule(1.6, net.heal, {"svc"}, {"cli"})
        sim.run_until(20.0)
        assert monitor.stats.gaps_detected >= 1
        assert sender.stats.resends >= 1   # filler closed the gap
        assert not monitor.suspect
        assert monitor._contiguous == monitor._max_seen

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


class TestBoundedQueue:
    """WirePolicy.max_queue (ISSUE 6): held-queue mode with spill-oldest
    overflow, a backpressure signal, and flush-on-link-up release."""

    def make_bounded(self, max_queue=4, max_batch=64, **net_kwargs):
        sim, net, got = make_world(**net_kwargs)
        channel = BatchedChannel(
            net, "a", "b",
            policy=WirePolicy(max_batch=max_batch, max_delay=1.0, max_queue=max_queue),
        )
        return sim, net, got, channel

    def test_held_while_down_then_released_on_link_up(self):
        sim, net, got, channel = self.make_bounded(max_queue=8)
        net.set_link_state("a", "b", False)
        for i in range(3):
            channel.send("note", i)
        sim.run_until(5.0)
        assert got == []                         # held, not emitted into the dead link
        assert channel.stats.held_flushes >= 1
        assert net.stats.dropped_while_down == 0
        net.set_link_state("a", "b", True)       # link-up releases the backlog
        sim.run_until(10.0)
        assert [payload for _kind, payload in got] == [0, 1, 2]
        assert channel.pending == 0

    def test_overflow_spills_oldest_with_accounting(self):
        sim, net, got, channel = self.make_bounded(max_queue=4)
        net.set_link_state("a", "b", False)
        for i in range(10):
            channel.send("note", i)
        assert channel.pending == 4
        assert channel.stats.spilled == 6
        assert net.stats.spilled_overflow == 6
        assert channel.stats.max_pending <= 5    # bound enforced on every send
        net.set_link_state("a", "b", True)
        sim.run_until(5.0)
        # the freshest payloads survived the spill (last-state-wins spirit)
        assert [payload for _kind, payload in got] == [6, 7, 8, 9]

    def test_backpressure_signal(self):
        sim, net, got, channel = self.make_bounded(max_queue=3)
        net.set_link_state("a", "b", False)
        assert not channel.backpressure
        for i in range(3):
            channel.send("note", i)
        assert channel.backpressure
        net.set_link_state("a", "b", True)
        sim.run_until(5.0)
        assert not channel.backpressure

    def test_coalescing_continues_while_held(self):
        """A held queue still coalesces keyed payloads in place, so the
        backlog carries final states, not history."""
        sim, net, got, channel = self.make_bounded(max_queue=8)
        net.set_link_state("a", "b", False)
        for state in ("TRUE", "UNKNOWN", "FALSE"):
            channel.send("modified", {"ref": 7, "state": state}, coalesce_key=7)
        sim.run_until(2.0)
        assert channel.pending == 1
        net.set_link_state("a", "b", True)
        sim.run_until(5.0)
        assert got == [("modified", {"ref": 7, "state": "FALSE"})]

    def test_spilled_keyed_item_can_be_resent(self):
        """Spilling a keyed payload must unindex it: a later send under
        the same key starts a fresh queue entry rather than updating a
        ghost."""
        sim, net, got, channel = self.make_bounded(max_queue=2)
        net.set_link_state("a", "b", False)
        channel.send("modified", {"ref": 1, "state": "A"}, coalesce_key=1)
        channel.send("note", "x")
        channel.send("note", "y")                # spills the keyed item
        assert channel.stats.spilled == 1
        channel.send("modified", {"ref": 1, "state": "B"}, coalesce_key=1)
        net.set_link_state("a", "b", True)
        sim.run_until(5.0)
        payloads = [payload for _kind, payload in got]
        assert {"ref": 1, "state": "B"} in payloads
        assert {"ref": 1, "state": "A"} not in payloads

    def test_unbounded_channel_keeps_legacy_fire_and_forget(self):
        """Without max_queue the channel emits into a down link exactly
        as before (the datagram drop is the accounting record)."""
        sim, net, got, channel_holder = self.make_bounded()
        channel = BatchedChannel(net, "a", "b", policy=WirePolicy(max_delay=0.0))
        net.set_link_state("a", "b", False)
        channel.send("note", 1)
        sim.run_until(1.0)
        assert net.stats.dropped_while_down == 1
        assert channel.pending == 0

    def test_pool_backpressured_lists_channels_at_bound(self):
        sim = Simulator()
        net = Network(sim, seed=13)
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: None)
        net.add_node("c", lambda m: None)
        pool = ChannelPool(
            net, "a", policy=WirePolicy(max_delay=1.0, max_queue=2)
        )
        net.set_link_state("a", "b", False)
        pool.to("b").send("note", 1)
        pool.to("b").send("note", 2)
        pool.to("c").send("note", 3)
        assert pool.backpressured() == [pool.to("b")]


class TestSpillInterleave:
    """ISSUE 7 satellite: spill accounting and the backpressure signal
    must stay exact under interleaved flush / link-down / link-up, and
    every payload must be accounted for exactly once —
    ``delivered + pending + spilled`` equals sends at every step."""

    def make_bounded(self, max_queue=4):
        sim, net, got = make_world()
        channel = BatchedChannel(
            net, "a", "b",
            policy=WirePolicy(max_batch=64, max_delay=1.0, max_queue=max_queue),
        )
        return sim, net, got, channel

    def test_conservation_across_interleaved_flush_and_link_flaps(self):
        sim, net, got, channel = self.make_bounded(max_queue=4)
        sends = 0

        def account():
            assert len(got) + channel.pending + channel.stats.spilled == sends

        # burst while up, explicit flush mid-burst
        for i in range(3):
            channel.send("note", sends); sends += 1
        channel.flush()
        sim.run_until(sim.now + 1.0)
        account()
        # link drops; queue fills to the bound, then spills oldest
        net.set_link_state("a", "b", False)
        for i in range(7):
            channel.send("note", sends); sends += 1
            account()
        assert channel.backpressure
        assert channel.stats.spilled == 3
        # a flush while down must hold, not leak into the dead link
        held_before = channel.stats.held_flushes
        channel.flush()
        assert channel.stats.held_flushes > held_before
        account()
        # link restores mid-send: backlog drains, late sends ride along
        net.set_link_state("a", "b", True)
        channel.send("note", sends); sends += 1
        sim.run_until(sim.now + 3.0)
        account()
        assert channel.pending == 0
        assert not channel.backpressure
        # the freshest payloads survived; nothing delivered twice
        delivered = [payload for _kind, payload in got]
        assert len(delivered) == len(set(delivered)) == sends - channel.stats.spilled

    def test_pool_backpressured_tracks_flap_cycles(self):
        sim = Simulator()
        net = Network(sim, seed=13)
        for node in ("a", "b", "c"):
            net.add_node(node, lambda m: None)
        pool = ChannelPool(net, "a", policy=WirePolicy(max_delay=1.0, max_queue=2))
        for cycle in range(3):
            net.set_link_state("a", "b", False)
            pool.to("b").send("note", (cycle, 0))
            pool.to("b").send("note", (cycle, 1))
            pool.to("c").send("note", (cycle, 2))
            assert pool.backpressured() == [pool.to("b")]
            net.set_link_state("a", "b", True)
            sim.run_until(sim.now + 3.0)
            assert pool.backpressured() == []
            assert pool.to("b").pending == 0

    def test_spill_accounting_survives_flush_during_outage(self):
        """Interleaving explicit flushes with an outage must not double
        count spills or revive spilled payloads on link-up."""
        sim, net, got, channel = self.make_bounded(max_queue=2)
        net.set_link_state("a", "b", False)
        for i in range(5):
            channel.send("note", i)
            channel.flush()                  # held every time: link is down
        assert channel.pending == 2
        assert channel.stats.spilled == 3
        spilled_before = channel.stats.spilled
        net.set_link_state("a", "b", True)
        sim.run_until(sim.now + 3.0)
        assert [payload for _kind, payload in got] == [3, 4]
        assert channel.stats.spilled == spilled_before
