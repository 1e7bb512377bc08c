"""Unit tests for the simulated network fabric."""

import pytest

from repro.errors import NetworkError
from repro.runtime.network import Link, Network
from repro.runtime.simulator import Simulator


def make_net(**kwargs):
    sim = Simulator()
    return sim, Network(sim, seed=1, **kwargs)


def test_basic_delivery():
    sim, net = make_net()
    got = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: got.append(m))
    net.send("a", "b", "ping", {"x": 1})
    sim.run()
    assert len(got) == 1
    assert got[0].payload == {"x": 1}
    assert got[0].source == "a"
    assert got[0].kind == "ping"


def test_delivery_is_delayed_by_link():
    sim, net = make_net()
    times = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: times.append(sim.now))
    net.set_link("a", "b", Link(base_delay=0.25))
    net.send("a", "b", "ping", None)
    sim.run()
    assert times == [0.25]


def test_jitter_is_seeded_and_bounded():
    sim, net = make_net()
    times = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: times.append(sim.now))
    net.set_link("a", "b", Link(base_delay=0.1, jitter=0.05))
    for _ in range(50):
        net.send("a", "b", "ping", None)
    sim.run()
    assert all(0.1 <= t <= 0.15 for t in times)
    assert len(set(times)) > 1  # jitter actually varies


def test_loss_probability_drops_messages():
    sim, net = make_net()
    got = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: got.append(m))
    net.set_link("a", "b", Link(loss_probability=1.0))
    assert net.send("a", "b", "ping", None) is None
    sim.run()
    assert got == []
    assert net.stats.dropped_by_loss == 1
    assert net.stats.dropped_while_down == 0


def test_partition_and_heal():
    sim, net = make_net()
    got = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: got.append(m.payload))
    net.partition({"a"}, {"b"})
    net.send("a", "b", "ping", 1)
    sim.run()
    assert got == []
    net.heal({"a"}, {"b"})
    net.send("a", "b", "ping", 2)
    sim.run()
    assert got == [2]


def test_send_to_unknown_node_counts_dropped_no_handler():
    # datagram semantics: an unregistered destination swallows the message,
    # but never silently — the drop is visible in the stats (and crash
    # support depends on sends to a dead-and-removed node not raising)
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    assert net.send("a", "nowhere", "ping", None) is None
    assert net.stats.dropped_no_handler == 1
    assert net.link_stats("a", "nowhere").dropped_no_handler == 1


def test_send_to_unknown_node_warns_when_enabled():
    sim, net = make_net()
    net.warn_no_handler = True
    net.add_node("a", lambda m: None)
    with pytest.warns(UserWarning, match="unregistered address"):
        net.send("a", "nowhere", "ping", None)


def test_duplicate_address_rejected():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    with pytest.raises(NetworkError):
        net.add_node("a", lambda m: None)


def test_down_node_drops_silently():
    sim, net = make_net()
    got = []
    net.add_node("a", lambda m: None)
    node_b = net.add_node("b", lambda m: got.append(m))
    node_b.up = False
    net.send("a", "b", "ping", None)
    sim.run()
    assert got == []
    assert net.link_stats("a", "b").dropped_while_down == 1


def test_messages_carry_monotone_seq():
    sim, net = make_net()
    seqs = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: seqs.append(m.seq))
    for _ in range(3):
        net.send("a", "b", "ping", None)
    sim.run()
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 3


def test_same_seed_same_behaviour():
    def run(seed):
        sim = Simulator()
        net = Network(sim, seed=seed)
        times = []
        net.add_node("a", lambda m: None)
        net.add_node("b", lambda m: times.append(round(sim.now, 9)))
        net.set_link("a", "b", Link(base_delay=0.01, jitter=0.02, loss_probability=0.3))
        for _ in range(100):
            net.send("a", "b", "ping", None)
        sim.run()
        return times

    assert run(7) == run(7)
    assert run(7) != run(8)


# ---------------------------------------------------------------- ISSUE 6


def test_empty_injector_delays_count_as_fault_drop():
    """Satellite regression: an injector returning [] schedules zero
    deliveries — the message must land in dropped_by_fault, not vanish."""
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    got = []
    net.add_node("b", lambda m: got.append(m))
    net.set_fault_injector(lambda message, delay: [])
    assert net.send("a", "b", "ping", 1) is None
    sim.run()
    assert got == []
    assert net.stats.dropped_by_fault == 1
    assert net.unaccounted() == 0


def test_heal_does_not_end_an_overlapping_flap():
    """Satellite regression: a partition heal must not resurrect a link
    an independent link-flap still holds down."""
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: None)
    net.partition({"a"}, {"b"})
    net.set_link_state("a", "b", False)      # overlapping flap, same link
    net.heal({"a"}, {"b"})                   # undoes only the partition
    assert not net.link("a", "b").up
    assert net.link("b", "a").up             # flap was one-directional
    net.set_link_state("a", "b", True)       # flap ends: now fully up
    assert net.link("a", "b").up


def test_flap_recovery_does_not_end_an_overlapping_partition():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: None)
    net.set_link_state("a", "b", False)
    net.partition({"a"}, {"b"})
    net.set_link_state("a", "b", True)       # flap ends first
    assert not net.link("a", "b").up         # partition still cuts it
    net.heal({"a"}, {"b"})
    assert net.link("a", "b").up


def test_overlapping_partitions_stack():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: None)
    net.partition({"a"}, {"b"})
    net.partition({"a"}, {"b"})
    net.heal({"a"}, {"b"})
    assert not net.link("a", "b").up
    net.heal({"a"}, {"b"})
    assert net.link("a", "b").up


def test_on_link_up_fires_once_per_transition():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: None)
    ups, downs = [], []
    net.on_link_up(lambda s, d: ups.append((s, d)))
    net.on_link_down(lambda s, d: downs.append((s, d)))
    net.partition({"a"}, {"b"})
    assert ("a", "b") in downs and ("b", "a") in downs
    net.set_link_state("a", "b", False)      # already down: no second event
    assert downs.count(("a", "b")) == 1
    net.heal({"a"}, {"b"})                   # a->b stays down (flap)
    assert ("b", "a") in ups and ("a", "b") not in ups
    net.set_link_state("a", "b", True)
    assert ups.count(("a", "b")) == 1


def test_delivery_accounting_identity_holds():
    """offered == delivered + drops + in_flight at every instant."""
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: None)
    net.set_link("a", "b", Link(base_delay=0.01, loss_probability=0.3))
    for _ in range(200):
        net.send("a", "b", "ping", 1)
    assert net.unaccounted() == 0            # mid-flight: in_flight covers it
    assert net.in_flight > 0
    sim.run()
    assert net.in_flight == 0
    assert net.unaccounted() == 0
    stats = net.stats
    assert stats.delivered + stats.dropped_by_loss == 200


def test_accounting_identity_with_duplicating_injector():
    sim, net = make_net()
    got = []
    net.add_node("a", lambda m: None)
    net.add_node("b", lambda m: got.append(m))
    net.set_fault_injector(lambda message, delay: [delay, delay + 0.01])
    for _ in range(50):
        net.send("a", "b", "ping", 1)
    sim.run()
    assert len(got) == 100
    assert net.stats.duplicated == 50
    assert net.stats.offered() == 100
    assert net.unaccounted() == 0
