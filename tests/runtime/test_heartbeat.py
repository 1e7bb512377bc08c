"""Unit tests for the heartbeat protocol of section 4.10."""

from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender, connect_heartbeat
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator


def make_world(period=1.0, **monitor_kwargs):
    sim = Simulator()
    net = Network(sim, seed=11)
    sender, monitor = connect_heartbeat(net, "svc", "cli", period, **monitor_kwargs)
    return sim, net, sender, monitor


def test_heartbeats_flow_when_idle():
    sim, net, sender, monitor = make_world(period=1.0)
    sender.start()
    sim.run_until(10.0)
    assert sender.stats.heartbeats_sent >= 9
    assert not monitor.suspect


def test_silence_triggers_suspicion_within_grace():
    suspected = []
    sim, net, sender, monitor = make_world(
        period=1.0, grace=2.0, on_suspect=lambda: suspected.append(sim.now)
    )
    sender.start()
    sim.run_until(5.0)
    net.partition({"svc"}, {"cli"})
    sim.run_until(20.0)
    assert monitor.suspect
    assert suspected
    # detection within grace*period + one watchdog period of the cut at t=5
    assert suspected[0] <= 5.0 + 2.0 * 1.0 + 1.0 + 1e-9


def test_restore_after_heal():
    restored = []
    sim, net, sender, monitor = make_world(
        period=1.0, on_restore=lambda: restored.append(sim.now)
    )
    sender.start()
    sim.run_until(3.0)
    net.partition({"svc"}, {"cli"})
    sim.run_until(10.0)
    assert monitor.suspect
    net.heal({"svc"}, {"cli"})
    sim.run_until(15.0)
    assert not monitor.suspect
    assert restored


def test_horizon_advances_with_heartbeats():
    horizons = []
    sim, net, sender, monitor = make_world(
        period=1.0, on_horizon=lambda h: horizons.append(h)
    )
    sender.start()
    sim.run_until(5.0)
    assert horizons == sorted(horizons)
    assert monitor.horizon >= 3.0


def test_detection_latency_scales_with_period():
    """Slower heartbeats -> later detection (the sec 6.8.3 trade-off)."""
    latencies = {}
    for period in (0.5, 4.0):
        suspected = []
        sim = Simulator()
        net = Network(sim, seed=5)
        sender, monitor = connect_heartbeat(
            net, "svc", "cli", period, on_suspect=lambda: suspected.append(sim.now)
        )
        sender.start()
        sim.run_until(20.0)
        net.partition({"svc"}, {"cli"})
        sim.run_until(100.0)
        latencies[period] = suspected[0] - 20.0
    assert latencies[0.5] < latencies[4.0]


# ---------------------------------------------------------------- flapping


def test_flapping_callbacks_alternate_and_end_suspect():
    """Rapid down/up/down cycles: suspicion/restore callbacks strictly
    alternate, and after the final cut no stale 'restored' arrives — the
    monitor ends (and stays) suspect."""
    events = []
    sim, net, sender, monitor = make_world(
        period=1.0,
        grace=2.0,
        on_suspect=lambda: events.append(("suspect", sim.now)),
        on_restore=lambda: events.append(("restore", sim.now)),
    )
    sender.start()
    # three full flaps, then a final cut that never heals
    for start in (5.0, 20.0, 35.0):
        sim.schedule(start, net.partition, {"svc"}, {"cli"})
        sim.schedule(start + 6.0, net.heal, {"svc"}, {"cli"})
    sim.schedule(50.0, net.partition, {"svc"}, {"cli"})
    sim.run_until(80.0)
    kinds = [k for k, _ in events]
    # strict alternation: no double-suspect, no double-restore
    for a, b in zip(kinds, kinds[1:]):
        assert a != b, f"non-alternating callbacks: {events}"
    assert kinds[0] == "suspect"
    assert kinds[-1] == "suspect"    # the last cut is never unmasked
    assert monitor.suspect


def test_flapping_last_transition_wins_per_cycle():
    """Each heal is observed before the next cut: the restore for flap N
    never arrives after the suspicion of flap N+1 (no stale unmask)."""
    events = []
    sim, net, sender, monitor = make_world(
        period=1.0,
        grace=2.0,
        on_suspect=lambda: events.append(("suspect", sim.now)),
        on_restore=lambda: events.append(("restore", sim.now)),
    )
    sender.start()
    for start in (4.0, 12.0, 20.0, 28.0):
        sim.schedule(start, net.partition, {"svc"}, {"cli"})
        sim.schedule(start + 4.0, net.heal, {"svc"}, {"cli"})
    sim.run_until(60.0)
    times = [t for _, t in events]
    assert times == sorted(times)
    assert not monitor.suspect
    assert monitor.stats.suspicions == 4
    restores = [t for k, t in events if k == "restore"]
    assert len(restores) == 4


# ------------------------------------------------------------- boot epochs


def make_epoch_world(period=1.0, **monitor_kwargs):
    sim = Simulator()
    net = Network(sim, seed=13)
    epoch_box = [1]
    sender = HeartbeatSender(net, "svc", "cli", period, epoch=lambda: epoch_box[0])
    monitor = HeartbeatMonitor(net, "cli", "svc", period, **monitor_kwargs)
    net.add_node("svc", lambda m: None)
    net.add_node("cli", lambda m: monitor.handle_message(m.kind, m.payload))
    return sim, net, sender, monitor, epoch_box


def test_epoch_change_fires_callback_once():
    changes = []
    sim, net, sender, monitor, epoch_box = make_epoch_world(
        on_epoch_change=lambda old, new: changes.append((old, new, sim.now)),
    )
    sender.start()
    sim.run_until(5.0)
    assert monitor.sender_epoch == 1
    # crash-restart: new epoch, and the restarted sender beats at once
    epoch_box[0] = 2
    sender.restart()
    sim.run_until(6.5)
    sender.piggyback()
    sim.run_until(10.0)
    assert [change[:2] for change in changes] == [(1, 2)]
    assert monitor.sender_epoch == 2
    assert monitor.stats.epoch_changes == 1
    assert not monitor.suspect


def test_stale_epoch_traffic_is_dropped_and_not_liveness():
    sim, net, sender, monitor, epoch_box = make_epoch_world(grace=2.0)
    sender.start()
    sim.run_until(3.0)
    # the sender restarts into epoch 2
    epoch_box[0] = 2
    sender.restart()
    sim.run_until(5.0)
    assert monitor.sender_epoch == 2
    # a delayed message from the dead epoch arrives late: dropped, and it
    # must not count as hearing from the (current) sender
    sim.run_until(5.4)
    heard = monitor._last_heard
    monitor.handle_message("heartbeat", {"horizon": 99.0, "epoch": 1})
    assert monitor.stats.stale_epoch_dropped == 1
    assert monitor._last_heard == heard
    assert monitor.horizon < 99.0


def test_epoch_change_fires_before_restore_while_still_suspect():
    """The epoch callback must run while the monitor is still suspect, so
    fail-closed masking/resync happens before any unmask."""
    order = []
    sim, net, sender, monitor, epoch_box = make_epoch_world(
        grace=2.0,
        on_restore=lambda: order.append("restore"),
        on_epoch_change=lambda old, new: order.append(
            ("epoch", monitor.suspect)
        ),
    )
    sender.start()
    sim.run_until(3.0)
    net.partition({"svc"}, {"cli"})
    sim.run_until(10.0)
    assert monitor.suspect
    epoch_box[0] = 2
    sender.restart()
    net.heal({"svc"}, {"cli"})
    sim.run_until(15.0)
    assert order[0] == ("epoch", True)   # fired first, still suspect
    assert "restore" in order
    assert order.index(("epoch", True)) < order.index("restore")


def test_sender_stop_start_does_not_double_tick_rate():
    sim, net, sender, monitor, epoch_box = make_epoch_world()
    sender.start()
    sim.run_until(5.0)
    sender.stop()
    sender.start()   # old tick chain must die, not double the rate
    sent_before = sender.stats.heartbeats_sent
    sim.run_until(15.0)
    sent = sender.stats.heartbeats_sent - sent_before
    assert sent <= 11   # ~one per period, not two


def test_quiet_interval_wakeup_survives_negative_float_residue():
    """Regression: piggybacked liveness reschedules the tick to
    ``due - now``, which float accumulation can leave fractionally
    negative.  The chain must clamp and keep beating, not die with
    'cannot schedule in the past'."""
    sim, net, sender, monitor = make_world(period=0.1)
    sender.start()

    def send_batch():
        # a data batch stamped with the piggybacked heartbeat
        net.send("svc", "cli", "heartbeat", sender.piggyback())

    # batches at times that are not exactly representable multiples of
    # the period, so due - now picks up float residue at many wake-ups
    for i in range(1, 200):
        sim.schedule_at(i * 0.049999999999999996, send_batch)
    sim.run_until(12.0)
    # liveness never lapsed: the monitor saw a signal at least every period
    assert not monitor.suspect
    assert monitor.stats.suspicions == 0
    # and the tick chain is still alive well past the piggyback window
    before = sender.stats.heartbeats_sent
    sim.run_until(14.0)
    assert sender.stats.heartbeats_sent > before
