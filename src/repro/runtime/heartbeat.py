"""The heartbeat protocol of section 4.10: liveness, boot epoch and the
event horizon.

A sender guarantees that the receiver hears from it at least every ``t``
seconds: a data batch carrying the heartbeat stamp, or a bare heartbeat
if nothing substantive was sent.  Silence for longer than ``t`` times a
grace factor makes the receiver *suspect* the sender, and every record
the sender feeds is then treated as Unknown (fail closed).

Heartbeats also carry an *event horizon timestamp* (section 6.8.2): a lower
bound on the timestamps of anything the sender will transmit in the future.
The composite event detector uses this to decide that an event has *not*
occurred.

Characteristics delivered (quoted from the dissertation):

* a client is certain of receiving an event within time ``t`` of its
  generation, or of detecting that notification may have failed;
* a server can detect a client that is not responding;
* a forwarding client can treat heartbeats in the same way, providing
  guarantees about indirect events.

The first promise is split between two mechanisms: the journal relay's
outbox delivers every event exactly once or parks it for redelivery
(:mod:`repro.core.journal`), and silence detection here tells the client
when delivery may have failed.  Heartbeats carry no sequence numbers and
retransmit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.runtime.network import Network
from repro.runtime.simulator import PeriodicTimer, Simulator


@dataclass
class HeartbeatStats:
    heartbeats_sent: int = 0      # standalone (bare) heartbeat messages
    piggybacked: int = 0          # heartbeats carried by data batches
    suspicions: int = 0
    epoch_changes: int = 0        # sender observed at a newer boot epoch
    stale_epoch_dropped: int = 0  # traffic from a dead (pre-crash) epoch


class HeartbeatSender:
    """Sender half of the heartbeat protocol.

    ``horizon`` is a callable returning the sender's current event-horizon
    timestamp; by default it is the simulator clock (nothing earlier than
    "now" will ever be sent).

    ``epoch`` is a callable returning the sender's current boot epoch
    (section 2: identity is only valid within one boot).  Every heartbeat
    is stamped with it so a monitor can tell a restarted sender from its
    pre-crash self and discard the dead epoch's state.
    """

    def __init__(
        self,
        network: Network,
        address: str,
        dest: str,
        period: float,
        horizon: Optional[Callable[[], float]] = None,
        epoch: Optional[Callable[[], int]] = None,
        name: str = "",
    ):
        self.network = network
        self.sim: Simulator = network.simulator
        self.address = address
        self.dest = dest
        self.period = period
        self.name = name or address
        self._horizon = horizon or (lambda: self.sim.now)
        self._epoch = epoch or (lambda: 0)
        self._last_sent_at = -1.0
        self._running = False
        # One reusable kernel entry for the whole tick chain — a fleet of
        # senders no longer allocates a fresh event per beat.
        self._timer = PeriodicTimer(
            self.sim, period, self._tick, name=f"hb:{self.name}"
        )
        self.stats = HeartbeatStats()

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # first heartbeat goes out synchronously, then the chain re-arms
        self._timer.poke()

    def stop(self) -> None:
        self._running = False
        self._timer.cancel()

    def restart(self) -> None:
        """Forget when the last signal went out (a crash-restart loses
        it with the process memory), so the restarted sender beats at
        once; the new epoch stamp tells the monitor about the restart."""
        self._last_sent_at = -1.0

    def piggyback(self) -> dict:
        """Stamp a departing data batch with this sender's liveness.

        Resets the bare-heartbeat timer: on a busy link the data itself
        is the liveness signal and no standalone heartbeats are sent."""
        self._last_sent_at = self.sim.now
        self.stats.piggybacked += 1
        return {"horizon": self._horizon(), "epoch": self._epoch()}

    def _tick(self) -> None:
        due = self._last_sent_at + self.period
        quiet = due - self.sim.now
        if quiet <= 1e-12:
            self.stats.heartbeats_sent += 1
            self._last_sent_at = self.sim.now
            self.network.send(
                self.address,
                self.dest,
                "heartbeat",
                {"horizon": self._horizon(), "epoch": self._epoch()},
            )
            # the periodic timer re-arms one full period out
        else:
            # a piggybacked batch covered liveness recently; wake exactly
            # when its quiet interval expires so the gap between signals
            # never exceeds one period.  reschedule() clamps at zero:
            # float accumulation can leave ``quiet`` fractionally
            # negative, which must not kill the chain by scheduling into
            # the past.
            self._timer.reschedule(quiet)


class HeartbeatMonitor:
    """Receiver half: detects silence from a sender.

    Callbacks:

    * ``on_horizon(horizon)`` — the sender's event horizon advanced;
    * ``on_suspect()`` — nothing heard for longer than ``period * grace``;
    * ``on_restore()`` — the sender was heard from again after suspicion;
    * ``on_epoch_change(old, new)`` — the sender came back at a newer
      boot epoch: it crashed and restarted, and everything learned from
      the old epoch is now of unverifiable currency.  Fired *before* the
      restore callback, so fail-closed masking can happen first.

    Section 4.10: while a sender is suspect, credential records fed by it
    must be treated as Unknown (fail closed).
    """

    def __init__(
        self,
        network: Network,
        address: str,
        source: str,
        period: float,
        grace: float = 2.0,
        on_horizon: Optional[Callable[[float], None]] = None,
        on_suspect: Optional[Callable[[], None]] = None,
        on_restore: Optional[Callable[[], None]] = None,
        on_epoch_change: Optional[Callable[[int, int], None]] = None,
    ):
        self.network = network
        self.sim: Simulator = network.simulator
        self.address = address
        self.source = source
        self.period = period
        self.grace = grace
        self.on_horizon = on_horizon
        self.on_suspect = on_suspect
        self.on_restore = on_restore
        self.on_epoch_change = on_epoch_change
        self._sender_epoch: Optional[int] = None
        self._last_heard = network.simulator.now
        self._suspect = False
        self.horizon = float("-inf")
        self.stats = HeartbeatStats()
        self._watchdog_timer = PeriodicTimer(
            network.simulator, period, self._watchdog, name="hb:watchdog"
        )
        self._watchdog_timer.poke()

    @property
    def suspect(self) -> bool:
        return self._suspect

    @property
    def sender_epoch(self) -> Optional[int]:
        """Latest boot epoch observed from the sender (None before any)."""
        return self._sender_epoch

    def handle_message(self, kind: str, body: dict) -> None:
        """Feed a heartbeat body in: a bare ``"heartbeat"`` message's, or
        the stamp a data batch carried."""
        epoch = body.get("epoch")
        if epoch is not None:
            if self._sender_epoch is not None and epoch < self._sender_epoch:
                # Delayed traffic from a boot that has since died: it
                # must not count as liveness.
                self.stats.stale_epoch_dropped += 1
                return
            if self._sender_epoch is not None and epoch > self._sender_epoch:
                old = self._sender_epoch
                self._sender_epoch = epoch
                self.stats.epoch_changes += 1
                # Fired while still suspect (before _heard below) so the
                # handler can mask and tail-sync before any unmask happens.
                if self.on_epoch_change is not None:
                    self.on_epoch_change(old, epoch)
            elif self._sender_epoch is None:
                self._sender_epoch = epoch
        self._heard()
        horizon = body.get("horizon", float("-inf"))
        if horizon > self.horizon:
            self.horizon = horizon
            if self.on_horizon is not None:
                self.on_horizon(horizon)

    def _heard(self) -> None:
        self._last_heard = self.sim.now
        if self._suspect:
            self._suspect = False
            if self.on_restore is not None:
                self.on_restore()

    def _watchdog(self) -> None:
        deadline = self.period * self.grace
        silence = self.sim.now - self._last_heard
        if silence >= deadline - 1e-12 and not self._suspect:
            self._suspect = True
            self.stats.suspicions += 1
            if self.on_suspect is not None:
                self.on_suspect()
        # the periodic timer re-arms the next sweep


def connect_heartbeat(
    network: Network,
    sender_address: str,
    monitor_address: str,
    period: float,
    **monitor_kwargs: Any,
) -> tuple[HeartbeatSender, HeartbeatMonitor]:
    """Wire a sender/monitor pair across the network with dispatch nodes.

    Creates the two network nodes and routes heartbeats to the monitor.
    Returns ``(sender, monitor)``; call ``sender.start()`` to begin.
    """
    sender = HeartbeatSender(network, sender_address, monitor_address, period)
    monitor = HeartbeatMonitor(network, monitor_address, sender_address, period, **monitor_kwargs)

    def monitor_node(message):
        if message.kind == "heartbeat":
            monitor.handle_message(message.kind, message.payload)

    network.add_node(sender_address, lambda message: None)
    network.add_node(monitor_address, monitor_node)
    return sender, monitor
