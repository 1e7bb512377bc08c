"""Cross-service credential coherence (sections 4.9-4.10).

When a certificate issued by one service is used as a credential at
another, the consuming service creates a local *external record* and
registers interest in ``Modified(CRR, newstate)`` events at the issuer.
The linkage layer routes those events.

Two implementations:

* :class:`LocalLinkage` — synchronous, in-process delivery.  Used by unit
  tests and single-machine deployments; semantically the zero-delay limit.
* :class:`SimLinkage` — delivery over the simulated network.  Every
  attached service gets a write-ahead journal and an outbox relay
  (:mod:`repro.core.journal`), and the relay is the one carrier of
  Modified events: a settle round's notifications are one outbox
  transaction, drained as one ``outbox-deliver`` RPC per destination,
  applied exactly once at the receiver or parked for redelivery, and
  ordered by stamps.  It is also the one recovery path: a restart
  replays the journal, masks every surrogate Unknown and tail-syncs each
  issuer.  Optional heartbeat pairs (created with
  :meth:`SimLinkage.monitor`) carry liveness, boot epoch and event
  horizon: a missed heartbeat marks every surrogate of the silent
  service Unknown (fail closed), exactly as section 4.10 prescribes, the
  receiver refuses deliveries from a suspect issuer, and on reconnection
  the issuer's stamped snapshot is re-read.  Subscribe requests travel
  on batched wire channels (:mod:`repro.runtime.wire`), whose batches
  also carry the heartbeat stamp.  All of it goes through the service's
  one network node, so a fault that silences its heartbeats also stops
  its notifications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.credentials import RecordState
from repro.core.journal import DurableStore, JournalRelay, Notice
from repro.errors import OasisError
from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Network
from repro.runtime.wire import BatchedChannel, ChannelPool, WirePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import OasisService


class Linkage:
    """Interface between a service's credential table and the world."""

    def attach(self, service: "OasisService") -> None:
        raise NotImplementedError

    def subscribe(self, subscriber: "OasisService", issuer_name: str, remote_ref: int) -> RecordState:
        """Register interest in a remote record; returns its current state."""
        raise NotImplementedError

    def publish(self, issuer: "OasisService", notices: list[Notice]) -> None:
        """Deliver one settle round's Modified(CRR, newstate) events:
        each notice is ``(ref, state, subscribers)``, the subscriber
        names sorted."""
        raise NotImplementedError

    def backpressured_of(self, service_name: str) -> list:
        """What of ``service_name``'s outbound notification path is at
        its queue bound.  Admission paths (role entry, certificate issue)
        consult this to shed early: a service whose notifications are
        jammed must not take on new state whose revocations it could not
        deliver.  Linkages without bounded queues report none."""
        return []

    def flush_of(self, service_name: str) -> None:
        """Put ``service_name``'s queued notifications on the wire now.
        The cross-shard settle calls this at each commit so one hop's
        consequences are in flight before the next hop's batch windows
        open.  Linkages without batching deliver eagerly: no-op."""


class LocalLinkage(Linkage):
    """Immediate, reliable delivery between co-located services."""

    def __init__(self) -> None:
        self._services: dict[str, "OasisService"] = {}
        self.notifications = 0

    def attach(self, service: "OasisService") -> None:
        self._services[service.name] = service

    def subscribe(self, subscriber: "OasisService", issuer_name: str, remote_ref: int) -> RecordState:
        issuer = self._services.get(issuer_name)
        if issuer is None:
            raise OasisError(f"no linked service {issuer_name!r}")
        if not issuer.credentials.subscribe(remote_ref, subscriber.name):
            return RecordState.FALSE
        return issuer.credentials.state_of(remote_ref)

    def publish(self, issuer: "OasisService", notices: list[Notice]) -> None:
        for ref, state, subscribers in notices:
            for name in subscribers:
                target = self._services.get(name)
                if target is not None:
                    self.notifications += 1
                    target.credentials.update_external(issuer.name, ref, state)


class SimLinkage(Linkage):
    """Delivery over the simulated network.

    Each attached service gets one network node, ``oasis:<name>``, where
    its journal relay serves the RPCs that carry every Modified event
    through the transactional outbox, and a :class:`ChannelPool` of
    batched per-destination channels sends its subscribe requests and
    heartbeats.  Optional heartbeat pairs (created with :meth:`monitor`)
    drive Unknown marking and piggyback on data batches.
    """

    def __init__(self, network: Network, policy: Optional[WirePolicy] = None):
        self.network = network
        self.policy = policy or WirePolicy()
        self._services: dict[str, "OasisService"] = {}
        # address -> attached service name: a subscribe names no
        # subscriber, the sending node's address does
        self._name_at: dict[str, str] = {}
        self._monitors: dict[tuple[str, str], HeartbeatMonitor] = {}
        self._senders: dict[tuple[str, str], HeartbeatSender] = {}
        self._pools: dict[str, ChannelPool] = {}
        self.notifications = 0
        # Subscribe is a request that must eventually reach the issuer:
        # a copy lost to the network would leave the issuer unaware of
        # the subscriber, so later revocations would never be notified.
        # Pending (subscriber, issuer, ref) keys are retried on a timer
        # until any delivery for that ref arrives (the subscribe reply,
        # or a notification — either proves registration).
        self.subscribe_retry_period = 2.0
        self.subscribe_retries = 0
        self._sub_pending: dict[tuple[str, str, int], int] = {}
        # every attached service's journal (the world's disk) and relay
        self.durable = DurableStore()
        self._relays: dict[str, JournalRelay] = {}

    @staticmethod
    def address_of(name: str) -> str:
        return f"oasis:{name}"

    def attach(self, service: "OasisService") -> None:
        self._services[service.name] = service
        address = self.address_of(service.name)
        self._name_at[address] = service.name
        journal = self.durable.journal(service.name)
        journal.now = lambda: service.clock.now()
        journal.epoch = lambda: service.boot_epoch
        service.attach_journal(journal)
        # the relay's RPC endpoint makes the node; subscribes and
        # heartbeats arrive at it too
        self._relays[service.name] = JournalRelay(
            self, service, journal, seed=self.network.seed
        )
        node = self.network.node(address)
        node.handler = self._make_handler(service, node.handler)
        self._pools[service.name] = ChannelPool(self.network, address, policy=self.policy)

    def channel(self, source_name: str, dest_name: str) -> BatchedChannel:
        """The batched channel carrying ``source_name``'s traffic to
        ``dest_name`` (created on first use)."""
        return self._pools[source_name].to(self.address_of(dest_name))

    # ------------------------------------------------------------- durability

    def enable_journal(
        self, service: "OasisService", seed: Optional[int] = None
    ) -> JournalRelay:
        """The journal relay :meth:`attach` gave ``service``.  A ``seed``,
        if given, must be the network's: relays take their random
        streams from it."""
        if seed is not None and seed != self.network.seed:
            raise OasisError(
                f"journal seed {seed} differs from the network's {self.network.seed}"
            )
        return self._relays[service.name]

    def relay_of(self, service_name: str) -> Optional[JournalRelay]:
        """The journal relay of ``service_name`` (None = not attached)."""
        return self._relays.get(service_name)

    def drain_journal_of(self, service_name: str) -> None:
        """Drain ``service_name``'s pending outbox entries onto the wire
        now (the settle's per-commit analogue of :meth:`flush_of`)."""
        relay = self._relays.get(service_name)
        if relay is not None:
            relay.drain()

    def journal_quiescent(self) -> bool:
        """No outbox entry anywhere is pending or in flight.  Parked
        dead letters do NOT count: they are accounted work awaiting
        backoff toward a dead peer, and a settle must not wedge on them."""
        return all(relay.quiescent() for relay in self._relays.values())

    def arm_journal_crash(self, service_name: str, point: str, trigger) -> None:
        """Arm a one-shot crash trigger at a journal fault point
        ("mid-append" / "mid-drain") of ``service_name``'s relay."""
        relay = self._relays.get(service_name)
        if relay is None:
            raise OasisError(f"service {service_name!r} has no journal relay")
        relay.arm_crash(point, trigger)

    def note_subscribed(self, subscriber_name: str, issuer_name: str, remote_ref: int) -> None:
        """A state for ``remote_ref`` reached ``subscriber_name`` — the
        issuer evidently knows about the subscription, so stop retrying
        it.  Called by journal deliveries and snapshots."""
        self._sub_pending.pop((subscriber_name, issuer_name, remote_ref), None)

    def suspects(self, subscriber_name: str, issuer_name: str) -> bool:
        """Whether ``subscriber_name``'s heartbeat monitor currently
        suspects ``issuer_name`` (False without a monitor)."""
        monitor = self._monitors.get(
            (self.address_of(issuer_name), self.address_of(subscriber_name))
        )
        return monitor is not None and monitor.suspect

    def flush_all(self) -> None:
        """Put every queued wire item on the wire now."""
        for pool in self._pools.values():
            pool.flush_all()

    def flush_of(self, service_name: str) -> None:
        """Flush only ``service_name``'s outbound pool (per-shard commit)."""
        pool = self._pools.get(service_name)
        if pool is not None:
            pool.flush_all()

    def all_channels(self) -> list[BatchedChannel]:
        """Every live batched channel across every attached service —
        what an :class:`~repro.runtime.faults.InvariantChecker` sweeps
        for the queue-bound invariant."""
        return [
            channel for pool in self._pools.values() for channel in pool.channels()
        ]

    def backpressured(self) -> list[BatchedChannel]:
        """Channels currently at their queue bound, across all services."""
        return [channel for channel in self.all_channels() if channel.backpressure]

    def backpressured_of(self, service_name: str) -> list:
        """``service_name``'s outbound channels at their queue bound, then
        the destinations whose undelivered outbox entries have reached
        ``policy.max_queue`` (the admission-control signal for that
        service's entry paths)."""
        pool = self._pools.get(service_name)
        jammed: list = pool.backpressured() if pool is not None else []
        bound = self.policy.max_queue
        relay = self._relays.get(service_name)
        if bound is not None and relay is not None:
            depth = relay.journal.depth
            jammed += [dest for dest, count in depth.items() if count >= bound]
        return jammed

    def _make_handler(self, service: "OasisService", serve_rpc):
        address = self.address_of(service.name)
        credentials = service.credentials

        def handler(message):
            if message.kind[:4] == "rpc-":
                serve_rpc(message)      # outbox deliveries, tail-syncs
                return
            source = message.source
            hb = wire.heartbeat_of(message)
            if hb is not None:
                monitor = self._monitors.get((source, address))
                if monitor is not None:
                    monitor.handle_message("heartbeat", hb)
            sender = self._name_at.get(source)
            for item in wire.unpack(message):
                if item.kind == "subscribe" and sender is not None:
                    # the channel, not the message, names the subscriber;
                    # the reply goes through the outbox like any Modified
                    ref = item.payload["ref"]
                    credentials.subscribe(ref, sender)
                    self._relays[service.name].enqueue(
                        [(ref, credentials.state_of(ref), [sender])]
                    )
                elif item.kind == "heartbeat":
                    monitor = self._monitors.get((source, address))
                    if monitor is not None:
                        monitor.handle_message("heartbeat", item.payload)

        return handler

    def subscribe(self, subscriber: "OasisService", issuer_name: str, remote_ref: int) -> RecordState:
        # Subscription is asynchronous on the real network; the surrogate
        # starts Unknown and is resolved by the issuer's state reply.
        self._pools[subscriber.name].to(self.address_of(issuer_name)).send(
            "subscribe", {"ref": remote_ref}, urgent=True
        )
        self._track_subscribe(subscriber.name, issuer_name, remote_ref)
        return RecordState.UNKNOWN

    def _track_subscribe(self, subscriber_name: str, issuer_name: str, remote_ref: int) -> None:
        key = (subscriber_name, issuer_name, remote_ref)
        if key not in self._sub_pending:
            self._sub_pending[key] = 0
            self.network.simulator.schedule(
                self.subscribe_retry_period,
                self._retry_subscribe,
                key,
                name="subscribe-retry",
            )

    def _retry_subscribe(self, key: tuple[str, str, int]) -> None:
        if key not in self._sub_pending:
            return  # acknowledged in the meantime
        subscriber_name, issuer_name, ref = key
        subscriber = self._services.get(subscriber_name)
        if subscriber is None or subscriber.credentials.external(issuer_name, ref) is None:
            # the surrogate is gone; nobody cares about the answer
            self._sub_pending.pop(key, None)
            return
        self._sub_pending[key] += 1
        self.subscribe_retries += 1
        self._pools[subscriber_name].to(self.address_of(issuer_name)).send(
            "subscribe", {"ref": ref}, urgent=True
        )
        self.network.simulator.schedule(
            self.subscribe_retry_period,
            self._retry_subscribe,
            key,
            name="subscribe-retry",
        )

    def publish(self, issuer: "OasisService", notices: list[Notice]) -> None:
        services = self._services
        outboxed: list[Notice] = []
        for ref, state, subscribers in notices:
            dests = [name for name in subscribers if name in services]
            if dests:
                self.notifications += len(dests)
                outboxed.append((ref, state, dests))
        if outboxed:
            # the whole round is one outbox transaction, so a crash
            # between apply and notify cannot lose it
            self._relays[issuer.name].enqueue(outboxed)

    def monitor(
        self,
        issuer: "OasisService",
        subscriber: "OasisService",
        period: float,
        grace: float = 2.0,
    ) -> tuple[HeartbeatSender, HeartbeatMonitor]:
        """Create a heartbeat pair so ``subscriber`` detects ``issuer``
        silence and fails closed, then re-reads state on restore.

        The sender piggybacks on the issuer's data channel: while data
        flows, no standalone heartbeats are sent."""
        issuer_addr = self.address_of(issuer.name)
        subscriber_addr = self.address_of(subscriber.name)
        issuer_relay = self._relays[issuer.name]
        subscriber_relay = self._relays[subscriber.name]

        def on_suspect():
            # one cascade marks every surrogate of the silent service
            subscriber.credentials.mark_service_unknown(issuer.name)

        def on_restore():
            if subscriber_relay.awaiting(issuer.name):
                # a restart (the issuer's or ours) has a tail-sync
                # outstanding: its reply resolves the surrogates
                return
            # re-read the issuer's stamped snapshot, then have the issuer
            # redeliver what it parked meanwhile: deliveries refused while
            # it was suspect are ordered against the snapshot by stamps
            subscriber_relay.apply_snapshot(
                issuer.name, issuer_relay.snapshot_for(subscriber.name)
            )
            issuer_relay.redeliver_to(subscriber.name)

        sender = HeartbeatSender(
            self.network,
            issuer_addr,
            subscriber_addr,
            period,
            epoch=lambda: issuer.boot_epoch,
        )
        monitor = HeartbeatMonitor(
            self.network,
            subscriber_addr,
            issuer_addr,
            period,
            grace=grace,
            on_suspect=on_suspect,
            on_restore=on_restore,
        )

        def on_epoch_change(old: int, new: int) -> None:
            # The issuer crashed and came back: everything learned from
            # the dead epoch is of unverifiable currency.  Mask every
            # surrogate and pull the issuer's snapshot.  The epoch check
            # runs before liveness, so the restore callback that may
            # follow sees the snapshot outstanding.
            subscriber.credentials.mark_service_unknown(issuer.name)
            subscriber_relay.tail_sync(issuer.name)

        monitor.on_epoch_change = on_epoch_change
        self._senders[(issuer_addr, subscriber_addr)] = sender
        self._monitors[(issuer_addr, subscriber_addr)] = monitor
        # data batches from issuer to subscriber now carry the heartbeat
        self._pools[issuer.name].to(subscriber_addr).attach_heartbeat(sender)
        sender.start()
        return sender, monitor

    # ------------------------------------------------------- crash / recovery

    def crash(self, service: "OasisService") -> None:
        """Take ``service`` down hard: it neither sends nor receives, and
        everything queued in its wire channels is lost (volatile state)."""
        address = self.address_of(service.name)
        self.network.node(address).up = False
        self._pools[service.name].discard_all()
        # the relay's journal (disk) keeps the outbox, its timers
        # (memory) die
        self._relays[service.name].crash()
        for (src, _dst), sender in self._senders.items():
            if src == address:
                sender.stop()

    def restart(self, service: "OasisService") -> int:
        """Bring a crashed ``service`` back in a new boot epoch.

        The service's own caches flush (:meth:`OasisService.restart`),
        then its relay recovers: replay the local journal, mask every
        surrogate Unknown (the crash may have swallowed revocations),
        tail-sync each issuer and redrain the outbox.  Its heartbeat
        senders restart under the new epoch stamp.  Returns the new boot
        epoch.
        """
        address = self.address_of(service.name)
        self.network.node(address).up = True
        epoch = service.restart()
        self._relays[service.name].recover()
        for (src, _dst), sender in self._senders.items():
            if src == address:
                sender.restart()
                sender.start()
        return epoch
