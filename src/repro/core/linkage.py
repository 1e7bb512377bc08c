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
  ordered by stamps.  Its undelivered depth per destination is the one
  queue bound admission sheds on.  It is also the one recovery path: a
  restart replays the journal, masks every surrogate Unknown and
  tail-syncs each issuer.  Optional heartbeat pairs (created with
  :meth:`SimLinkage.monitor`) carry liveness, boot epoch and event
  horizon: a missed heartbeat marks every surrogate of the silent
  service Unknown (fail closed), exactly as section 4.10 prescribes, the
  receiver refuses deliveries from a suspect issuer, and on reconnection
  the issuer's stamped snapshot is re-read.  Subscribe requests travel
  on batched wire channels (:mod:`repro.runtime.wire`), whose batches
  also carry the heartbeat stamp: a burst of admissions against one
  issuer is one message, answered by one outbox transaction.  All of it
  goes through the service's one network node, so a fault that silences
  its heartbeats also stops its notifications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.credentials import RecordState
from repro.core.journal import DurableStore, JournalRelay, Notice
from repro.errors import OasisError
from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Network
from repro.runtime.simulator import Timer
from repro.runtime.wire import BatchedChannel, ChannelPool

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
        """The destinations of ``service_name``'s notifications whose
        queue is at its bound.  Admission paths (role entry, certificate
        issue) consult this to shed early: a service whose notifications
        are jammed must not take on new state whose revocations it could
        not deliver.  Linkages without bounded queues report none."""
        return []


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
    per-destination channels sends its subscribe requests and
    heartbeats.  Optional heartbeat pairs (created with :meth:`monitor`)
    drive Unknown marking and piggyback on data batches.

    A subscribe waits out its channel's batch window (zero-delay by
    default), so the subscribes of one virtual instant to one issuer
    leave as one batch, and the issuer answers the batch with one outbox
    transaction: one ``notify`` record and one ``outbox-deliver`` per
    subscriber.  Until a delivery or snapshot row for a ref arrives, one
    timer per (subscriber, issuer) pair resends the ref
    ``subscribe_retry_period`` after its last send, in one batch with
    the pair's other overdue refs.

    ``outbox_bound`` is the one queue bound: while a service has that
    many undelivered outbox entries for one destination, its admissions
    shed (None = never).
    """

    def __init__(self, network: Network, outbox_bound: Optional[int] = None):
        self.network = network
        self.outbox_bound = outbox_bound
        self._services: dict[str, "OasisService"] = {}
        # address -> attached service name: the channel, never the
        # message, names the peer (subscribes, relay RPCs)
        self.name_at: dict[str, str] = {}
        self._monitors: dict[tuple[str, str], HeartbeatMonitor] = {}
        self._senders: dict[tuple[str, str], HeartbeatSender] = {}
        self._pools: dict[str, ChannelPool] = {}
        self.notifications = 0
        # Subscribe is a request that must eventually reach the issuer:
        # a copy lost to the network would leave the issuer unaware of
        # the subscriber, so later revocations would never be notified.
        # Per (subscriber, issuer) pair, each pending ref maps to its last
        # send time (oldest first) until any delivery for it arrives (the
        # subscribe reply, or a notification: either proves
        # registration); one timer per pair resends the overdue ones.
        self.subscribe_retry_period = 2.0
        self.subscribe_retries = 0
        self._sub_pending: dict[tuple[str, str], dict[int, float]] = {}
        self._sub_timers: dict[tuple[str, str], Timer] = {}
        # every attached service's journal (the world's disk) and relay
        self.durable = DurableStore()
        self._relays: dict[str, JournalRelay] = {}

    @staticmethod
    def address_of(name: str) -> str:
        return f"oasis:{name}"

    def attach(self, service: "OasisService") -> None:
        self._services[service.name] = service
        address = self.address_of(service.name)
        self.name_at[address] = service.name
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
        self._pools[service.name] = ChannelPool(self.network, address)

    def channel(self, source_name: str, dest_name: str) -> BatchedChannel:
        """The channel carrying ``source_name``'s traffic to
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
        now."""
        relay = self._relays.get(service_name)
        if relay is not None:
            relay.drain()

    def journal_quiescent(self) -> bool:
        """No outbox entry anywhere is pending or in flight.  Parked
        dead letters do NOT count: they are accounted work awaiting
        backoff toward a dead peer, and a quiesce must not wedge on them."""
        return all(relay.quiescent() for relay in self._relays.values())

    def quiesce(self, timeout: float = 60.0) -> float:
        """Step the kernel until :meth:`journal_quiescent` holds, no
        channel holds a queued payload and no message is in flight;
        returns the virtual seconds it took.  A cascade crossing N
        services settles in N link delays.  Raises
        :class:`~repro.errors.OasisError` if that takes more than
        ``timeout`` virtual seconds."""
        sim = self.network.simulator
        started = sim.now
        while not (
            self.journal_quiescent()
            and self.network.in_flight == 0
            and not any(pool.pending for pool in self._pools.values())
        ):
            next_at = sim.peek_time()
            if next_at is None or next_at - started > timeout:
                raise OasisError(f"not quiescent within {timeout}s")
            sim.step()
        return sim.now - started

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
        pending = self._sub_pending.get((subscriber_name, issuer_name))
        if pending:
            pending.pop(remote_ref, None)

    def suspects(self, subscriber_name: str, issuer_name: str) -> bool:
        """Whether ``subscriber_name``'s heartbeat monitor currently
        suspects ``issuer_name`` (False without a monitor)."""
        monitor = self._monitors.get(
            (self.address_of(issuer_name), self.address_of(subscriber_name))
        )
        return monitor is not None and monitor.suspect

    def backpressured_of(self, service_name: str) -> list[str]:
        """The destinations for which ``service_name`` holds at least
        ``outbox_bound`` undelivered outbox entries (the
        admission-control signal for that service's entry paths)."""
        bound = self.outbox_bound
        relay = self._relays.get(service_name)
        if bound is None or relay is None:
            return []
        return [dest for dest, count in relay.journal.depth.items() if count >= bound]

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
            sender = self.name_at.get(source)
            replies: list[Notice] = []
            for item in wire.unpack(message):
                if item.kind == "subscribe" and sender is not None:
                    # the channel, not the message, names the subscriber
                    ref = item.payload["ref"]
                    credentials.subscribe(ref, sender)
                    replies.append((ref, credentials.state_of(ref), [sender]))
                elif item.kind == "heartbeat":
                    monitor = self._monitors.get((source, address))
                    if monitor is not None:
                        monitor.handle_message("heartbeat", item.payload)
            if replies:
                # the batch's replies go through the outbox like any
                # Modified: one transaction, one delivery
                self._relays[service.name].enqueue(replies)

        return handler

    def subscribe(self, subscriber: "OasisService", issuer_name: str, remote_ref: int) -> RecordState:
        # Subscription is asynchronous on the real network; the surrogate
        # starts Unknown and is resolved by the issuer's state reply.  The
        # request waits out the channel's batch window (zero-delay by
        # default), so a burst of admissions leaves as one message.
        self.channel(subscriber.name, issuer_name).send("subscribe", {"ref": remote_ref})
        self._track_subscribe(subscriber.name, issuer_name, remote_ref)
        return RecordState.UNKNOWN

    def _track_subscribe(self, subscriber_name: str, issuer_name: str, remote_ref: int) -> None:
        pair = (subscriber_name, issuer_name)
        pending = self._sub_pending.get(pair)
        if pending is None:
            pending = self._sub_pending[pair] = {}
        # (re)inserted last, so the refs stay ordered by last send
        pending.pop(remote_ref, None)
        pending[remote_ref] = self.network.simulator.now
        timer = self._sub_timers.get(pair)
        if timer is None:
            timer = self._sub_timers[pair] = Timer(
                self.network.simulator,
                self._retry_subscribes,
                pair,
                name=f"subscribe-retry:{subscriber_name}->{issuer_name}",
            )
        if not timer.armed:
            timer.arm(self.subscribe_retry_period)

    def _retry_subscribes(self, pair: tuple[str, str]) -> None:
        """Resend, as one batch, every ref of ``pair`` that has gone a
        full period since its last send unacknowledged, dropping those
        whose surrogate is gone; then re-arm for the oldest still
        pending."""
        subscriber_name, issuer_name = pair
        pending = self._sub_pending[pair]
        period = self.subscribe_retry_period
        now = self.network.simulator.now
        overdue = []
        for ref, sent_at in pending.items():
            if sent_at + period > now:
                break
            overdue.append(ref)
        credentials = self._services[subscriber_name].credentials
        channel = self.channel(subscriber_name, issuer_name)
        for ref in overdue:
            del pending[ref]
            if credentials.external(issuer_name, ref) is None:
                continue  # the surrogate is gone; nobody cares about the answer
            channel.send("subscribe", {"ref": ref})
            pending[ref] = now
            self.subscribe_retries += 1
        if pending:
            self._sub_timers[pair].arm_at(next(iter(pending.values())) + period)

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
