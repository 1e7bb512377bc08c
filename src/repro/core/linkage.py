"""Cross-service credential coherence (sections 4.9-4.10).

When a certificate issued by one service is used as a credential at
another, the consuming service creates a local *external record* and
registers interest in ``Modified(CRR, newstate)`` events at the issuer.
The linkage layer routes those events.

Two implementations:

* :class:`LocalLinkage` — synchronous, in-process delivery.  Used by unit
  tests and single-machine deployments; semantically the zero-delay limit.
* :class:`SimLinkage` — delivery over the simulated network, with per-link
  delay and optional heartbeat monitoring.  A missed heartbeat marks every
  surrogate of the silent service Unknown (fail closed), exactly as
  section 4.10 prescribes; on reconnection the true states are re-read.

``SimLinkage`` routes all of its traffic through the wire-efficiency
layer (:mod:`repro.runtime.wire`): change notifications batch per
destination and coalesce last-state-wins per ``(issuer, ref)``, so a
revocation cascade touching 10k surrogates subscribed by one peer ships
as a handful of messages rather than 10k.  Fail-closed ordering is
preserved: the wire layer never delays a record's *final* state past the
flush deadline, a whole batch settles in a single receiving-side cascade
(:meth:`CredentialRecords.update_external_many`), and the reconnection
re-read flushes the issuer's queue before any surrogate leaves Unknown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.credentials import RecordState
from repro.core.journal import DurableStore, JournalRelay, Notice
from repro.errors import OasisError
from repro.runtime import wire
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Network
from repro.runtime.rpc import RetryPolicy
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
        """The outbound channels of ``service_name`` currently at their
        queue bound.  Admission paths (role entry, certificate issue)
        consult this to shed early: a service whose notification channels
        are jammed must not take on new state whose revocations it could
        not deliver.  Linkages without bounded channels report none."""
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

    Each attached service gets a network node ``oasis:<name>`` and a
    :class:`ChannelPool` of batched per-destination channels.  Modified
    events travel as coalesced wire batches and arrive after link delay;
    optional heartbeat pairs (created with :meth:`monitor`) drive Unknown
    marking and piggyback on data batches.
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
        # Staleness armour for Modified events: each body carries a
        # (issuer boot epoch, per-issuer send seq) stamp, and receivers
        # remember the newest stamp applied per (subscriber, issuer, ref).
        # Without this, a duplicated or reordered message could re-open a
        # surrogate that a newer notification already closed.
        self._mod_seq: dict[str, int] = {}
        self._last_applied: dict[tuple[str, str, int], tuple[int, int]] = {}
        # The newest issuer boot epoch each subscriber has seen, per
        # (subscriber, issuer): raised by every applied stamp and by the
        # heartbeat monitor's epoch change.  A Modified stamped with an
        # older epoch was sent by a boot that has since died.
        self._epoch_floor: dict[tuple[str, str], int] = {}
        self.stale_modified_dropped = 0
        # (issuer_addr, subscriber_addr) pairs whose next restore must
        # not short-circuit with a direct truth re-read: the issuer came
        # back in a new boot epoch and state is re-read over the network.
        self._resync_pending: set[tuple[str, str]] = set()
        # Subscribe is a request that must eventually reach the issuer:
        # a copy lost to the network would leave the issuer unaware of
        # the subscriber, so later revocations would never be notified.
        # Pending (subscriber, issuer, ref) keys are retried on a timer
        # until any Modified event for that ref arrives (the subscribe
        # reply, or a notification — either proves registration).
        self.subscribe_retry_period = 2.0
        self.subscribe_retries = 0
        self._sub_pending: dict[tuple[str, str, int], int] = {}
        # Event-sourced durability (opt-in per service via enable_journal):
        # the shared durable store and the per-service outbox relays.
        # Notifications between two journaled services travel through the
        # transactional outbox instead of the volatile wire channels.
        self.durable: Optional[DurableStore] = None
        self._relays: dict[str, JournalRelay] = {}

    @staticmethod
    def address_of(name: str) -> str:
        return f"oasis:{name}"

    def attach(self, service: "OasisService") -> None:
        self._services[service.name] = service
        address = self.address_of(service.name)
        self._name_at[address] = service.name
        self.network.add_node(address, self._make_handler(service))
        self._pools[service.name] = ChannelPool(self.network, address, policy=self.policy)

    def channel(self, source_name: str, dest_name: str) -> BatchedChannel:
        """The batched channel carrying ``source_name``'s traffic to
        ``dest_name`` (created on first use)."""
        return self._pools[source_name].to(self.address_of(dest_name))

    # ------------------------------------------------------------- durability

    def enable_journal(
        self,
        service: "OasisService",
        store: Optional[DurableStore] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
    ) -> JournalRelay:
        """Give ``service`` a write-ahead journal and transactional outbox.

        All attached journaled services share one :class:`DurableStore`
        (pass ``store`` to share across linkages).  The journal survives
        crash/restart — it models the service's disk, like the credential
        table — so :meth:`restart` recovers by local replay plus one
        tail-sync per issuer instead of the resubscribe storm."""
        relay = self._relays.get(service.name)
        if relay is not None:
            return relay
        if store is None:
            store = self.durable if self.durable is not None else DurableStore()
        self.durable = store
        journal = store.journal(service.name)
        journal.now = lambda: service.clock.now()
        journal.epoch = lambda: service.boot_epoch
        service.attach_journal(journal)
        relay = JournalRelay(self, service, journal, retry=retry, seed=seed)
        self._relays[service.name] = relay
        return relay

    def relay_of(self, service_name: str) -> Optional[JournalRelay]:
        """The journal relay of ``service_name`` (None = unjournaled)."""
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
        it.  Called by the wire path and by journal deliveries alike."""
        self._sub_pending.pop((subscriber_name, issuer_name, remote_ref), None)

    def flush_all(self) -> None:
        """Put every queued notification on the wire now."""
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

    def backpressured_of(self, service_name: str) -> list[BatchedChannel]:
        """``service_name``'s own outbound channels at their queue bound
        (the admission-control signal for that service's entry paths)."""
        pool = self._pools.get(service_name)
        return pool.backpressured() if pool is not None else []

    def _modified_body(self, issuer_name: str, ref: int, state: RecordState) -> dict:
        seq = self._mod_seq.get(issuer_name, 0) + 1
        self._mod_seq[issuer_name] = seq
        epoch = self._services[issuer_name].boot_epoch
        return {
            "issuer": issuer_name,
            "ref": ref,
            "state": state.value,
            "stamp": (epoch, seq),
        }

    def _reply_subscribe(
        self,
        service: "OasisService",
        source: str,
        subscriber_name: str,
        refs: list,
        urgent: bool,
    ) -> None:
        """Answer subscribe requests with the current state of ``refs``.

        Between two journaled services the replies go through the
        transactional outbox (stamped in the journal's space, retried,
        conserved); otherwise they are stamped Modified events on the
        subscriber's channel."""
        relay = self._relays.get(service.name)
        if relay is not None and subscriber_name in self._relays:
            state_of = service.credentials.state_of
            relay.enqueue([(ref, state_of(ref), [subscriber_name]) for ref in refs])
            return
        channel = self._pools[service.name].to(source)
        for ref in refs:
            state = service.credentials.state_of(ref)
            channel.send(
                "modified",
                self._modified_body(service.name, ref, state),
                coalesce_key=("modified", service.name, ref),
                urgent=urgent,
            )
        if not urgent:
            channel.flush()

    def _apply_wire_items(self, service: "OasisService", source: str, pairs) -> None:
        """Apply a batch of ``(kind, body)`` wire items arriving at
        ``service`` from the node at ``source``.

        All Modified notifications in the batch settle as ONE cascade per
        issuer — a 10k-surrogate revocation settles once, not 10k times —
        and the (epoch, seq) stamp dedup makes re-application idempotent,
        so the heartbeat machinery can safely replay a retransmitted
        batch through here.  A subscribe subscribes the service at
        ``source`` (the channel, not the message, names the party), and
        one from an address with no attached service is ignored.
        """
        address = self.address_of(service.name)
        sender = self._name_at.get(source)
        modified: dict[str, list[tuple[int, RecordState]]] = {}
        for kind, body in pairs:
            if kind == "modified":
                stamp = body.get("stamp")
                floor_key = (service.name, body["issuer"])
                floor = self._epoch_floor.get(floor_key, 0)
                if stamp is not None and stamp[0] < floor:
                    # a delayed frame from a dead boot of the issuer: it
                    # could unmask a surrogate the restart masked
                    self.stale_modified_dropped += 1
                    continue
                self.notifications += 1
                # any Modified for this ref proves the issuer knows
                # about us: the subscribe no longer needs retrying
                self._sub_pending.pop(
                    (service.name, body["issuer"], body["ref"]), None
                )
                if stamp is not None:
                    stamp = tuple(stamp)
                    key = (service.name, body["issuer"], body["ref"])
                    last = self._last_applied.get(key)
                    if last is not None and stamp <= last:
                        # duplicate, or a delayed older state: applying
                        # it could flip a closed surrogate back open
                        self.stale_modified_dropped += 1
                        continue
                    self._last_applied[key] = stamp
                    if stamp[0] > floor:
                        self._epoch_floor[floor_key] = stamp[0]
                modified.setdefault(body["issuer"], []).append(
                    (body["ref"], RecordState(body["state"]))
                )
            elif kind == "subscribe" and sender is not None:
                service.credentials.subscribe(body["ref"], sender)
                # the reply resolves a fail-closed Unknown surrogate:
                # urgent, never held for a batch window
                self._reply_subscribe(service, source, sender, [body["ref"]], urgent=True)
            elif kind == "subscribe-many" and sender is not None:
                # a restarted subscriber resubscribing its whole surrogate
                # set in one request (the batched resync path); replies
                # ride the normal batch windows — they all flush together
                refs = [int(ref) for ref in body["refs"]]
                for ref in refs:
                    service.credentials.subscribe(ref, sender)
                self._reply_subscribe(service, source, sender, refs, urgent=False)
            elif kind in ("heartbeat", "heartbeat-payload", "heartbeat-fillers"):
                monitor = self._monitors.get((source, address))
                if monitor is not None:
                    monitor.handle_message(kind, body)
            elif kind == "heartbeat-ack":
                sender = self._senders.get((address, source))
                if sender is not None:
                    sender.handle_ack(body["ack"])
            elif kind == "heartbeat-nack":
                sender = self._senders.get((address, source))
                if sender is not None:
                    sender.handle_nack(body["missing"])
        for issuer_name, updates in modified.items():
            service.credentials.update_external_many(issuer_name, updates)

    def _make_handler(self, service: "OasisService"):
        address = self.address_of(service.name)

        def handler(message):
            hb = wire.heartbeat_of(message)
            if hb is not None:
                monitor = self._monitors.get((message.source, address))
                if monitor is not None:
                    monitor.handle_message("heartbeat", hb)
            self._apply_wire_items(
                service,
                message.source,
                ((msg.kind, msg.payload) for msg in wire.unpack(message)),
            )

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
        pool = self._pools[issuer.name]
        services = self._services
        relays = self._relays
        relay = relays.get(issuer.name)
        outboxed: list[Notice] = []
        for ref, state, subscribers in notices:
            dests = []
            for name in subscribers:
                if name not in services:
                    continue
                self.notifications += 1
                if relay is not None and name in relays:
                    # journaled pair: through the transactional outbox, so
                    # a crash between apply and notify cannot lose it
                    dests.append(name)
                    continue
                pool.to(self.address_of(name)).send(
                    "modified",
                    self._modified_body(issuer.name, ref, state),
                    coalesce_key=("modified", issuer.name, ref),
                )
            if dests:
                outboxed.append((ref, state, dests))
        if outboxed:
            # the whole round is one outbox transaction
            relay.enqueue(outboxed)

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

        def on_suspect():
            # one cascade marks every surrogate of the silent service
            subscriber.credentials.mark_service_unknown(issuer.name)

        def on_restore():
            # flush-before-unmask: anything still queued at the issuer
            # must be on the wire before surrogates leave Unknown, so a
            # queued revocation cannot be masked by the re-read
            issuer_relay = self._relays.get(issuer.name)
            if issuer_relay is not None:
                issuer_relay.drain()
            self._pools[issuer.name].to(subscriber_addr).flush()
            if (issuer_addr, subscriber_addr) in self._resync_pending:
                # the issuer restored in a NEW boot epoch: surrogates stay
                # Unknown until the network resubscribe replies arrive —
                # a direct truth read would paper over the recovery path
                self._resync_pending.discard((issuer_addr, subscriber_addr))
                return
            # re-read every surrogate's true state from the issuer and
            # settle the whole batch in a single cascade
            updates = []
            for record in subscriber.credentials.externals_of(issuer.name):
                assert record.external_ref is not None
                updates.append((record.ref, issuer.credentials.state_of(record.external_ref)))
            subscriber.credentials.set_states(updates)

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
            # surrogate and resubscribe over the network.  The epoch check
            # runs before liveness, so ``monitor.suspect`` still reflects
            # whether a restore callback is about to fire.
            floor_key = (subscriber.name, issuer.name)
            self._epoch_floor[floor_key] = max(self._epoch_floor.get(floor_key, 0), new)
            if monitor.suspect:
                self._resync_pending.add((issuer_addr, subscriber_addr))
            subscriber.credentials.mark_service_unknown(issuer.name)
            subscriber_relay = self._relays.get(subscriber.name)
            if subscriber_relay is not None and issuer.name in self._relays:
                # journaled pair: one tail-sync pull replaces the
                # per-surrogate resubscribe round-trip
                subscriber_relay.tail_sync(issuer.name)
            else:
                self.resync(subscriber, issuer.name)

        def on_payload(payload, horizon: float) -> None:
            # A lost data batch retransmitted by the nack machinery
            # (HeartbeatSender retains piggybacked batch items).  The
            # monitor delivers it in sequence order; (epoch, seq) stamps
            # drop anything a newer notification already superseded.
            if isinstance(payload, dict) and payload.get("items"):
                self._apply_wire_items(
                    subscriber,
                    issuer_addr,
                    ((item["kind"], item["payload"]) for item in payload["items"]),
                )

        monitor.on_epoch_change = on_epoch_change
        monitor.on_payload = on_payload
        self._senders[(issuer_addr, subscriber_addr)] = sender
        self._monitors[(issuer_addr, subscriber_addr)] = monitor
        # data batches from issuer to subscriber now carry the heartbeat
        self._pools[issuer.name].to(subscriber_addr).attach_heartbeat(sender)
        sender.start()
        return sender, monitor

    # ------------------------------------------------------- crash / recovery

    def resync(self, subscriber: "OasisService", issuer_name: str) -> int:
        """Re-subscribe every surrogate ``subscriber`` holds on
        ``issuer_name`` and flush the request onto the wire.

        The whole surrogate set travels as ONE ``subscribe-many`` item —
        a restart over 10k surrogates no longer storms the issuer with
        10k subscribe messages — and the issuer's stamped Modified
        replies ride its normal batch windows, so the surrogates resolve
        from Unknown to issuer truth one network round-trip later.
        Returns the number of refs resubscribed.
        """
        refs = [
            record.external_ref
            for record in subscriber.credentials.externals_of(issuer_name)
            if record.external_ref is not None
        ]
        if not refs:
            return 0
        channel = self._pools[subscriber.name].to(self.address_of(issuer_name))
        channel.send(
            "subscribe-many",
            {"refs": refs},
            coalesce_key=("subscribe-many", issuer_name, subscriber.name),
        )
        for ref in refs:
            self._track_subscribe(subscriber.name, issuer_name, ref)
        self.network.note_batched_subscribe(
            channel.source, channel.dest, len(refs)
        )
        channel.flush()
        return len(refs)

    def crash(self, service: "OasisService") -> None:
        """Take ``service`` down hard: it neither sends nor receives, and
        everything queued in its wire channels is lost (volatile state)."""
        address = self.address_of(service.name)
        self.network.node(address).up = False
        self._pools[service.name].discard_all()
        relay = self._relays.get(service.name)
        if relay is not None:
            # the relay's node fate-shares with the service; its journal
            # (disk) keeps the outbox, its timers (memory) die
            self.network.node(relay.address).up = False
            relay.crash()
        for (src, _dst), sender in self._senders.items():
            if src == address:
                sender.stop()

    def restart(self, service: "OasisService") -> int:
        """Bring a crashed ``service`` back in a new boot epoch.

        The service's own caches flush (:meth:`OasisService.restart`),
        every surrogate it holds is masked Unknown and resubscribed —
        the crash may have swallowed revocations, so nothing learned
        before it can be trusted until re-read — and its heartbeat
        senders restart with fresh sequence numbers under the new epoch
        stamp.  A journaled service recovers through its relay instead:
        replay the local journal, tail-sync journaled issuers, redrain
        the outbox.  Returns the new boot epoch.
        """
        address = self.address_of(service.name)
        self.network.node(address).up = True
        relay = self._relays.get(service.name)
        if relay is not None:
            self.network.node(relay.address).up = True
        epoch = service.restart()
        if relay is not None:
            relay.recover()
        else:
            for issuer_name in service.credentials.external_services():
                service.credentials.mark_service_unknown(issuer_name)
                self.resync(service, issuer_name)
        for (src, _dst), sender in self._senders.items():
            if src == address:
                sender.restart()
                sender.start()
        return epoch
