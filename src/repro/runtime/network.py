"""Simulated message-passing network.

Nodes register a message handler under a string address.  Links between
nodes carry per-link delay (base + seeded jitter), loss probability and
partition state.  Delivery is scheduled on the shared simulator, so all
network behaviour is deterministic for a given seed.

This substrate replaces the real network the dissertation's implementation
ran on; every cross-service interaction in the distributed experiments
(credential-record change notifications, heartbeats, badge sightings)
travels through it.

Accounting: every send updates a :class:`NetworkStats` on the fabric and a
per-directed-link copy, so experiments can assert message-count and
byte-count reductions (the wire-efficiency layer of
:mod:`repro.runtime.wire` batches many payloads into one message; the
``payload_count`` argument to :meth:`Network.send` keeps the payload tally
honest).

Every payload is marshalled through the wire codec
(:mod:`repro.runtime.codec`) at :meth:`Network.send` and unmarshalled at
delivery, so what travels (and what ``bytes_sent`` counts) is real
encoded frames: an encode bug shows up as a changed or failed delivery,
never as a silently-wrong byte count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import CodecError, NetworkError
from repro.runtime.codec import Encoded, WireCodec
from repro.runtime.simulator import Simulator

MessageHandler = Callable[["Message"], None]
LinkDownCallback = Callable[[str, str], None]
LinkUpCallback = Callable[[str, str], None]

# A fault injector decides, per message, the list of delivery delays for
# the (possibly duplicated, possibly delayed-out-of-order) copies to
# schedule — or None to drop the message entirely.  See
# :mod:`repro.runtime.faults` for the standard implementation.
FaultInjector = Callable[["Message", float], Optional[list[float]]]

# Fixed per-message overhead in the bytes-in-spirit model: addresses,
# kind, sequence number — the part of the wire cost that batching
# amortises across payloads.
MESSAGE_HEADER_BYTES = 24


@dataclass
class NetworkStats:
    """Counter surface for wire-efficiency experiments.

    One instance lives on the :class:`Network`; another per directed link
    (see :meth:`Network.link_stats`).  ``payloads_carried`` counts the
    application payloads inside messages (a batch of 50 notifications is
    one message, 50 payloads); ``coalesced`` counts payloads that never
    hit the wire because a later payload superseded them in a batch
    window (last-state-wins).
    """

    messages_sent: int = 0
    payloads_carried: int = 0
    bytes_sent: int = 0
    encoded_bytes: int = 0           # codec frame bytes (bytes_sent minus headers)
    intern_hits: int = 0             # strings sent as a symbol ref
    intern_misses: int = 0           # strings sent as text
    coalesced: int = 0
    delivered: int = 0
    dropped_by_loss: int = 0
    dropped_while_down: int = 0
    dropped_no_handler: int = 0
    dropped_by_fault: int = 0
    dropped_decode: int = 0          # undecodable frames (bad version, dangling ref)
    duplicated: int = 0

    def offered(self) -> int:
        """Delivery attempts this side of the fabric created: every send
        plus every fault-injected duplicate copy."""
        return self.messages_sent + self.duplicated

    def accounted(self) -> int:
        """Delivery attempts with a known fate (delivered or counted in
        one of the drop counters)."""
        return (
            self.delivered
            + self.dropped_by_loss
            + self.dropped_while_down
            + self.dropped_no_handler
            + self.dropped_by_fault
            + self.dropped_decode
        )


@dataclass(frozen=True)
class Message:
    """An application message in flight.

    While in flight ``payload`` is the encoded frame (``bytes``); the
    message handed to the receiving node carries the decoded object, so
    handlers never see wire bytes.  ``sent_at`` is true (virtual) send
    time.
    """

    source: str
    dest: str
    kind: str
    payload: Any
    sent_at: float
    seq: int


@dataclass
class Link:
    """Directed link properties between two addresses."""

    base_delay: float = 0.001
    jitter: float = 0.0
    loss_probability: float = 0.0
    up: bool = True

    def sample_delay(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base_delay
        return self.base_delay + rng.uniform(0.0, self.jitter)


class Node:
    """A network endpoint: an address plus a message handler."""

    def __init__(self, address: str, handler: MessageHandler, network: Optional["Network"] = None):
        self.address = address
        self.handler = handler
        self.network = network
        self.up = True
        self.received = 0
        self.dropped_while_down = 0

    def deliver(self, message: Message) -> None:
        if not self.up:
            self.dropped_while_down += 1
            if self.network is not None:
                self.network.stats.dropped_while_down += 1
                self.network.link_stats(message.source, self.address).dropped_while_down += 1
            return
        self.received += 1
        if self.network is not None:
            self.network.stats.delivered += 1
            self.network.link_stats(message.source, self.address).delivered += 1
        self.handler(message)


class Network:
    """The simulated network fabric.

    >>> sim = Simulator()
    >>> net = Network(sim, seed=42)
    >>> got = []
    >>> _ = net.add_node("a", lambda m: None)
    >>> _ = net.add_node("b", lambda m: got.append(m.payload))
    >>> _ = net.send("a", "b", "ping", 123)
    >>> sim.run()
    1
    >>> got
    [123]
    """

    def __init__(
        self,
        simulator: Simulator,
        seed: int = 0,
        default_delay: float = 0.001,
        default_jitter: float = 0.0,
        default_loss: float = 0.0,
        codec: Optional[WireCodec] = None,
    ):
        self.simulator = simulator
        self.codec = codec if codec is not None else WireCodec()
        # the world's seed: components with their own random streams
        # (journal relays) derive them from it
        self.seed = seed
        self._rng = random.Random(seed)
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._default = Link(
            base_delay=default_delay,
            jitter=default_jitter,
            loss_probability=default_loss,
        )
        self._seq = 0
        self.stats = NetworkStats()
        self._link_stats: dict[tuple[str, str], NetworkStats] = {}
        self._link_down_callbacks: list[LinkDownCallback] = []
        self._link_up_callbacks: list[LinkUpCallback] = []
        self._injector: Optional[FaultInjector] = None
        self.warn_no_handler = False
        # Why a directed link is down.  A link may be cut by overlapping
        # partitions (refcounted) and independently by set_link_state
        # (a chaos link flap); it comes back up only when every cause is
        # gone — heal() undoes partitions, never a concurrent flap.
        self._partition_cuts: dict[tuple[str, str], int] = {}
        self._manual_down: set[tuple[str, str]] = set()
        # messages scheduled for delivery but not yet handed to the node;
        # lets accounting identities hold at any instant, not just at quiesce
        self.in_flight = 0
        # same-tick delivery batching: all messages arriving at one
        # (destination, virtual time) share a single kernel event.  The
        # batch list keeps arrival (= send seq) order, so delivery order
        # is identical to one kernel event per message.
        self._arrivals: dict[tuple[Node, float], list[Message]] = {}

    # -- topology -----------------------------------------------------------

    def add_node(self, address: str, handler: MessageHandler) -> Node:
        if address in self._nodes:
            raise NetworkError(f"duplicate node address {address!r}")
        node = Node(address, handler, network=self)
        self._nodes[address] = node
        return node

    def remove_node(self, address: str) -> None:
        self._nodes.pop(address, None)

    def node(self, address: str) -> Node:
        try:
            return self._nodes[address]
        except KeyError:
            raise NetworkError(f"no node at address {address!r}") from None

    def has_node(self, address: str) -> bool:
        return address in self._nodes

    def set_link(self, source: str, dest: str, link: Link) -> None:
        """Set properties for the directed link source -> dest.

        An explicit link replacement is authoritative: it clears any
        recorded down-causes (partitions, flaps) and imposes ``link.up``.
        """
        key = (source, dest)
        was_up = self.link(source, dest).up
        self._links[key] = link
        self._partition_cuts.pop(key, None)
        self._manual_down.discard(key)
        if not link.up:
            self._manual_down.add(key)
        if was_up and not link.up:
            self._notify_link_down(source, dest)
        elif not was_up and link.up:
            self._notify_link_up(source, dest)

    def link(self, source: str, dest: str) -> Link:
        return self._links.get((source, dest), self._default)

    def link_stats(self, source: str, dest: str) -> NetworkStats:
        """Per-directed-link counters (created on first use)."""
        key = (source, dest)
        stats = self._link_stats.get(key)
        if stats is None:
            stats = self._link_stats[key] = NetworkStats()
        return stats

    def set_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or clear) the per-message fault injector.

        The injector sees every message that survived the link's own
        up/loss checks and returns the delivery delays for its copies
        (one element = normal delivery, several = duplication, values
        above the link delay = reordering) or None to drop it.
        """
        self._injector = injector

    def set_link_state(self, source: str, dest: str, up: bool) -> None:
        """Flip a single directed link up or down, keeping its parameters.

        This is the link-flap channel: bringing the link back up undoes
        only the flap — the link stays down while an overlapping
        partition still cuts it (and vice versa).
        """
        key = (source, dest)
        if up:
            self._manual_down.discard(key)
        else:
            self._manual_down.add(key)
        self._apply_link_state(source, dest)

    def on_link_down(self, callback: LinkDownCallback) -> None:
        """Register ``callback(source, dest)`` for up->down transitions.

        Fired by :meth:`partition` and by :meth:`set_link` when a live
        link is replaced by a dead one.  Endpoints use this to fail
        pending requests promptly instead of waiting out a timeout.
        """
        self._link_down_callbacks.append(callback)

    def on_link_up(self, callback: LinkUpCallback) -> None:
        """Register ``callback(source, dest)`` for down->up transitions.

        Fired when the last down-cause of a link is removed (a heal, a
        flap ending, an explicit live ``set_link``).  RPC endpoints use
        this to send toward a peer again.
        """
        self._link_up_callbacks.append(callback)

    def _notify_link_down(self, source: str, dest: str) -> None:
        for callback in self._link_down_callbacks:
            callback(source, dest)

    def _notify_link_up(self, source: str, dest: str) -> None:
        for callback in self._link_up_callbacks:
            callback(source, dest)

    def _apply_link_state(self, source: str, dest: str) -> None:
        """Reconcile the physical link state with the recorded causes."""
        key = (source, dest)
        link = self._link_mut(source, dest)
        should_be_up = (
            self._partition_cuts.get(key, 0) == 0 and key not in self._manual_down
        )
        if link.up and not should_be_up:
            link.up = False
            self._notify_link_down(source, dest)
        elif not link.up and should_be_up:
            link.up = True
            self._notify_link_up(source, dest)

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Cut all links between two groups of addresses (both directions).

        Overlapping partitions stack: a link cut by two windows stays
        down until both heal.
        """
        for a in group_a:
            for b in group_b:
                for source, dest in ((a, b), (b, a)):
                    key = (source, dest)
                    self._partition_cuts[key] = self._partition_cuts.get(key, 0) + 1
                    self._apply_link_state(source, dest)

    def heal(self, group_a: set[str], group_b: set[str]) -> None:
        """Undo one :meth:`partition` between the two groups.

        Only the partition's own cut is removed: a link independently
        taken down by a concurrent flap (:meth:`set_link_state`) or by
        another partition window stays down until that cause also ends.
        """
        for a in group_a:
            for b in group_b:
                for source, dest in ((a, b), (b, a)):
                    key = (source, dest)
                    cuts = self._partition_cuts.get(key, 0)
                    if cuts > 1:
                        self._partition_cuts[key] = cuts - 1
                    else:
                        self._partition_cuts.pop(key, None)
                    self._apply_link_state(source, dest)

    def _link_mut(self, source: str, dest: str) -> Link:
        key = (source, dest)
        if key not in self._links:
            default = self._default
            self._links[key] = Link(
                base_delay=default.base_delay,
                jitter=default.jitter,
                loss_probability=default.loss_probability,
            )
        return self._links[key]

    # -- transmission -------------------------------------------------------

    def note_coalesced(self, source: str, dest: str, count: int = 1) -> None:
        """Record payloads elided before send (wire-layer coalescing)."""
        self.stats.coalesced += count
        self.link_stats(source, dest).coalesced += count

    def unaccounted(self) -> int:
        """Delivery attempts with no recorded fate.

        Every offered message (send + fault duplicate) must end up
        delivered, in a drop counter, or still in flight; a non-zero
        result means a message silently vanished from the accounting.
        """
        return self.stats.offered() - self.stats.accounted() - self.in_flight

    def send(
        self,
        source: str,
        dest: str,
        kind: str,
        payload: Any,
        payload_count: int = 1,
    ) -> Optional[Message]:
        """Send a message; returns it, or None if it was lost/partitioned.

        Loss and partitions are silent to the sender, as on a real datagram
        network; reliability is the application's problem (which is the
        whole point of the heartbeat protocol of section 4.10).

        ``payload_count`` is the number of application payloads inside the
        message (> 1 for wire-layer batches); it only affects accounting.

        ``payload`` is encoded into a codec frame here (layers that need
        to retain the bytes pre-encode and pass an :class:`Encoded`);
        un-encodable payloads raise :class:`~repro.errors.CodecError`
        before anything is counted or transmitted.
        """
        if isinstance(payload, Encoded):
            encoded = payload
        else:
            encoded = self.codec.encode(kind, payload)
        self._seq += 1
        message = Message(
            source=source,
            dest=dest,
            kind=kind,
            payload=encoded.data,
            sent_at=self.simulator.now,
            seq=self._seq,
        )
        per_link = self.link_stats(source, dest)
        body_len = len(encoded.data)
        size = MESSAGE_HEADER_BYTES + body_len
        for stats in (self.stats, per_link):
            stats.messages_sent += 1
            stats.payloads_carried += payload_count
            stats.bytes_sent += size
            stats.encoded_bytes += body_len
            stats.intern_hits += encoded.intern_hits
            stats.intern_misses += encoded.intern_misses
        src_node = self._nodes.get(source)
        if src_node is not None and not src_node.up:
            # A crashed host neither receives nor transmits.
            self.stats.dropped_while_down += 1
            per_link.dropped_while_down += 1
            return None
        if dest not in self._nodes:
            self.stats.dropped_no_handler += 1
            per_link.dropped_no_handler += 1
            if self.warn_no_handler:
                import warnings

                warnings.warn(
                    f"message {kind!r} to unregistered address {dest!r} dropped",
                    stacklevel=2,
                )
            return None
        link = self.link(source, dest)
        if not link.up:
            self.stats.dropped_while_down += 1
            per_link.dropped_while_down += 1
            return None
        if link.loss_probability > 0 and self._rng.random() < link.loss_probability:
            self.stats.dropped_by_loss += 1
            per_link.dropped_by_loss += 1
            return None
        delay = link.sample_delay(self._rng)
        node = self._nodes[dest]
        if self._injector is not None:
            delays = self._injector(message, delay)
            if not delays:
                # None is an explicit drop; an empty list schedules zero
                # deliveries, which is the same fate and must not vanish
                # from the accounting
                self.stats.dropped_by_fault += 1
                per_link.dropped_by_fault += 1
                return None
            if len(delays) > 1:
                extra = len(delays) - 1
                self.stats.duplicated += extra
                per_link.duplicated += extra
            for d in delays:
                self._enqueue_delivery(node, message, d, kind)
            return message
        self._enqueue_delivery(node, message, delay, kind)
        return message

    def _enqueue_delivery(
        self, node: Node, message: Message, delay: float, kind: str
    ) -> None:
        """Queue one delivery, coalescing same-(dest, time) arrivals.

        The first message bound for ``node`` at an arrival time schedules
        the batch event; later sends landing on the same key just append.
        Per-message accounting (``in_flight``, decode stats, duplicate
        copies) is untouched — only the kernel event is shared.
        """
        self.in_flight += 1
        time = self.simulator.now + delay
        batch = self._arrivals.get((node, time))
        if batch is not None:
            batch.append(message)
            return
        self._arrivals[(node, time)] = [message]
        self.simulator.schedule_at(
            time, self._deliver_batch, node, time, name=f"deliver:{kind}"
        )

    def _deliver_batch(self, node: Node, time: float) -> None:
        for message in self._arrivals.pop((node, time)):
            self._deliver(node, message)

    def _deliver(self, node: Node, message: Message) -> None:
        self.in_flight -= 1
        if not node.up:
            # A crashed host does not process the frame; deliver()
            # records the drop.
            node.deliver(message)
            return
        try:
            decoded = self.codec.decode(message.payload)
        except CodecError:
            # An unverifiable frame (wrong version, dangling symbol ref,
            # truncation, leftover bytes) is dropped with accounting; the
            # layers above treat this exactly like message loss (the
            # outbox DLQ sends again).
            self.stats.dropped_decode += 1
            self.link_stats(message.source, node.address).dropped_decode += 1
            return
        node.deliver(
            Message(
                message.source,
                message.dest,
                message.kind,
                decoded,
                message.sent_at,
                message.seq,
            )
        )
