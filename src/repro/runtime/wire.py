"""Wire-efficiency layer: batched, coalescing per-destination channels.

OASIS's scalability story rests on cheap cross-service coherence
(sections 4.9-4.10): credential-state notifications, heartbeats and badge
sightings all cross service boundaries.  Sent naively that is one message
per item — a revocation cascade touching 10k surrogates emits 10k
notifications.  A :class:`BatchedChannel` sits between senders and
:meth:`Network.send` and amortises the per-message cost:

* **batching** — payloads queue and flush as one envelope, either when
  ``max_batch`` payloads are pending or ``max_delay`` virtual seconds
  after the first enqueue, whichever comes first.  ``max_delay=0`` still
  batches: the flush runs as a zero-delay simulator event, after the
  enqueuing cascade finishes but before any later-time event, so a whole
  revocation cascade ships as one message with zero added latency.
* **coalescing** — a payload sent with a ``coalesce_key`` supersedes any
  pending payload with the same key (last-state-wins).  A credential
  record that flips TRUE -> UNKNOWN -> FALSE inside one batch window
  sends one message carrying FALSE, not three.
* **heartbeat piggybacking** — a channel with an attached
  :class:`~repro.runtime.heartbeat.HeartbeatSender` stamps each departing
  batch with a real heartbeat (sequence number + event horizon) and
  resets the bare-heartbeat timer, so on a busy link the only liveness
  traffic is the data itself.

Ordering invariants (the "careful" part):

* payloads flush in enqueue order; coalescing updates a pending payload
  in place, so the *final* state is never delayed past the flush
  deadline and never reordered after later-enqueued keys' first send;
* an explicit :meth:`BatchedChannel.flush` empties the queue *now* —
  callers must flush before any state transition that could mask an
  undelivered revocation (fail-closed, PR 1 semantics);
* ``max_delay`` should stay below the consumer's heartbeat period so a
  queued notification always hits the wire before liveness machinery can
  declare the link quiet and re-read around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.runtime.network import Message, Network
from repro.runtime.simulator import Simulator, Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.heartbeat import HeartbeatSender

BATCH_KIND = "wire-batch"


@dataclass(frozen=True)
class WirePolicy:
    """Flush policy for a :class:`BatchedChannel`.

    ``max_batch`` — flush when this many payloads are pending.
    ``max_delay`` — flush this many virtual seconds after the first
    payload of a batch was enqueued (0 = next simulator event at the
    same virtual time).
    ``max_queue`` — bound on the per-destination queue (None =
    unbounded, the legacy fire-and-forget behaviour).  Setting a bound
    switches the channel into *held-queue* mode: while the link to the
    destination is down, batches are held rather than emitted into the
    dead link, and once the backlog exceeds ``max_queue`` the oldest
    payloads spill (with accounting) so memory stays bounded — spilling
    while down is safe because the silent link also starves heartbeats,
    so the consumer has already failed closed.  ``max_queue`` should be
    at least ``max_batch``; on a live link the queue never outgrows
    ``max_batch`` anyway.
    """

    max_batch: int = 64
    max_delay: float = 0.0
    max_queue: Optional[int] = None


@dataclass
class ChannelStats:
    sends: int = 0                  # payloads accepted
    coalesced: int = 0              # payloads superseded before flush
    batches: int = 0                # envelopes put on the wire
    explicit_flushes: int = 0
    piggybacked_heartbeats: int = 0
    spilled: int = 0                # payloads shed by the queue bound
    held_flushes: int = 0           # emits deferred because the link was down
    max_pending: int = 0            # high-water mark of the queue


class BatchedChannel:
    """A per-destination batching/coalescing front for ``Network.send``."""

    def __init__(
        self,
        network: Network,
        source: str,
        dest: str,
        policy: Optional[WirePolicy] = None,
        heartbeat: Optional["HeartbeatSender"] = None,
    ):
        self.network = network
        self.sim: Simulator = network.simulator
        self.source = source
        self.dest = dest
        self.policy = policy or WirePolicy()
        self.stats = ChannelStats()
        self._heartbeat = heartbeat
        if heartbeat is not None:
            network.codec.set_reliable(source, dest)
        self._pending: list[dict[str, Any]] = []
        self._keyed: dict[Any, dict[str, Any]] = {}
        # one reusable kernel entry for the batch window, re-armed per batch
        self._flush_timer = Timer(
            self.sim, self._emit, name=f"flush:{source}->{dest}"
        )
        if self.policy.max_queue is not None:
            # held-queue mode: release the backlog when the link restores
            network.on_link_up(self._on_link_up)

    def attach_heartbeat(self, sender: "HeartbeatSender") -> None:
        """Piggyback ``sender``'s liveness on every departing batch.

        A heartbeat-attached channel retains every departing batch for
        nack-driven retransmission, which is what lets the codec treat
        the link as *reliable*: symbol definitions sent once may be
        referenced by bare ids in later frames, because a lost
        definition frame is always re-delivered in sequence order.
        """
        self._heartbeat = sender
        self.network.codec.set_reliable(self.source, self.dest)

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def backpressure(self) -> bool:
        """True while the bounded queue is at capacity.

        Senders that can shed or defer work should consult this before
        enqueueing more: the next non-coalescing send will spill the
        oldest queued payload.
        """
        max_queue = self.policy.max_queue
        return max_queue is not None and len(self._pending) >= max_queue

    def send(
        self,
        kind: str,
        payload: Any,
        coalesce_key: Any = None,
        urgent: bool = False,
    ) -> None:
        """Queue one payload for the destination.

        With a ``coalesce_key``, a pending payload under the same key is
        superseded in place (last-state-wins).  ``urgent=True`` flushes
        immediately after enqueue — for latency-critical sends that must
        not wait out the batch window.
        """
        if coalesce_key is not None:
            pending = self._keyed.get(coalesce_key)
            if pending is not None:
                pending["kind"] = kind
                pending["payload"] = payload
                self.stats.coalesced += 1
                self.network.note_coalesced(self.source, self.dest)
                if urgent:
                    self.flush()
                return
        item = {"kind": kind, "payload": payload}
        if coalesce_key is not None:
            item["key"] = coalesce_key
            self._keyed[coalesce_key] = item
        self._pending.append(item)
        self.stats.sends += 1
        if urgent or len(self._pending) >= self.policy.max_batch:
            self.flush()
        elif not self._flush_timer.armed:
            self._flush_timer.arm(self.policy.max_delay)
        self._enforce_queue_bound()
        if len(self._pending) > self.stats.max_pending:
            self.stats.max_pending = len(self._pending)

    def _enforce_queue_bound(self) -> None:
        """Spill the oldest queued payloads past ``max_queue``.

        Oldest-first keeps the freshest state in the queue (the
        last-state-wins spirit); the spill is visible in the channel and
        network stats so a chaos run can assert nothing vanished.
        """
        max_queue = self.policy.max_queue
        if max_queue is None:
            return
        while len(self._pending) > max_queue:
            item = self._pending.pop(0)
            key = item.get("key")
            if key is not None and self._keyed.get(key) is item:
                del self._keyed[key]
            self.stats.spilled += 1
            self.network.note_spilled(self.source, self.dest)

    def flush(self) -> None:
        """Put everything pending on the wire now.

        Fail-closed contract: call this before any state transition that
        could mask an undelivered revocation — the queue must be empty
        before a consumer is allowed to conclude "nothing changed".
        """
        self._flush_timer.disarm()
        if self._pending:
            self.stats.explicit_flushes += 1
        self._emit()

    def discard_pending(self) -> int:
        """Drop everything queued without sending it.

        Models a crash: queued-but-unsent payloads are volatile process
        state and die with it.  Returns the number of payloads dropped.
        """
        dropped = len(self._pending)
        self._pending = []
        self._keyed = {}
        self._flush_timer.disarm()
        return dropped

    def _on_link_up(self, source: str, dest: str) -> None:
        if source == self.source and dest == self.dest and self._pending:
            self.flush()

    def _emit(self) -> None:
        if not self._pending:
            return
        if (
            self.policy.max_queue is not None
            and not self.network.link(self.source, self.dest).up
        ):
            # Held-queue mode with the link down: emitting now would only
            # feed the drop counters.  Hold the batch (still coalescing in
            # place) until the link-up notification releases it; the queue
            # bound keeps the backlog finite.
            self.stats.held_flushes += 1
            return
        items, self._pending = self._pending, []
        self._keyed = {}
        for item in items:
            item.pop("key", None)
        # One symbol-table pass over the items: the same section bytes
        # become the standalone ITEMS frame the heartbeat sender retains
        # (so a nack retransmits real encoded bytes) and the BATCH
        # envelope that goes on the wire now.
        codec = self.network.codec
        section = codec.encode_items(self.source, self.dest, items, coalesce=False)
        hb: Optional[dict[str, Any]] = None
        if self._heartbeat is not None:
            # the batch content rides along as the retained payload: if
            # this envelope is lost, the nack for its sequence number
            # retransmits the items instead of an empty filler
            hb = self._heartbeat.piggyback(section.frame)
            self.stats.piggybacked_heartbeats += 1
        batch = codec.wrap_batch(self.source, self.dest, section, hb)
        self.stats.batches += 1
        self.network.send(
            self.source, self.dest, BATCH_KIND, batch, payload_count=len(items)
        )


class ChannelPool:
    """Per-destination :class:`BatchedChannel` instances for one sender."""

    def __init__(
        self,
        network: Network,
        source: str,
        policy: Optional[WirePolicy] = None,
    ):
        self.network = network
        self.source = source
        self.policy = policy or WirePolicy()
        self._channels: dict[str, BatchedChannel] = {}

    def to(self, dest: str) -> BatchedChannel:
        channel = self._channels.get(dest)
        if channel is None:
            channel = self._channels[dest] = BatchedChannel(
                self.network, self.source, dest, policy=self.policy
            )
        return channel

    def channels(self) -> list[BatchedChannel]:
        return list(self._channels.values())

    def flush_all(self) -> None:
        for channel in self._channels.values():
            channel.flush()

    def backpressured(self) -> list[BatchedChannel]:
        """Channels currently at their queue bound (senders that can
        shed or defer should do so for these destinations)."""
        return [ch for ch in self._channels.values() if ch.backpressure]

    def discard_all(self) -> int:
        """Drop all queued payloads on every channel (crash semantics)."""
        return sum(channel.discard_pending() for channel in self._channels.values())


def unpack(message: Message) -> Iterator[Message]:
    """Yield the constituent messages of a wire batch.

    A non-batch message yields itself, so receivers can route every
    delivery through ``for msg in wire.unpack(message): ...`` whether or
    not the sender batches.
    """
    if message.kind != BATCH_KIND:
        yield message
        return
    for item in message.payload["items"]:
        yield Message(
            source=message.source,
            dest=message.dest,
            kind=item["kind"],
            payload=item["payload"],
            sent_at=message.sent_at,
            seq=message.seq,
        )


def heartbeat_of(message: Message) -> Optional[dict]:
    """The heartbeat piggybacked on a batch, if any.

    Feed it to the destination's monitor as a bare ``"heartbeat"``
    message body (``{"seq": ..., "horizon": ...}``).
    """
    if message.kind == BATCH_KIND:
        return message.payload.get("hb")
    return None
