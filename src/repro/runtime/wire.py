"""Wire-efficiency layer: batched, coalescing per-destination channels.

OASIS's scalability story rests on cheap cross-service traffic
(sections 4.9-4.10): subscribe requests, heartbeats, badge sightings and
proxied events all cross service boundaries.  Sent naively that is one
message per item.  (Credential-state notifications travel through the
journal relay's outbox instead, one delivery per destination per
round: :mod:`repro.core.journal`.)  A :class:`BatchedChannel` sits
between senders and :meth:`Network.send` and amortises the per-message
cost:

* **batching** — payloads queue and flush as one envelope, either when
  ``max_batch`` payloads are pending or ``max_delay`` virtual seconds
  after the first enqueue, whichever comes first.  ``max_delay=0`` still
  batches: the flush runs as a zero-delay simulator event, after the
  enqueuing cascade finishes but before any later-time event, so a
  burst sent in one instant ships as one message with zero added
  latency.
* **coalescing** — a payload sent with a ``coalesce_key`` supersedes any
  pending payload with the same key (last-state-wins).  A badge seen in
  three rooms inside one batch window is reported once, in the last.
* **heartbeat piggybacking** — a channel with an attached
  :class:`~repro.runtime.heartbeat.HeartbeatSender` stamps each departing
  batch with a heartbeat (boot epoch + event horizon) and resets the
  bare-heartbeat timer, so on a busy link the only liveness traffic is
  the data itself.

Ordering invariants (the "careful" part):

* payloads flush in enqueue order; coalescing updates a pending payload
  in place, so the *final* state is never delayed past the flush
  deadline and never reordered after later-enqueued keys' first send;
* an explicit :meth:`BatchedChannel.flush` empties the queue *now*;
* ``max_delay`` should stay below the consumer's heartbeat period so a
  queued payload always hits the wire before liveness machinery can
  declare the link quiet.

A channel holds nothing back: a batch bound for a dead link is sent and
dropped with accounting, like any datagram.  The one queue bound in the
system is the journal outbox's depth (what admission sheds on); a
silent link starves heartbeats too, so its consumer has failed closed.
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
    same virtual time).  The queue never outgrows ``max_batch``.
    """

    max_batch: int = 64
    max_delay: float = 0.0


@dataclass
class ChannelStats:
    sends: int = 0                  # payloads accepted
    coalesced: int = 0              # payloads superseded before flush
    batches: int = 0                # envelopes put on the wire
    explicit_flushes: int = 0
    piggybacked_heartbeats: int = 0


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
        self._pending: list[dict[str, Any]] = []
        self._keyed: dict[Any, dict[str, Any]] = {}
        # one reusable kernel entry for the batch window, re-armed per batch
        self._flush_timer = Timer(
            self.sim, self._emit, name=f"flush:{source}->{dest}"
        )

    def attach_heartbeat(self, sender: "HeartbeatSender") -> None:
        """Piggyback ``sender``'s liveness on every departing batch."""
        self._heartbeat = sender

    @property
    def pending(self) -> int:
        return len(self._pending)

    def send(self, kind: str, payload: Any, coalesce_key: Any = None) -> None:
        """Queue one payload for the destination.

        With a ``coalesce_key``, a pending payload under the same key is
        superseded in place (last-state-wins).
        """
        if coalesce_key is not None:
            pending = self._keyed.get(coalesce_key)
            if pending is not None:
                pending["kind"] = kind
                pending["payload"] = payload
                self.stats.coalesced += 1
                self.network.note_coalesced(self.source, self.dest)
                return
        item = {"kind": kind, "payload": payload}
        if coalesce_key is not None:
            item["key"] = coalesce_key
            self._keyed[coalesce_key] = item
        self._pending.append(item)
        self.stats.sends += 1
        if len(self._pending) >= self.policy.max_batch:
            self.flush()
        elif not self._flush_timer.armed:
            self._flush_timer.arm(self.policy.max_delay)

    def flush(self) -> None:
        """Put everything pending on the wire now."""
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

    def _emit(self) -> None:
        if not self._pending:
            return
        items, self._pending = self._pending, []
        self._keyed = {}
        for item in items:
            item.pop("key", None)
        codec = self.network.codec
        section = codec.encode_items(items)
        hb: Optional[dict[str, Any]] = None
        if self._heartbeat is not None:
            hb = self._heartbeat.piggyback()
            self.stats.piggybacked_heartbeats += 1
        batch = codec.wrap_batch(section, hb)
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

    @property
    def pending(self) -> int:
        """Payloads queued on all of this sender's channels."""
        return sum(channel.pending for channel in self._channels.values())

    def flush_all(self) -> None:
        for channel in self._channels.values():
            channel.flush()

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
    message body (``{"horizon": ..., "epoch": ...}``).
    """
    if message.kind == BATCH_KIND:
        return message.payload.get("hb")
    return None
