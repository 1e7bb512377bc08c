"""Event-sourced durability: per-service write-ahead log, transactional
outbox, and dead-letter retry (the paper's ch. 4 auditing model assumes
every credential and ACL change is durably attributable).

The journal is the in-sim *durable* substrate of a service, in the same
sense the credential record table models its durable database: it
survives :meth:`OasisService.restart` across boot epochs, while wire
queues, caches and RPC state are volatile process memory that dies with
a crash.  Three mechanisms ride it:

* **write-ahead log** — every credential-record mutation, ACL change and
  role-entry/revocation event is appended *before* it is applied
  (:class:`ServiceJournal.append`, fed by the credential table's ``wal``
  hook and the custode's ACL methods), so a restart can rebuild local
  state by replay alone, with no network traffic;
* **transactional outbox** — an outbound cascade notification is
  appended in the *same* journal transaction as the state change that
  caused it (:meth:`ServiceJournal.append_notify`), then drained by a
  relay (:class:`JournalRelay`) over the request/reply
  :class:`~repro.runtime.rpc.RpcEndpoint` layer.  A crash between
  "apply" and "notify" can no longer lose a revocation: the undrained
  entry is still in the durable outbox and is delivered after replay;
* **dead-letter queue** — the one retry.  The relay sends each delivery
  once; an entry whose delivery call fails (timeout, link down) or that
  its receiver refuses is *parked*, never dropped, and redelivered on a
  seeded exponential backoff, one batched call per destination.  The
  conservation invariant — every outbox entry is applied exactly once at
  its destination or parked in the DLQ — is checkable at any instant via
  :meth:`DurableStore.conservation_breaches` (swept by
  :class:`~repro.runtime.faults.InvariantChecker`).

The outbox is also the service's one queue bound: its undelivered depth
per destination (:attr:`ServiceJournal.depth`) is what admission sheds
on (:meth:`~repro.core.linkage.SimLinkage.backpressured_of`).

Receivers dedup inbound deliveries by ``(issuer, outbox seq)`` in their
*own* journal ("applied" records), so redelivery after a crash on either
side, or a network duplicate of a delivery call, is idempotent, and they
keep the newest applied ``(epoch, seq)`` stamp per ``(issuer, ref)`` so a
delayed older state can never re-open a surrogate a newer notification
or snapshot already closed.  The issuer of a delivery is the calling
node's service, never a name in the request (section 2.8: identity comes
from the channel); a call from a node with no attached service is
refused.  A receiver acks nothing from an issuer it suspects (section
4.10: records fed by a suspect sender are Unknown) or whose tail-sync
snapshot it still awaits; those deliveries park at the issuer and come
back after the snapshot, which the stamps order them against.

Recovery protocol (driven by :meth:`JournalRelay.recover`): replay the
local journal (fast, idempotent, zero messages), mask every surrogate
Unknown (fail closed — the crash window is of unverifiable currency),
then **tail-sync** from each issuer: one RPC pulls a stamped snapshot of
every record the caller subscribes to, resolving all surrogates in a
single cascade.  Pending outbox entries and due dead letters then drain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.credentials import RecordState
from repro.errors import OasisError
from repro.runtime.rpc import RpcEndpoint
from repro.runtime.simulator import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.linkage import SimLinkage
    from repro.core.service import OasisService

# One outbound notification: (ref, state, destination service names).
Notice = tuple[int, RecordState, list[str]]

# The relay sends each delivery once; a failed call parks its entries and
# the DLQ's seeded exponential backoff is the only retry.
RELAY_RPC_TIMEOUT = 2.0
DLQ_BASE_DELAY = 0.25
DLQ_MULTIPLIER = 2.0
DLQ_MAX_DELAY = 30.0

# Outbox entry lifecycle.  DELIVERED is terminal; DEAD entries are
# *parked* (the dead-letter queue), not forgotten — redelivery moves
# them back through INFLIGHT until they land.
PENDING = "pending"
INFLIGHT = "inflight"
DELIVERED = "delivered"
DEAD = "dead"


@dataclass(frozen=True)
class JournalRecord:
    """One appended event: ``seq`` is the journal position (the WAL
    head), ``epoch`` the boot epoch that wrote it."""

    seq: int
    epoch: int
    time: float
    kind: str
    data: dict


@dataclass
class OutboxEntry:
    """One outbound notification awaiting exactly-once delivery.

    ``stamp`` is ``(epoch, seq)`` in the issuer's journal stamp space;
    receivers drop anything not newer than the last stamp applied for
    the same ``(issuer, ref)``."""

    seq: int
    record_seq: int            # the journal record of the same transaction
    dest: str
    ref: int
    state: str
    stamp: tuple
    status: str = PENDING
    attempts: int = 0          # delivery RPCs that carried this entry
    redeliveries: int = 0      # times parked in the DLQ
    next_attempt_at: float = 0.0


@dataclass
class JournalStats:
    appends: int = 0
    replays: int = 0
    records_replayed: int = 0
    outbox_appended: int = 0
    outbox_delivered: int = 0
    outbox_redelivered: int = 0   # delivered on a DLQ redelivery pass
    parked: int = 0               # entries that entered the DLQ (cumulative)
    applied: int = 0              # inbound entries applied to the table
    refused: int = 0              # inbound entries not acked: issuer suspect
                                  # or its snapshot awaited (redelivered later)
    duplicates_dropped: int = 0   # inbound entries deduped by (issuer, seq)
    superseded: int = 0           # inbound entries or tail items stale under the stamp
    tail_syncs_served: int = 0
    tail_syncs_pulled: int = 0
    drains: int = 0


class ServiceJournal:
    """The append-only durable log of one service.

    Holds the records, the outbox, and the receiver-side ledgers that
    replay rebuilds: ``applied_counts`` (exactly-once dedup per
    ``(issuer, outbox seq)``), ``applied_stamps`` (newest stamp applied
    per ``(issuer, ref)``) and ``last_stamp`` (issuer-side newest stamp
    per local ref, served to tail-sync pulls).
    """

    def __init__(self, service_id: str):
        self.service_id = service_id
        self.records: list[JournalRecord] = []
        # the full durable outbox, never pruned (replay and the
        # conservation sweep read it) ...
        self.outbox: dict[int, OutboxEntry] = {}
        # ... and the seq-ordered view of its entries not yet DELIVERED,
        # so draining and DLQ work cost O(undelivered), not O(history);
        # an entry leaves it only through mark_delivered()
        self.undelivered: dict[int, OutboxEntry] = {}
        # destination -> its entries in ``undelivered`` (the overload
        # signal: admission sheds while one reaches the queue bound) ...
        self.depth: dict[str, int] = {}
        # ... and how many of those are parked DEAD, so redelivery walks
        # the undelivered view only when something is parked
        self.parked: dict[str, int] = {}
        self.stats = JournalStats()
        # While replaying, mutations re-driven through the table must not
        # journal themselves again: append() is a no-op under this flag.
        self.replaying = False
        self._seq = 0
        self._outbox_seq = 0
        # bound at attach time to the owning service's clock and epoch
        self.now: Callable[[], float] = lambda: 0.0
        self.epoch: Callable[[], int] = lambda: 1
        self.applied_counts: dict[tuple[str, int], int] = {}
        self.applied_stamps: dict[tuple[str, int], tuple] = {}
        self.last_stamp: dict[int, tuple] = {}
        # fires after a transaction is durably appended (fault point)
        self.on_append: Optional[Callable[[JournalRecord], None]] = None

    def head(self) -> int:
        """The journal position: seq of the newest record."""
        return self._seq

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------- appending

    def append(self, kind: str, data: dict) -> Optional[JournalRecord]:
        """Append one event; returns the record, or None during replay
        (replayed mutations are already in the log)."""
        if self.replaying:
            return None
        record = self._append(kind, data)
        self._fire_append(record)
        return record

    def append_notify(self, notices: list[Notice]) -> list[OutboxEntry]:
        """Transactional outbox: append one settle round's notifications
        — one ``notify`` record, and one outbox entry per notice and
        destination, in the order given — as ONE transaction.  A crash
        sees either none of it or all of it, so an applied state change
        can never exist without its undelivered notifications on record."""
        if self.replaying:
            return []
        epoch = self.epoch()
        record_seq = self._seq + 1
        outbox = self.outbox
        undelivered = self.undelivered
        depth = self.depth
        last_stamp = self.last_stamp
        seq = self._outbox_seq
        entries = []
        for ref, state, dests in notices:
            state_value = state.value
            for dest in dests:
                seq += 1
                stamp = (epoch, seq)
                entry = OutboxEntry(seq, record_seq, dest, ref, state_value, stamp)
                entries.append(entry)
                outbox[seq] = entry
                undelivered[seq] = entry
                depth[dest] = depth.get(dest, 0) + 1
                if stamp > last_stamp.get(ref, (0, 0)):
                    last_stamp[ref] = stamp
        self._outbox_seq = seq
        record = self._append(
            "notify",
            {"outbox": [[e.seq, e.dest, e.ref, e.state] for e in entries]},
        )
        self.stats.outbox_appended += len(entries)
        # the fault point fires only once the whole transaction is durable
        self._fire_append(record)
        return entries

    def _append(self, kind: str, data: dict) -> JournalRecord:
        self._seq += 1
        record = JournalRecord(self._seq, self.epoch(), self.now(), kind, dict(data))
        self.records.append(record)
        self.stats.appends += 1
        return record

    def _fire_append(self, record: JournalRecord) -> None:
        hook = self.on_append
        if hook is not None:
            hook(record)

    # --------------------------------------------------------------- replay

    def replay(self, apply: Callable[[JournalRecord], None]) -> int:
        """Re-drive every record through ``apply`` and rebuild the
        derived ledgers.  Idempotent by construction: state records
        re-apply as no-ops where state already matches, revocations are
        absorbing, and ``replaying`` suppresses re-journaling — so
        replaying twice equals replaying once."""
        self.stats.replays += 1
        self.replaying = True
        try:
            self.applied_counts = {}
            self.applied_stamps = {}
            self.last_stamp = {}
            for entry in self.outbox.values():
                if entry.stamp > self.last_stamp.get(entry.ref, (0, 0)):
                    self.last_stamp[entry.ref] = entry.stamp
            count = 0
            for record in self.records:
                self._absorb(record)
                apply(record)
                count += 1
            self.stats.records_replayed += count
            return count
        finally:
            self.replaying = False

    def _absorb(self, record: JournalRecord) -> None:
        """Rebuild the receiver-side ledgers from one record."""
        if record.kind == "applied":
            issuer = record.data["issuer"]
            for seq, ref, _state, stamp in record.data["entries"]:
                key = (issuer, int(seq))
                self.applied_counts[key] = self.applied_counts.get(key, 0) + 1
                if stamp is not None:
                    stamp = tuple(stamp)
                    skey = (issuer, int(ref))
                    if stamp > self.applied_stamps.get(skey, (0, 0)):
                        self.applied_stamps[skey] = stamp
        elif record.kind == "tail":
            issuer = record.data["issuer"]
            for ref, _state, stamp in record.data["items"]:
                if stamp is not None:
                    stamp = tuple(stamp)
                    skey = (issuer, int(ref))
                    if stamp > self.applied_stamps.get(skey, (0, 0)):
                        self.applied_stamps[skey] = stamp

    # ------------------------------------------------------------- the DLQ

    def mark_delivered(self, entry: OutboxEntry) -> None:
        """The one transition to the terminal DELIVERED status."""
        entry.status = DELIVERED
        del self.undelivered[entry.seq]
        self.depth[entry.dest] -= 1
        self.stats.outbox_delivered += 1

    def dead_letters(self) -> list[OutboxEntry]:
        """The dead-letter queue: parked entries awaiting redelivery."""
        return [e for e in self.undelivered.values() if e.status == DEAD]

    def unsettled(self) -> list[OutboxEntry]:
        """Entries not yet delivered (pending, in flight, or parked), in
        seq order."""
        return list(self.undelivered.values())


class DurableStore:
    """The in-sim durable medium: service id -> :class:`ServiceJournal`.

    One store per world; journals are created on first use and — being
    "disk" — survive any number of crash/restart cycles of the services
    that own them.
    """

    def __init__(self) -> None:
        self._journals: dict[str, ServiceJournal] = {}

    def journal(self, service_id: str) -> ServiceJournal:
        journal = self._journals.get(service_id)
        if journal is None:
            journal = self._journals[service_id] = ServiceJournal(service_id)
        return journal

    def get(self, service_id: str) -> Optional[ServiceJournal]:
        return self._journals.get(service_id)

    def journals(self) -> dict[str, ServiceJournal]:
        return dict(self._journals)

    def conservation_breaches(self) -> list[str]:
        """The exactly-once-or-parked sweep: every outbox entry must be
        DELIVERED (and applied exactly once at its destination), or
        still PENDING/INFLIGHT, or parked DEAD — never vanished, never
        double-applied.  Returns human-readable breaches (empty = clean).
        """
        breaches: list[str] = []
        for name, journal in sorted(self._journals.items()):
            for entry in journal.outbox.values():
                label = f"{name}#outbox{entry.seq} -> {entry.dest}"
                if entry.status == DELIVERED:
                    dest = self._journals.get(entry.dest)
                    if dest is None:
                        breaches.append(f"{label}: delivered to unjournaled dest")
                        continue
                    count = dest.applied_counts.get((name, entry.seq), 0)
                    if count != 1:
                        breaches.append(
                            f"{label}: delivered but applied {count} times"
                        )
                elif entry.status not in (PENDING, INFLIGHT, DEAD):
                    breaches.append(f"{label}: unknown status {entry.status!r}")
            for (issuer, seq), count in journal.applied_counts.items():
                if count > 1:
                    breaches.append(
                        f"{name} applied {issuer}#outbox{seq} {count} times"
                    )
        return breaches


class JournalRelay:
    """The drain of one service's transactional outbox, plus the
    inbound delivery / tail-sync endpoint peers talk to.

    Owns the RPC endpoint at the service's address, ``oasis:<name>``,
    which the service's subscribe requests and heartbeats share: a cut or
    a crash takes the whole event stream with it.  Outbound entries
    batch per destination into a single ``outbox-deliver`` call per
    drain pass, sent once; the receiver acks every seq it has durably
    recorded, the sender marks those DELIVERED, and anything the call
    does not land, or the receiver refuses, is parked in the DLQ with
    seeded exponential backoff.
    """

    def __init__(
        self,
        linkage: "SimLinkage",
        service: "OasisService",
        journal: ServiceJournal,
        seed: int = 0,
    ):
        self.linkage = linkage
        self.service = service
        self.journal = journal
        self.network = linkage.network
        self.sim = self.network.simulator
        self.address = linkage.address_of(service.name)
        self._rng = random.Random(f"dlq:{service.name}:{seed}")
        self.rpc = RpcEndpoint(
            self.network, self.address, default_timeout=RELAY_RPC_TIMEOUT
        )
        self.rpc.register("outbox-deliver", self._on_deliver)
        self.rpc.register("tail-sync", self._on_tail_sync)
        self._drain_timer = Timer(
            self.sim, self._drain, name=f"journal-drain:{service.name}"
        )
        self._redeliver_timer = Timer(
            self.sim, self._redeliver_due, name=f"journal-dlq:{service.name}"
        )
        # issuers whose tail-sync snapshot this service awaits: their
        # deliveries are refused until it lands
        self._awaiting: set[str] = set()
        # one-shot crash triggers per fault point ("mid-append",
        # "mid-drain"); a trigger must schedule its crash as a zero-delay
        # event so the current append/drain step completes atomically —
        # the sim cannot abort a Python call mid-function, and the
        # journal transaction is durable the instant _append returns.
        self._crash_points: dict[str, Callable[[], None]] = {}
        journal.on_append = self._on_journal_append

    # ------------------------------------------------------------ fault points

    def arm_crash(self, point: str, trigger: Callable[[], None]) -> None:
        """Arm a one-shot crash at a journal fault point.

        ``"mid-append"`` fires right after the next journal transaction
        lands (state + outbox durable, drain not yet run); ``"mid-drain"``
        fires after the next drain marks a batch in flight, before its
        delivery resolves."""
        if point not in ("mid-append", "mid-drain"):
            raise OasisError(f"unknown journal fault point {point!r}")
        self._crash_points[point] = trigger

    def _fire_crash(self, point: str) -> None:
        trigger = self._crash_points.pop(point, None)
        if trigger is not None:
            trigger()

    def _on_journal_append(self, record: JournalRecord) -> None:
        self._fire_crash("mid-append")

    def _up(self) -> bool:
        return self.network.node(self.address).up

    # ----------------------------------------------------------------- outbox

    def enqueue(self, notices: list[Notice]) -> None:
        """Journal one settle round's notifications as one transaction and
        schedule their drain.

        The drain runs as a zero-delay event, so a whole cascade's
        rounds coalesce into one delivery RPC per destination."""
        entries = self.journal.append_notify(notices)
        if entries and self._up() and not self._drain_timer.armed:
            self._drain_timer.arm(0.0)

    def drain(self) -> None:
        """Drain pending outbox entries now (settle commits call this)."""
        self._drain_timer.disarm()
        self._drain()

    def _drain(self) -> None:
        if not self._up():
            return
        batches: dict[str, list[OutboxEntry]] = {}
        for entry in self.journal.undelivered.values():
            if entry.status == PENDING:
                batches.setdefault(entry.dest, []).append(entry)
        if not batches:
            return
        self.journal.stats.drains += 1
        for dest, entries in sorted(batches.items()):
            for entry in entries:
                entry.status = INFLIGHT
                entry.attempts += 1
            self._fire_crash("mid-drain")
            if not self._up():
                # the armed crash took us down between marking the batch
                # in flight and the send; crash() re-marks it pending
                return
            self._send(dest, entries, from_dlq=False)

    def _send(self, dest: str, entries: list[OutboxEntry], from_dlq: bool) -> None:
        payload = [[e.seq, e.ref, e.state, list(e.stamp)] for e in entries]
        future = self.rpc.call(self.linkage.address_of(dest), "outbox-deliver", payload)
        future.on_done(
            lambda f, d=dest, es=entries, q=from_dlq: self._on_drain_done(d, es, f, q)
        )

    def _on_drain_done(self, dest, entries, future, from_dlq: bool) -> None:
        if not self._up():
            # resolved after a crash: recovery re-marks and redrains
            return
        acked = set()
        if not future.failed:
            acked = set(future.result().get("acked", ()))
        missed = []
        for entry in entries:
            if entry.status != INFLIGHT:
                continue
            if entry.seq in acked:
                self.journal.mark_delivered(entry)
                if from_dlq:
                    self.journal.stats.outbox_redelivered += 1
            else:
                missed.append(entry)
        if missed:
            self._park(missed)
        elif acked:
            # the destination takes deliveries again: its parked backlog
            # need not wait out the backoff
            self.redeliver_to(dest)

    def _park(self, entries: list[OutboxEntry]) -> None:
        """Move undeliverable entries to the dead-letter queue with a
        seeded exponential-backoff redelivery time.  Parked, never
        dropped: the conservation sweep counts on it."""
        now = self.sim.now
        parked = self.journal.parked
        for entry in entries:
            entry.status = DEAD
            parked[entry.dest] = parked.get(entry.dest, 0) + 1
            delay = min(DLQ_BASE_DELAY * DLQ_MULTIPLIER ** entry.redeliveries, DLQ_MAX_DELAY)
            delay += self._rng.uniform(0.0, 0.5 * delay)
            entry.redeliveries += 1
            entry.next_attempt_at = now + delay
            self.journal.stats.parked += 1
        self._schedule_redelivery()

    def _schedule_redelivery(self) -> None:
        if not any(self.journal.parked.values()) or not self._up():
            return
        dead = self.journal.dead_letters()
        due_at = min(entry.next_attempt_at for entry in dead)
        self._redeliver_timer.disarm()
        self._redeliver_timer.arm(max(0.0, due_at - self.sim.now))

    def redeliver_to(self, dest: str) -> None:
        """Make ``dest``'s parked entries due now.  ``dest`` has shown it
        is reachable (an ack, or its monitor's restore), and until its
        backlog drains the outbox depth keeps this service's admissions
        shed."""
        if not self.journal.parked.get(dest):
            return
        now = self.sim.now
        for entry in self.journal.undelivered.values():
            if entry.status == DEAD and entry.dest == dest:
                entry.next_attempt_at = now
        self._redeliver_due()

    def _redeliver_due(self) -> None:
        if not self._up():
            return
        now = self.sim.now
        batches: dict[str, list[OutboxEntry]] = {}
        for entry in self.journal.undelivered.values():
            if entry.status == DEAD and entry.next_attempt_at <= now + 1e-9:
                batches.setdefault(entry.dest, []).append(entry)
        parked = self.journal.parked
        for dest, entries in sorted(batches.items()):
            for entry in entries:
                entry.status = INFLIGHT
                entry.attempts += 1
            parked[dest] -= len(entries)
            self._send(dest, entries, from_dlq=True)
        self._schedule_redelivery()

    def quiescent(self) -> bool:
        """No entry pending or in flight (parked dead letters do not
        block a settle: they are accounted work awaiting backoff)."""
        return not any(
            entry.status in (PENDING, INFLIGHT)
            for entry in self.journal.undelivered.values()
        )

    # -------------------------------------------------------------- receiving

    def _caller(self, address: str) -> str:
        """The attached service at ``address``: the channel names the
        peer.  A node with no attached service is refused."""
        name = self.linkage.name_at.get(address)
        if name is None:
            raise OasisError(f"no attached service at {address!r}")
        return name

    def _on_deliver(self, caller: str, items) -> dict:
        """Apply a delivery batch from the service at ``caller`` exactly
        once.

        Every seq is acked — including duplicates and stamp-stale
        entries, which are *settled* (recorded as applied, dropped from
        the table update) rather than lost — unless the batch is refused
        whole: while this service suspects the issuer, or awaits its
        tail-sync snapshot, nothing is acked and the issuer parks the
        entries for redelivery.  The "applied" record is journaled
        BEFORE the table mutation: WAL discipline, and the dedup ledger
        survives a crash landing between the two."""
        issuer = self._caller(caller)
        journal = self.journal
        # any delivery for a ref proves the issuer has the subscription:
        # the subscribe retry can stand down
        note_subscribed = self.linkage.note_subscribed
        name = self.service.name
        if issuer in self._awaiting or self.linkage.suspects(name, issuer):
            for item in items:
                note_subscribed(name, issuer, int(item[1]))
            journal.stats.refused += len(items)
            return {"acked": []}
        acked: list[int] = []
        applied_log: list[list] = []
        updates: list[tuple[int, RecordState]] = []
        for seq, ref, state, stamp in items:
            seq, ref = int(seq), int(ref)
            stamp = tuple(stamp) if stamp is not None else None
            acked.append(seq)
            note_subscribed(name, issuer, ref)
            key = (issuer, seq)
            if journal.applied_counts.get(key):
                journal.stats.duplicates_dropped += 1
                continue
            journal.applied_counts[key] = 1
            applied_log.append([seq, ref, state, list(stamp) if stamp else None])
            if stamp is not None:
                skey = (issuer, ref)
                if stamp <= journal.applied_stamps.get(skey, (0, 0)):
                    journal.stats.superseded += 1
                    continue
                journal.applied_stamps[skey] = stamp
            updates.append((ref, RecordState(state)))
            journal.stats.applied += 1
        if applied_log:
            journal.append("applied", {"issuer": issuer, "entries": applied_log})
        if updates:
            self.service.credentials.update_external_many(issuer, updates)
        return {"acked": acked}

    def snapshot_for(self, subscriber: str) -> list[list]:
        """The authoritative state of every record ``subscriber``
        subscribes to, as ``[ref, state, stamp]`` rows: the current state
        and the newest outbox stamp issued for the ref (None if none)."""
        last_stamp = self.journal.last_stamp
        items = []
        for record in self.service.credentials.all_records():
            if subscriber in record.subscribers:
                stamp = last_stamp.get(record.ref)
                items.append(
                    [record.ref, record.state.value, list(stamp) if stamp else None]
                )
        return items

    def _on_tail_sync(self, caller: str) -> dict:
        """Serve the restarted subscriber at ``caller`` its snapshot in
        one reply instead of one message per ref."""
        subscriber = self._caller(caller)
        self.journal.stats.tail_syncs_served += 1
        return {"epoch": self.service.boot_epoch, "items": self.snapshot_for(subscriber)}

    def awaiting(self, issuer: str) -> bool:
        """Whether a tail-sync snapshot from ``issuer`` is outstanding."""
        return issuer in self._awaiting

    def tail_sync(self, issuer_name: str) -> None:
        """Pull the post-crash truth from an issuer.

        Until the snapshot lands, deliveries from the issuer are refused
        (they park and come back); the snapshot then applies through
        :meth:`apply_snapshot`, whose stamps order it against them."""
        if not self._up():
            return  # crashed again; the next recover() re-pulls
        self._awaiting.add(issuer_name)
        future = self.rpc.call(self.linkage.address_of(issuer_name), "tail-sync")
        future.on_done(lambda f, i=issuer_name: self._on_tail_reply(i, f))

    def _on_tail_reply(self, issuer: str, future) -> None:
        if not self._up():
            return
        if future.failed:
            # the issuer is unreachable; surrogates stay Unknown (fail
            # closed) and we pull again after a beat
            self.sim.schedule(
                self.linkage.subscribe_retry_period,
                self.tail_sync,
                issuer,
                name=f"journal-tailsync:{self.service.name}",
            )
            return
        self.journal.stats.tail_syncs_pulled += 1
        self._awaiting.discard(issuer)
        if self.linkage.suspects(self.service.name, issuer):
            # a snapshot read from a suspect issuer is as unverifiable as
            # its deliveries: the surrogates stay Unknown, and the
            # restore's stamped re-read resolves them
            return
        self.apply_snapshot(issuer, future.result().get("items", ()))

    def apply_snapshot(self, issuer: str, items) -> None:
        """Apply an issuer's stamped snapshot (:meth:`snapshot_for`).

        The snapshot is authoritative, a live read: each row applies and
        raises the ``(issuer, ref)`` stamp, so an older delivery still
        parked or in flight is dropped as stale while a newer one still
        applies.  A row older than a delivery that already landed is
        skipped.  Only the raised stamps are journaled: replay rebuilds
        the stamp ledger from them, the states are in "state" records."""
        journal = self.journal
        applied_stamps = journal.applied_stamps
        note_subscribed = self.linkage.note_subscribed
        name = self.service.name
        raised = []
        updates = []
        for ref, state, stamp in items:
            ref = int(ref)
            stamp = tuple(stamp) if stamp is not None else None
            note_subscribed(name, issuer, ref)
            skey = (issuer, ref)
            applied = applied_stamps.get(skey)
            if applied is not None and (stamp is None or stamp < applied):
                # a delivery sent after this snapshot was read has
                # already landed: the snapshot's state is the older one
                journal.stats.superseded += 1
                continue
            if stamp is not None and stamp != applied:
                applied_stamps[skey] = stamp
                raised.append([ref, state, list(stamp)])
            updates.append((ref, RecordState(state)))
        if raised:
            journal.append("tail", {"issuer": issuer, "items": raised})
        if updates:
            self.service.credentials.update_external_many(issuer, updates)

    # ------------------------------------------------------- crash / recovery

    def crash(self) -> None:
        """Volatile relay state dies: timers, armed fault points, awaited
        snapshots, and the in-flight marks (the durable truth is that an
        unacked entry was never delivered — it reverts to pending for
        the redrain)."""
        self._drain_timer.disarm()
        self._redeliver_timer.disarm()
        self._crash_points.clear()
        self._awaiting.clear()
        for entry in self.journal.undelivered.values():
            if entry.status == INFLIGHT:
                entry.status = PENDING

    def recover(self) -> int:
        """The restart: replay, mask, tail-sync, redrain.

        1. replay the local journal — rebuilds table state and the dedup
           ledgers with zero network traffic;
        2. mask every surrogate Unknown — the crash window is of
           unverifiable currency (fail closed);
        3. tail-sync each issuer on this linkage (one RPC each);
        4. redrain pending outbox entries and re-schedule dead letters.

        Returns the number of journal records replayed."""
        table = self.service.credentials

        def apply(record: JournalRecord) -> None:
            if record.kind == "state":
                table.set_states(
                    [(int(ref), RecordState(s)) for ref, s in record.data["updates"]],
                    permanent=record.data.get("permanent", False),
                )
            elif record.kind == "revoke":
                table.revoke_many(int(ref) for ref in record.data["refs"])

        replayed = self.journal.replay(apply)
        for issuer_name in table.external_services():
            table.mark_service_unknown(issuer_name)
            if self.linkage.relay_of(issuer_name) is not None:
                self.tail_sync(issuer_name)
        if not self._drain_timer.armed:
            self._drain_timer.arm(0.0)
        self._schedule_redelivery()
        return replayed
