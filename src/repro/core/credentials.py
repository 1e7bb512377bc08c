"""Credential records (sections 4.6-4.9, fig 4.7).

A credential record is a small record in a server representing that
server's *current belief* about some fact ("Fred is logged on", "dm is in
group staff", "delegation #7 has not been revoked").  Records form a
directed acyclic graph in which a child's value is a boolean function of
its parents' values, so a single record can be consulted to confirm an
arbitrary number of facts — this is what makes validation O(1) regardless
of delegation depth, unlike capability chaining (fig 4.4 vs 4.5).

Implementation points taken from the paper:

* records live in a table; ``(table index, magic)`` forms an identifier
  unique over the life of the service, packed into a 64-bit *credential
  record reference* (CRR) that is embedded in certificates;
* children are stored as forward links; instead of back-pointers, each
  record keeps counters of how many parents are effectively true / false /
  unknown, which is all that is needed to compute its own state;
* a **Permanent** flag marks records whose state can never change again
  (e.g. after revocation); permanent records are redundant and garbage
  collected by a periodic sweep;
* operators AND, OR, NAND, NOR combine parent values; negation is a
  distinguished parent->child edge attribute;
* *external records* are local surrogates for records in another service,
  kept coherent by ``Modified(CRR, newstate)`` event notification and
  marked **Unknown** when a heartbeat from that service is missed
  (fail closed — section 4.9/4.10).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import OasisError


class RecordState(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class RecordOp(enum.Enum):
    SOURCE = "source"   # no parents; state set explicitly
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"


_MAGIC_BITS = 24
_MAGIC_MASK = (1 << _MAGIC_BITS) - 1


def pack_ref(index: int, magic: int) -> int:
    """Pack (table index, magic) into the 64-bit CRR wire form."""
    return (index << _MAGIC_BITS) | (magic & _MAGIC_MASK)


def unpack_ref(ref: int) -> tuple[int, int]:
    return ref >> _MAGIC_BITS, ref & _MAGIC_MASK


@dataclass(slots=True)
class CredentialRecord:
    """One row of the credential record table (format of fig 4.7)."""

    index: int
    magic: int
    op: RecordOp
    state: RecordState = RecordState.TRUE
    permanent: bool = False
    direct_use: bool = False         # a certificate embeds this CRR
    auto_revoke: bool = False        # revoke when a parent role is exited
    # children: (child_index, negate_edge)
    children: list[tuple[int, bool]] = field(default_factory=list)
    n_parents: int = 0
    n_true: int = 0                  # effective (after edge negation)
    n_false: int = 0
    n_unknown: int = 0
    n_perm_true: int = 0
    n_perm_false: int = 0
    # external-surrogate bookkeeping (section 4.9.1)
    external_service: Optional[str] = None
    external_ref: Optional[int] = None
    # remote services that asked to be notified of changes (Notify flag)
    subscribers: set[str] = field(default_factory=set)
    # the CRR: a row's index and magic never change, so it is packed once
    ref: int = field(init=False)

    def __post_init__(self) -> None:
        self.ref = pack_ref(self.index, self.magic)

    @property
    def is_external(self) -> bool:
        return self.external_service is not None

    @property
    def interesting(self) -> bool:
        """A record is *interesting* if a certificate embeds it, a child
        depends on it, or a remote service subscribes to it."""
        return self.direct_use or bool(self.children) or bool(self.subscribers)

    def compute_state(self) -> RecordState:
        """State implied by the parent counters and the operator."""
        if self.op is RecordOp.SOURCE:
            return self.state
        if self.op in (RecordOp.AND, RecordOp.NAND):
            if self.n_false > 0:
                base = RecordState.FALSE
            elif self.n_unknown > 0:
                base = RecordState.UNKNOWN
            else:
                base = RecordState.TRUE
            negate = self.op is RecordOp.NAND
        else:  # OR / NOR
            if self.n_true > 0:
                base = RecordState.TRUE
            elif self.n_unknown > 0:
                base = RecordState.UNKNOWN
            else:
                base = RecordState.FALSE
            negate = self.op is RecordOp.NOR
        if negate and base is not RecordState.UNKNOWN:
            base = RecordState.FALSE if base is RecordState.TRUE else RecordState.TRUE
        return base

    def compute_permanent(self) -> bool:
        """Whether the state can never change again.

        Gates are auto-permanent only in the FALSE direction: a gate whose
        computed state is TRUE can always still be *forced* false by
        explicit revocation, so marking it permanent-true would wrongly
        freeze its children against the cascade.  (FALSE is absorbing:
        ``revoke`` on a permanently-false record is a no-op.)"""
        if self.op is RecordOp.SOURCE:
            return self.permanent
        if self.compute_state() is not RecordState.FALSE:
            return False
        if self.op is RecordOp.AND:
            return self.n_perm_false > 0
        if self.op is RecordOp.NAND:
            return self.n_perm_true == self.n_parents
        if self.op is RecordOp.OR:
            return self.n_perm_false == self.n_parents
        return self.n_perm_true > 0  # NOR


ChangeCallback = Callable[[CredentialRecord, RecordState, RecordState], None]
# one settle round's net changes, as (record, old, new) in firing order
Change = tuple[CredentialRecord, RecordState, RecordState]
BatchCallback = Callable[[list[Change]], None]


@dataclass
class CascadeStats:
    """Metrics for one revocation/state-change cascade.

    One cascade is one settling of the credential-record DAG, however
    many seed records it started from (``revoke_many`` of N records is
    still a single cascade).  Callback-triggered follow-up mutations
    (e.g. the service latching a direct-use record) fold into the same
    cascade rather than starting new ones.
    """

    records_visited: int = 0      # worklist items processed
    records_changed: int = 0      # records whose state net-changed
    max_depth: int = 0            # longest seed -> descendant chain settled
    callbacks_fired: int = 0      # watch calls, plus one per watch_all batch
    permanence_unlinks: int = 0   # records newly permanent (edges now dead)

    def accumulate(self, other: "CascadeStats") -> None:
        self.records_visited += other.records_visited
        self.records_changed += other.records_changed
        self.max_depth = max(self.max_depth, other.max_depth)
        self.callbacks_fired += other.callbacks_fired
        self.permanence_unlinks += other.permanence_unlinks


class CredentialRecordTable:
    """The per-service credential record store, with change propagation.

    Propagation is an iterative, deque-based worklist ("the cascade"):
    it never grows the Python stack, so delegation chains are bounded by
    memory, not the interpreter recursion limit.  Callbacks fire only
    after a settle round, in deterministic cascade order — deeper
    (descendant) records before the records that caused them to change —
    so a service can revoke certificates and emit Modified events to
    remote subscribers knowing no state is still in flux.  A per-record
    :meth:`watch` fires once per net change of its record; a
    :meth:`watch_all` callback is called once per round with the round's
    whole ordered batch, so its cost is per round, not per record.

    Batched mutations (:meth:`set_states`, :meth:`revoke_many`,
    :meth:`mark_service_unknown`) settle all their seeds in one cascade;
    per-cascade metrics land on :attr:`last_cascade` and accumulate in
    :attr:`cascade_totals`.
    """

    def __init__(self, service_name: str = "") -> None:
        self.service_name = service_name
        self._rows: list[Optional[CredentialRecord]] = []
        self._free: list[int] = []
        self._magic: list[int] = []
        self._watches: dict[int, list[ChangeCallback]] = {}
        self._global_watch: list[BatchCallback] = []
        # external_service -> {remote CRR -> local index of its surrogate}
        self._externals_by_service: dict[str, dict[int, int]] = {}
        self.records_created = 0
        self.records_deleted = 0
        self.propagations = 0          # number of cascades run
        self.last_cascade = CascadeStats()
        self.cascade_totals = CascadeStats()
        self._cascading = False
        # seeds queued by mutations arriving from inside cascade callbacks
        self._seed_queue: deque = deque()
        self._batch_depth = 0
        # (begin, end) pairs bracketing every top-level cascade
        self._cascade_hooks: list[tuple[Callable[[], None], Callable[[], None]]] = []
        # Write-ahead hook: when set (by OasisService.attach_journal), every
        # effective mutation batch is journaled BEFORE a single record
        # changes, as ``wal(kind, data)`` with kind "state" or "revoke".
        self.wal: Optional[Callable[[str, dict], None]] = None

    # -- creation -------------------------------------------------------------

    def create_source(
        self,
        state: RecordState = RecordState.TRUE,
        permanent: bool = False,
        direct_use: bool = False,
        auto_revoke: bool = False,
    ) -> CredentialRecord:
        """Create a record representing a simple fact."""
        record = self._alloc(RecordOp.SOURCE)
        record.state = state
        record.permanent = permanent
        record.direct_use = direct_use
        record.auto_revoke = auto_revoke
        return record

    def create_gate(
        self,
        op: RecordOp,
        parents: Iterable[tuple[int, bool]],
        direct_use: bool = False,
        auto_revoke: bool = False,
    ) -> CredentialRecord:
        """Create a record computing ``op`` over ``(parent_ref, negate)`` edges.

        Missing (already-deleted) parents are treated as permanently false
        facts, which is the fail-closed reading the paper requires.
        """
        parent_list = list(parents)
        if op is RecordOp.SOURCE:
            raise OasisError("use create_source for source records")
        record = self._alloc(op)
        record.direct_use = direct_use
        record.auto_revoke = auto_revoke
        for parent_ref, negate in parent_list:
            parent = self.get(parent_ref)
            record.n_parents += 1
            if parent is None:
                effective = RecordState.FALSE
                perm = True
            else:
                parent.children.append((record.index, negate))
                effective = _effective(parent.state, negate)
                perm = parent.permanent
            _count(record, effective, +1)
            if perm:
                if effective is RecordState.TRUE:
                    record.n_perm_true += 1
                elif effective is RecordState.FALSE:
                    record.n_perm_false += 1
        record.state = record.compute_state()
        record.permanent = record.compute_permanent()
        return record

    def create_and(self, parent_refs: Iterable[int], **kwargs) -> CredentialRecord:
        """Convenience: conjunction over positive edges (fig 4.6)."""
        return self.create_gate(RecordOp.AND, [(r, False) for r in parent_refs], **kwargs)

    def create_external(self, service: str, remote_ref: int) -> CredentialRecord:
        """Create (or reuse) the local surrogate for a remote record.

        The caller is responsible for registering interest in
        ``Modified(remote_ref, *)`` with the remote service and feeding
        updates in via :meth:`update_external`.  Until that first update
        arrives the surrogate reads **Unknown** — we have no evidence
        about the remote fact yet, and sections 4.9/4.10 require failing
        closed, never open.
        """
        existing = self.external(service, remote_ref)
        if existing is not None:
            return existing
        record = self._alloc(RecordOp.SOURCE)
        record.external_service = service
        record.external_ref = remote_ref
        record.state = RecordState.UNKNOWN
        self._externals_by_service.setdefault(service, {})[remote_ref] = record.index
        return record

    def _alloc(self, op: RecordOp) -> CredentialRecord:
        self.records_created += 1
        if self._free:
            index = self._free.pop()
            self._magic[index] += 1
            record = CredentialRecord(index=index, magic=self._magic[index], op=op)
            self._rows[index] = record
        else:
            index = len(self._rows)
            self._magic.append(0)
            record = CredentialRecord(index=index, magic=0, op=op)
            self._rows.append(record)
        return record

    # -- lookup ---------------------------------------------------------------

    def get(self, ref: int) -> Optional[CredentialRecord]:
        """Resolve a CRR; stale magic (deleted/reused row) returns None."""
        index = ref >> _MAGIC_BITS
        if not 0 <= index < len(self._rows):
            return None
        row = self._rows[index]
        if row is None or row.ref != ref:
            return None
        return row

    def state_of(self, ref: int) -> RecordState:
        """State backing a certificate: a missing record reads as FALSE
        (a deleted record always represented a permanently-false fact)."""
        record = self.get(ref)
        return record.state if record is not None else RecordState.FALSE

    def external(self, service: str, remote_ref: int) -> Optional[CredentialRecord]:
        """The live local surrogate for ``remote_ref`` at ``service``, if
        any: one dictionary lookup, however many surrogates exist."""
        index = self._externals_by_service.get(service, {}).get(remote_ref)
        return None if index is None else self._rows[index]

    def live_count(self) -> int:
        return sum(1 for row in self._rows if row is not None)

    def all_records(self) -> list[CredentialRecord]:
        """Every live record, in index order (tooling/invariant checkers)."""
        return [row for row in self._rows if row is not None]

    # -- mutation ---------------------------------------------------------------

    def set_state(self, ref: int, state: RecordState, permanent: bool = False) -> None:
        """Set a source record's state (group change, external update...)."""
        self.set_states([(ref, state)], permanent=permanent)

    def set_states(
        self, updates: Iterable[tuple[int, RecordState]], permanent: bool = False
    ) -> CascadeStats:
        """Set many source records in one cascade (batched group flips,
        bulk external updates).  Permanent records are left untouched;
        returns the metrics of the single cascade that settled the batch.
        """
        planned: dict[int, tuple] = {}
        for ref, state in updates:
            record = self.get(ref)
            if record is None:
                continue
            if record.op is not RecordOp.SOURCE:
                raise OasisError("only source records may be set directly")
            if record.permanent:
                continue
            old = record.state
            if state is old and not permanent:
                # later entries for the same ref win: a no-op cancels any
                # earlier planned change
                planned.pop(ref, None)
                continue
            planned[ref] = (record, old, state)
        # WAL discipline: the effective batch is durably journaled before
        # any record mutates, so a crash mid-cascade replays to the same
        # states (planning first also keeps replay idempotent — an
        # already-applied update plans as empty and journals nothing).
        if planned and self.wal is not None:
            self.wal(
                "state",
                {
                    "updates": [[r.ref, s.value] for r, _old, s in planned.values()],
                    "permanent": permanent,
                },
            )
        seeds = []
        for record, old, state in planned.values():
            record.state = state
            record.permanent = permanent
            seeds.append((record, old, state, permanent, 0))
        return self._start_cascade(seeds)

    def revoke(self, ref: int) -> bool:
        """Force a record permanently FALSE (explicit revocation).

        Works on gates as well as sources: revoking a conjunction record
        kills every certificate that embeds it, per fig 4.5.  Returns False
        if the record no longer exists.
        """
        record = self.get(ref)
        if record is None:
            return False
        self.revoke_many([ref])
        return True

    def revoke_many(self, refs: Iterable[int]) -> int:
        """Revoke many records in one cascade (fig 4.5 at batch scale:
        a service failure or group purge kills N delegation trees with a
        single settling pass over the DAG).  Returns the number of live
        records found; already-permanent records are no-ops (FALSE is
        absorbing, and a record marked permanent can never change)."""
        planned = []
        seen: set[int] = set()
        found = 0
        for ref in refs:
            record = self.get(ref)
            if record is None:
                continue
            found += 1
            if record.permanent or record.ref in seen:
                continue
            seen.add(record.ref)
            planned.append(record)
        # journal before mutating (see set_states); an already-revoked
        # record is permanent, so replayed revocations plan as empty
        if planned and self.wal is not None:
            self.wal("revoke", {"refs": [record.ref for record in planned]})
        seeds = []
        for record in planned:
            old = record.state
            record.state = RecordState.FALSE
            record.permanent = True
            seeds.append((record, old, RecordState.FALSE, True, 0))
        self._start_cascade(seeds)
        return found

    def update_external(self, service: str, remote_ref: int, state: RecordState) -> None:
        """Apply a Modified(CRR, newstate) notification from ``service``."""
        self.update_external_many(service, [(remote_ref, state)])

    def update_external_many(
        self, service: str, updates: Iterable[tuple[int, RecordState]]
    ) -> CascadeStats:
        """Apply a batch of Modified notifications from ``service`` in one
        settling cascade.  Later entries for the same remote record win
        (the wire layer's last-state-wins coalescing, applied again here
        so a batch is atomic regardless of how it was packed).  Returns
        the metrics of the settling cascade, so callers driving a
        cross-shard settle can account convergence work per hop.

        Costs O(batch): each ref is one index lookup, and refs with no
        local surrogate are ignored.  The batch settles in ascending row
        order, so the cascade order does not depend on how it was packed.
        """
        latest: dict[int, RecordState] = {}
        for remote_ref, state in updates:
            latest[remote_ref] = state
        if not latest:
            return CascadeStats()
        surrogates = self._externals_by_service.get(service, {})
        found = sorted(
            (index, state)
            for remote_ref, state in latest.items()
            if (index := surrogates.get(remote_ref)) is not None
        )
        return self.set_states([(self._rows[index].ref, state) for index, state in found])

    def mark_service_unknown(self, service: str) -> int:
        """Heartbeat from ``service`` missed: all its surrogates -> UNKNOWN.

        One cascade regardless of how many surrogates the silent service
        backs; returns how many were marked (cascade metrics are on
        :attr:`last_cascade`)."""
        updates = [
            (row.ref, RecordState.UNKNOWN)
            for row in self.externals_of(service)
            if row.state is not RecordState.UNKNOWN and not row.permanent
        ]
        self.set_states(updates)
        return len(updates)

    def externals_of(self, service: str) -> list[CredentialRecord]:
        """Every live surrogate for ``service``, in creation order."""
        rows = self._rows
        return [rows[index] for index in self._externals_by_service.get(service, {}).values()]

    def external_services(self) -> list[str]:
        """Issuers this table holds live surrogate records for.

        The recovery machinery iterates this to re-read remote truth
        after a crash (ours or theirs); sorted for determinism.
        """
        return sorted(
            service for service, surrogates in self._externals_by_service.items()
            if surrogates
        )

    # -- watches / subscriptions -------------------------------------------------

    def watch(self, ref: int, callback: ChangeCallback) -> None:
        index, _ = unpack_ref(ref)
        self._watches.setdefault(index, []).append(callback)

    def watch_all(self, callback: BatchCallback) -> None:
        """Call ``callback(changes)`` once per settle round that changed
        anything.  ``changes`` lists the round's net-changed records as
        ``(record, old, new)``, in the order their per-record watches
        fired; it is only valid during the call.  Mutations the callback
        issues join the running cascade and settle in a later round."""
        self._global_watch.append(callback)

    def subscribe(self, ref: int, subscriber: str) -> bool:
        """A remote service asks to be notified of changes (Notify flag)."""
        record = self.get(ref)
        if record is None:
            return False
        record.subscribers.add(subscriber)
        return True

    def unsubscribe(self, ref: int, subscriber: str) -> None:
        record = self.get(ref)
        if record is not None:
            record.subscribers.discard(subscriber)

    # -- propagation ---------------------------------------------------------------
    #
    # The cascade is an explicit worklist, not recursion: a seed is a record
    # whose (state, permanent) the caller has already mutated, and each
    # worklist item carries the delta still to be pushed to that record's
    # children — (record, old_state, new_state, permanence_gained, depth).
    # Settling is breadth-first over the DAG, so stack use is O(1) at any
    # delegation depth; callbacks fire only after every record has settled.

    def begin_batch(self) -> None:
        """Open a batch window: subsequent ``set_states``/``revoke_many``
        calls enqueue their seeds instead of cascading, and everything
        settles in one cascade when the window closes.  Windows nest."""
        self._batch_depth += 1

    def end_batch(self) -> Optional[CascadeStats]:
        """Close a batch window; the outermost close runs the cascade.

        Returns the metrics of the cascade the close ran, or ``None``
        when nothing needed settling (inner window, empty queue, or a
        cascade already in progress).  The cross-shard settle protocol
        uses the return value to decide whether a hop changed anything.
        """
        if self._batch_depth > 0:
            self._batch_depth -= 1
        if self._batch_depth == 0 and self._seed_queue and not self._cascading:
            seeds = list(self._seed_queue)
            self._seed_queue.clear()
            return self._start_cascade(seeds)
        return None

    def on_cascade(
        self, begin: Callable[[], None], end: Callable[[], None]
    ) -> None:
        """Bracket every top-level cascade on this table with callbacks.

        Used to keep a *mirror* table coherent in one cascade: a bridge
        registers the mirror's ``begin_batch``/``end_batch`` here, so all
        the per-record forwarding its watches do during one cascade on
        this table settles as one cascade over there too."""
        self._cascade_hooks.append((begin, end))

    def _start_cascade(self, seeds: list) -> CascadeStats:
        """Run (or join) a cascade settling ``seeds``.

        Mutations arriving from inside a watch callback — or inside an
        open batch window — join the cascade in progress instead of
        nesting, so callback-triggered follow-ups (e.g. the service
        latching a revoked record) neither grow the stack nor count as
        extra cascades."""
        if self._cascading or self._batch_depth:
            self._seed_queue.extend(seeds)
            return self.last_cascade
        if not seeds:
            return CascadeStats()
        self._cascading = True
        stats = CascadeStats()
        self.last_cascade = stats
        self._seed_queue.extend(seeds)
        for begin, _ in self._cascade_hooks:
            begin()
        try:
            while self._seed_queue:
                work = self._seed_queue
                self._seed_queue = deque()
                settled = self._settle(work, stats)
                self._fire_settled(settled, stats)
        finally:
            self._cascading = False
            for _, end in self._cascade_hooks:
                end()
        self.propagations += 1
        self.cascade_totals.accumulate(stats)
        return stats

    def _settle(self, work: deque, stats: CascadeStats) -> dict:
        """Drain the worklist until no record's state or permanence can
        change.  Returns ``{index: [record, first_old_state, depth]}`` for
        every record touched, in settling order."""
        rows = self._rows
        TRUE, FALSE = RecordState.TRUE, RecordState.FALSE
        negated = _NEGATED
        changed: dict[int, list] = {}
        visited = unlinks = 0
        max_depth = stats.max_depth
        while work:
            record, old_state, new_state, perm_gained, depth = work.popleft()
            visited += 1
            if depth > max_depth:
                max_depth = depth
            entry = changed.get(record.index)
            if entry is None:
                changed[record.index] = [record, old_state, depth]
            elif depth > entry[2]:
                entry[2] = depth  # fire after its deepest settling
            if perm_gained:
                unlinks += 1
            state_delta = old_state is not new_state
            if not state_delta and not perm_gained:
                continue
            for child_index, negate in record.children:
                child = rows[child_index]
                if child is None:
                    continue
                # the edge's effective old and new states, pushed into the
                # child's parent counters
                if negate:
                    old_eff, new_eff = negated[old_state], negated[new_state]
                else:
                    old_eff, new_eff = old_state, new_state
                if state_delta:
                    if old_eff is TRUE:
                        child.n_true -= 1
                    elif old_eff is FALSE:
                        child.n_false -= 1
                    else:
                        child.n_unknown -= 1
                    if new_eff is TRUE:
                        child.n_true += 1
                    elif new_eff is FALSE:
                        child.n_false += 1
                    else:
                        child.n_unknown += 1
                if perm_gained:
                    if new_eff is TRUE:
                        child.n_perm_true += 1
                    elif new_eff is FALSE:
                        child.n_perm_false += 1
                if child.permanent:
                    continue
                child_new = child.compute_state()
                child_perm = child.compute_permanent()
                if child_new is not child.state or child_perm:
                    child_old = child.state
                    child.state = child_new
                    child.permanent = child_perm
                    work.append((child, child_old, child_new, child_perm, depth + 1))
        stats.records_visited += visited
        stats.max_depth = max_depth
        stats.permanence_unlinks += unlinks
        return changed

    def _fire_settled(self, settled: dict, stats: CascadeStats) -> None:
        """Fire the callbacks of one settle round for its net-changed
        records, children before the records that changed them (deepest
        settling first, then settling order) — the deterministic cascade
        order the class promises.  Per-record watches fire record by
        record; then each ``watch_all`` callback gets the whole batch."""
        if not settled:
            return
        by_depth: dict[int, list] = {}
        for entry in settled.values():
            bucket = by_depth.get(entry[2])
            if bucket is None:
                by_depth[entry[2]] = [entry]
            else:
                bucket.append(entry)
        rows = self._rows
        watches = self._watches
        changes: list[Change] = []
        fired = 0
        for depth in sorted(by_depth, reverse=True):
            for record, first_old, _depth in by_depth[depth]:
                new = record.state
                if new is first_old:
                    continue  # flip-flopped back: no net change to report
                if rows[record.index] is not record:
                    continue  # deleted by an earlier callback in this round
                changes.append((record, first_old, new))
                callbacks = watches.get(record.index)
                if callbacks:
                    for callback in callbacks:
                        fired += 1
                        callback(record, first_old, new)
        stats.records_changed += len(changes)
        if changes:
            for callback in self._global_watch:
                fired += 1
                callback(changes)
        stats.callbacks_fired += fired

    # -- garbage collection (section 4.8) -------------------------------------------

    def sweep(self) -> int:
        """Periodic sweep: unlink edges that can carry no change, then delete
        permanent or uninteresting records whose absence cannot change any
        validation outcome.  Returns the number of records deleted."""
        # 1. unlink dead parent->child edges: every edge out of a permanent
        #    parent (the child's permanence counters already account for
        #    it), and every edge into a permanent child (which ignores
        #    counter updates).  The latter must go before step 2 recycles
        #    the child's row, or a live parent's later flips would land on
        #    the row's next, unrelated occupant.
        rows = self._rows
        for row in rows:
            if row is None or not row.children:
                continue
            if row.permanent:
                row.children.clear()
            else:
                row.children = [
                    edge for edge in row.children
                    if (child := rows[edge[0]]) is not None and not child.permanent
                ]
        # 2. delete candidates.  A permanently-FALSE record may always go
        #    (a missing record reads as FALSE); a permanently-TRUE record
        #    may only go once nothing refers to it.
        deleted = 0
        for index, row in enumerate(self._rows):
            if row is None:
                continue
            if not row.permanent:
                continue
            if row.subscribers or row.children:
                continue
            if row.state is RecordState.TRUE and row.direct_use:
                continue
            self._delete(index)
            deleted += 1
        return deleted

    def _delete(self, index: int) -> None:
        row = self._rows[index]
        if row is None:
            return
        if row.external_service is not None:
            del self._externals_by_service[row.external_service][row.external_ref]
        self._rows[index] = None
        self._free.append(index)
        self._watches.pop(index, None)
        self.records_deleted += 1


_NEGATED = {
    RecordState.TRUE: RecordState.FALSE,
    RecordState.FALSE: RecordState.TRUE,
    RecordState.UNKNOWN: RecordState.UNKNOWN,
}


def _effective(state: RecordState, negate: bool) -> RecordState:
    return _NEGATED[state] if negate else state


def _count(record: CredentialRecord, state: RecordState, delta: int) -> None:
    if state is RecordState.TRUE:
        record.n_true += delta
    elif state is RecordState.FALSE:
        record.n_false += delta
    else:
        record.n_unknown += delta
