"""Outside-in per-layer trace of the request benchmark.

Nothing in the program is instrumented.  For a traced round only, the
public methods listed in :data:`LAYER_METHODS` are wrapped at class level
so every call records a span of its layer, and kernel callbacks are
split by event-name prefix through the simulator's dispatch hooks: the
tracer hook (``Simulator.set_tracer``, called as a callback starts)
opens the span and the profile hook (``Simulator.set_profile``, called
as it ends) closes it.  The wrappers are removed when the round ends.

A layer's self time is the time its spans were innermost: every
timestamp charges the time since the previous one to whichever span is
on top of the stack.  The bottom of the stack is ``bench``, the driver's
own code.  Only aggregates are kept in memory and reported at the end.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from repro.core.audit import AuditLog
from repro.core.credentials import CredentialRecordTable
from repro.core.engine import RoleEntryEngine
from repro.core.journal import JournalRelay, ServiceJournal
from repro.core.linkage import SimLinkage
from repro.core.secrets import Signer
from repro.core.service import OasisService
from repro.core.sharding import ServiceReplica, StorageReplica
from repro.mssa.acl import Acl
from repro.mssa.custode import Custode
from repro.runtime.codec import WireCodec
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Network
from repro.runtime.rpc import RpcEndpoint
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel

# layer -> the public calls timed in it.  LRUCache is not wrapped: its
# calls cost about as much as the wrapper, so wrapping would distort
# more than it measures; cache work shows in the callers' self time.
LAYER_METHODS = {
    "credentials": [(CredentialRecordTable, (
        "revoke_many", "set_states", "update_external_many",
        "mark_service_unknown", "create_gate", "create_external", "end_batch",
    ))],
    "service": [(OasisService, ("enter_role", "validate", "exit_role", "exit_roles"))],
    "audit": [(AuditLog, ("record",))],
    "caches": [
        (ServiceReplica, ("validate",)),
        (StorageReplica, ("check_access",)),
        (Custode, ("check_access",)),
    ],
    "engine": [
        (RoleEntryEngine, ("evaluate",)),
        (Signer, ("sign", "require_valid")),
        (Acl, ("evaluate",)),
    ],
    "codec": [(WireCodec, ("encode", "decode", "encode_items", "wrap_batch"))],
    "network": [(Network, ("send",))],
    "wire": [(BatchedChannel, ("send", "flush"))],
    "linkage": [(SimLinkage, ("subscribe", "publish"))],
    "kernel": [(Simulator, ("run_until", "step"))],
    "journal": [
        (ServiceJournal, ("append", "append_notify", "replay")),
        (JournalRelay, ("enqueue", "drain", "tail_sync", "recover")),
    ],
    "heartbeat": [
        (HeartbeatSender, ("piggyback",)),
        (HeartbeatMonitor, ("handle_message",)),
    ],
    "rpc": [(RpcEndpoint, ("call",))],
}
LAYERS = tuple(LAYER_METHODS)

# kernel callback name prefix -> (event bucket, layer charged with its
# self time).  Anything else is kernel work.
CALLBACKS = (
    ("deliver:", "deliver", "network"),
    ("flush:", "flush", "wire"),
    ("hb:", "hb", "heartbeat"),
    ("rpc:", "rpc", "rpc"),
    ("journal-", "journal", "journal"),
    ("subscribe-retry", "other", "linkage"),
    ("chaos-", "other", "network"),
)
EVENT_BUCKETS = ("deliver", "flush", "hb", "rpc", "journal", "other")


def _callback_of(name: str) -> tuple[str, str]:
    for prefix, bucket, layer in CALLBACKS:
        if name.startswith(prefix):
            return bucket, layer
    return "other", "kernel"


class LayerTracer:
    """Per-layer self time, call counts and kernel event counts."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.events = dict.fromkeys(EVENT_BUCKETS, 0)
        self.paused = False
        self._stack = ["bench"]
        self._mark = perf_counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(layer)

    def exit(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def pause(self) -> None:
        """Stop charging time (the driver's untimed harness work; only
        ever called from the driver, never inside a traced call)."""
        self.self_s[self._stack[-1]] += perf_counter() - self._mark
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        self._mark = perf_counter()

    # Simulator.set_tracer hook: a kernel callback starts
    def on_dispatch(self, name: str) -> None:
        if not self.paused:
            bucket, layer = _callback_of(name)
            self.events[bucket] += 1
            self.enter(layer)

    # Simulator.set_profile hook: the callback ended
    def record(self, name: str, wall_s: float) -> None:
        if not self.paused:
            self.exit()

    def total_s(self) -> float:
        return sum(self.self_s.values())


def _wrap(tracer: LayerTracer, layer: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        calls[layer] += 1
        tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


@contextmanager
def traced(world):
    """Trace ``world`` for the duration of the block."""
    tracer = LayerTracer()
    originals = []
    try:
        for layer, targets in LAYER_METHODS.items():
            for cls, names in targets:
                for name in names:
                    fn = cls.__dict__[name]
                    originals.append((cls, name, fn))
                    setattr(cls, name, _wrap(tracer, layer, fn))
        world.tracer = tracer
        world.sim.set_profile(tracer)
        tracer.resume()
        yield tracer
        tracer.pause()
    finally:
        world.sim.set_profile(None)
        world.tracer = None
        for cls, name, fn in originals:
            setattr(cls, name, fn)


# ------------------------------------------------------------ counters


def _hit_rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counters(world) -> dict[str, float]:
    """Cumulative counters read from the program's own stats objects."""
    services = world.services
    custodes = list(world.custodes.values())
    replicas = [r for shard in world.fleet.shards.values() for r in shard.replicas]
    journals = [world.linkage.durable.journal(s.name) for s in services]
    relays = [world.linkage.relay_of(s.name) for s in services]
    service_caches = [s.cache_counters() for s in services]
    stats = world.net.stats
    out = {
        "records_changed": sum(s.credentials.cascade_totals.records_changed for s in services),
        "surrogates_live": sum(
            len(c.service.credentials.externals_of("Login")) for c in custodes
        ),
        "validations": sum(s.stats.validations for s in services),
        "replica_warm_hits": sum(r.stats.warm_hits for r in replicas),
        "replica_lookups": sum(r.stats.validations for r in replicas),
        "decision_hits": sum(c.storage.decision_hits for c in custodes),
        "decision_misses": sum(c.storage.decision_misses for c in custodes),
        "evictions": sum(
            counter.evictions for cc in service_caches for counter in cc.values()
        ) + sum(c.cache_counters()["decisions"].evictions for c in custodes)
        + sum(r.cache_counters()["decisions"].evictions for r in replicas),
        "invalidations": sum(r.stats.invalidations for r in replicas)
        + sum(s.stats.validity_cache_invalidations for s in services)
        + sum(c.storage.invalidated_by_record for c in custodes),
        "acl_memo_hits": sum(acl._memo.hits for acl in world.acls.values()),
        "acl_memo_misses": sum(acl._memo.misses for acl in world.acls.values()),
        "messages": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "payloads": stats.payloads_carried,
        "intern_hits": stats.intern_hits,
        "intern_misses": stats.intern_misses,
        "coalesced": stats.coalesced,
        "unaccounted": world.net.unaccounted(),
        "journal_appends": sum(j.stats.appends for j in journals),
        "outbox_delivered": sum(j.stats.outbox_delivered for j in journals),
        "drains": sum(j.stats.drains for j in journals),
        "journal_records": sum(len(j) for j in journals),
        "records_replayed": sum(j.stats.records_replayed for j in journals),
        "rpc_retries": sum(r.rpc.stats.retries for r in relays),
        "rpc_duplicates_suppressed": sum(r.rpc.stats.duplicates_suppressed for r in relays),
    }
    for kind in ("validity", "signature"):
        out[f"{kind}_hits"] = sum(cc[kind].hits for cc in service_caches)
        out[f"{kind}_misses"] = sum(cc[kind].misses for cc in service_caches)
    plans = [v for cc in service_caches for k, v in cc.items() if k.startswith("plans:")]
    out["plan_hits"] = sum(p.hits for p in plans)
    out["plan_misses"] = sum(p.misses for p in plans)
    return out


def layer_metrics(tracer: LayerTracer, before: dict, after: dict,
                  calls: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, per client call.
    ``before``/``after`` are :func:`counters` snapshots around its timed
    phase."""
    d = {key: after[key] - before[key] for key in after}
    per_op = 1.0 / calls
    out: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_us_per_op"] = tracer.self_s[layer] * 1e6 * per_op
        if layer != "bench":
            out[f"{layer}.calls_per_op"] = tracer.calls[layer] * per_op
    for bucket in EVENT_BUCKETS:
        out[f"kernel.{bucket}_events_per_op"] = tracer.events[bucket] * per_op
    out["bench.trace_coverage"] = 1.0 - tracer.self_s["bench"] / tracer.total_s()
    out["credentials.records_changed_per_op"] = d["records_changed"] * per_op
    out["credentials.surrogates_live"] = after["surrogates_live"]
    out["service.validations_per_op"] = d["validations"] * per_op
    out["caches.replica_warm_hit_rate"] = _hit_rate(
        d["replica_warm_hits"], d["replica_lookups"] - d["replica_warm_hits"]
    )
    out["caches.decision_hit_rate"] = _hit_rate(d["decision_hits"], d["decision_misses"])
    out["caches.validity_hit_rate"] = _hit_rate(d["validity_hits"], d["validity_misses"])
    out["caches.signature_hit_rate"] = _hit_rate(d["signature_hits"], d["signature_misses"])
    out["caches.evictions_per_op"] = d["evictions"] * per_op
    out["caches.invalidations_per_op"] = d["invalidations"] * per_op
    out["engine.plan_hit_rate"] = _hit_rate(d["plan_hits"], d["plan_misses"])
    out["engine.acl_memo_hit_rate"] = _hit_rate(d["acl_memo_hits"], d["acl_memo_misses"])
    out["network.messages_per_op"] = d["messages"] * per_op
    out["network.bytes_per_op"] = d["bytes"] * per_op
    out["network.payloads_per_message"] = d["payloads"] / d["messages"] if d["messages"] else 0.0
    out["network.unaccounted"] = after["unaccounted"]
    out["codec.intern_hit_rate"] = _hit_rate(d["intern_hits"], d["intern_misses"])
    out["wire.coalesced_per_op"] = d["coalesced"] * per_op
    out["journal.records_appended_per_op"] = d["journal_appends"] * per_op
    out["journal.notifications_per_envelope"] = (
        d["outbox_delivered"] / d["drains"] if d["drains"] else 0.0
    )
    out["journal.records_total"] = after["journal_records"]
    out["journal.records_replayed"] = d["records_replayed"]
    out["rpc.retries_per_op"] = d["rpc_retries"] * per_op
    out["rpc.duplicates_suppressed"] = d["rpc_duplicates_suppressed"]
    return out
