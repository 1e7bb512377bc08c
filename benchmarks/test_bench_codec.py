"""Wire-codec benchmarks: bytes on the wire and marshalling throughput.

The acceptance gates for the compact binary codec:

* a CASCADE-record revocation cascade across a SimLinkage link puts
  >= 5x fewer *bytes* on the wire than the repr-of-payload baseline the
  accounting used before (encoded / :class:`ReprStrawman` bytes <= 0.2);
* a STREAM-sighting badge stream (generic events through the extension
  path) still compresses well once the per-link symbol tables warm up;
* encode/decode stay cheap enough that marshalling never becomes the
  cascade bottleneck (throughput recorded, not gated).

Counter assertions are exact; measured series go to BENCH_codec.json
(``BENCH_CODEC_OUT``) for the CI artifact.
"""

import time
from contextlib import contextmanager

from benchmarks.conftest import bench_quick, record_codec
from benchmarks.test_bench_wire import BATCHED, build_linked_world
from repro.events.model import Event
from repro.runtime.codec import WireCodec, coalesce_encoded
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel, heartbeat_of, unpack

CASCADE = 2_000
STREAM = 2_000 if bench_quick() else 10_000


class ReprStrawman:
    """The pre-codec byte accounting, recomputed beside the real one.

    Before the codec, every send was charged ``len(repr(payload))``; a
    wire batch was charged the repr of its ``{"items", "hb"}`` body.
    :meth:`installed` wraps :class:`WireCodec`'s encoders for the
    duration of a test so each frame they build adds that charge to
    :attr:`bytes`.  (Retransmissions of an already-encoded frame are not
    charged again; these benchmarks run without loss.)
    """

    def __init__(self) -> None:
        self.bytes = 0
        self._items: list = []

    @contextmanager
    def installed(self):
        encode, encode_items, wrap_batch = (
            WireCodec.encode, WireCodec.encode_items, WireCodec.wrap_batch
        )

        def counted_encode(codec, source, dest, kind, payload):
            self.bytes += len(repr(payload))
            return encode(codec, source, dest, kind, payload)

        def counted_encode_items(codec, source, dest, items, coalesce=True):
            self._items = items
            return encode_items(codec, source, dest, items, coalesce)

        def counted_wrap_batch(codec, source, dest, section, hb):
            body = {"items": self._items}
            if hb is not None:
                body["hb"] = hb
            self.bytes += len(repr(body))
            return wrap_batch(codec, source, dest, section, hb)

        WireCodec.encode = counted_encode
        WireCodec.encode_items = counted_encode_items
        WireCodec.wrap_batch = counted_wrap_batch
        try:
            yield self
        finally:
            WireCodec.encode = encode
            WireCodec.encode_items = encode_items
            WireCodec.wrap_batch = wrap_batch


def _hit_rates(counters):
    """Flatten ``cache_counters()`` into name -> hit-rate/lookups pairs."""
    out = {}
    for name, snapshot in counters.items():
        out[f"{name}_hit_rate"] = round(snapshot.hit_rate, 4)
        out[f"{name}_lookups"] = snapshot.lookups
    return out


def test_cascade_bytes_on_wire_reduced_5x():
    """The tentpole gate: the 2k-record revocation cascade's encoded
    frames are >= 5x smaller than the repr baseline they replaced."""
    strawman = ReprStrawman()
    with strawman.installed():
        _cascade_bytes(strawman)


def _cascade_bytes(strawman):
    sim, net, linkage, login, files, certs, readers = build_linked_world(
        BATCHED, CASCADE
    )
    # a production deployment monitors the link, which marks it reliable
    # and lets symbols graduate to cross-frame references
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(sim.now + 3.0)
    # warm the validation caches so their hit ratios mean something
    for reader in readers[:200]:
        files.validate(reader)
        files.validate(reader)
    mark_encoded = net.stats.encoded_bytes
    mark_repr = strawman.bytes
    mark_hits = net.stats.intern_hits
    mark_misses = net.stats.intern_misses
    start = time.perf_counter()
    login.credentials.revoke_many([cert.crr for cert in certs])
    sim.run_until(sim.now + 10.0)  # heartbeats run forever; bounded drain
    elapsed = time.perf_counter() - start
    encoded = net.stats.encoded_bytes - mark_encoded
    baseline = strawman.bytes - mark_repr
    assert encoded > 0 and baseline > 0
    ratio = encoded / baseline
    assert ratio <= 0.2, (
        f"only {baseline / encoded:.1f}x: {baseline} repr bytes -> {encoded} encoded"
    )
    # the whole-run ratio (subscription setup included, which is all
    # small RPCs) won't hit 5x, but encoded must never be *worse* than
    # repr — and every frame must have decoded: no fail-open, no loss
    run_ratio = net.stats.encoded_bytes / strawman.bytes
    assert run_ratio < 1.0
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0
    # within the cascade window the issuer symbol rides as a bare
    # reference on the warm reliable link: more hits than (re)definitions
    hits = net.stats.intern_hits - mark_hits
    misses = net.stats.intern_misses - mark_misses
    assert hits > misses
    record_codec(
        "codec_cascade",
        cascade_records=CASCADE,
        encoded_bytes=encoded,
        repr_bytes=baseline,
        reduction_ratio=round(baseline / encoded, 2),
        cascade_bytes_ratio=round(ratio, 4),
        run_bytes_ratio=round(run_ratio, 4),
        intern_hits=hits,
        intern_misses=misses,
        seconds=elapsed,
        **_hit_rates(files.cache_counters()),
    )


def test_badge_stream_bytes_reduced():
    """STREAM badge sightings (generic events, the extension path) over
    a heartbeat-attached link: once the names and rooms are interned the
    stream compresses well below the repr baseline."""
    sim = Simulator()
    net = Network(sim, seed=23, default_delay=0.001)
    sender = HeartbeatSender(net, "sensornet", "sink", period=1.0)
    monitor = HeartbeatMonitor(net, "sink", "sensornet", period=1.0, grace=2.0)

    def svc_node(message):
        if message.kind == "heartbeat-ack":
            sender.handle_ack(message.payload["ack"])
        elif message.kind == "heartbeat-nack":
            sender.handle_nack(message.payload["missing"])

    delivered = []

    def sink_node(message):
        hb = heartbeat_of(message)
        if hb is not None:
            monitor.handle_message("heartbeat", hb)
        for msg in unpack(message):
            if msg.kind == "sighting":
                delivered.append(msg.payload)

    net.add_node("sensornet", svc_node)
    net.add_node("sink", sink_node)
    channel = BatchedChannel(net, "sensornet", "sink", heartbeat=sender)
    strawman = ReprStrawman()
    with strawman.installed():
        sender.start()

        start = time.perf_counter()
        for i in range(STREAM):
            event = Event(
                "BadgeSeen",
                (f"badge-{i % 200}", f"room-{i % 20}"),
                timestamp=sim.now,
                source="sensornet",
            )
            channel.send("sighting", event)
            if i % 50 == 49:
                # drain in bursts so batches actually form (run_until, not
                # run(): the heartbeat sender keeps the queue non-empty)
                sim.run_until(sim.now + 0.01)
        channel.flush()
        sim.run_until(sim.now + 1.0)
        elapsed = time.perf_counter() - start

    assert len(delivered) == STREAM
    assert delivered[-1].name == "BadgeSeen"
    ratio = net.stats.encoded_bytes / strawman.bytes
    assert 0.0 < ratio <= 0.5, f"badge stream only reached ratio {ratio:.3f}"
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0
    record_codec(
        "codec_badge_stream",
        sightings=STREAM,
        encoded_bytes=net.stats.encoded_bytes,
        repr_bytes=strawman.bytes,
        bytes_ratio=round(ratio, 4),
        reduction_ratio=round(strawman.bytes / net.stats.encoded_bytes, 2),
        intern_hits=net.stats.intern_hits,
        intern_misses=net.stats.intern_misses,
        seconds=elapsed,
    )


def test_encode_decode_throughput():
    """Raw marshalling speed on the cascade item shape, plus the
    encoded-form coalescer: recorded so a codec regression shows up as a
    number, not a vibe."""
    codec = WireCodec()
    codec.set_reliable("a", "b")  # a warm retained link, as in production
    items = [
        {
            "kind": "modified",
            "payload": {"issuer": "Login", "ref": i, "state": "false", "stamp": None},
        }
        for i in range(CASCADE)
    ]
    # warm the symbol table with one small frame first
    codec.decode("a", "b", codec.encode_items("a", "b", items[:1], coalesce=False).frame.data)

    rounds = 3 if bench_quick() else 10
    start = time.perf_counter()
    for _ in range(rounds):
        section = codec.encode_items("a", "b", items, coalesce=False)
    encode_seconds = time.perf_counter() - start

    data = section.frame.data
    start = time.perf_counter()
    for _ in range(rounds):
        decoded = codec.decode("a", "b", data)
    decode_seconds = time.perf_counter() - start
    assert len(decoded["items"]) == CASCADE

    doubled = codec.encode_items("a", "b", items + items, coalesce=False).frame.data
    start = time.perf_counter()
    for _ in range(rounds):
        coalesced = coalesce_encoded(doubled)
    coalesce_seconds = time.perf_counter() - start
    assert len(codec.decode("a", "b", coalesced)["items"]) == CASCADE

    encode_rate = rounds * CASCADE / encode_seconds
    decode_rate = rounds * CASCADE / decode_seconds
    assert encode_rate > 0 and decode_rate > 0
    record_codec(
        "codec_throughput",
        items_per_frame=CASCADE,
        rounds=rounds,
        encode_items_per_second=int(encode_rate),
        decode_items_per_second=int(decode_rate),
        coalesce_items_per_second=int(rounds * 2 * CASCADE / coalesce_seconds),
        frame_bytes=len(data),
        bytes_per_item=round(len(data) / CASCADE, 2),
    )
