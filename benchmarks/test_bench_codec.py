"""Wire-codec benchmarks: bytes on the wire and marshalling throughput.

The acceptance gates for the compact binary codec:

* a CASCADE-record revocation cascade across a SimLinkage link (one
  journal relay delivery and its ack) puts >= 5x fewer *bytes* on the
  wire than the repr-of-payload baseline the accounting used before
  (encoded / :class:`ReprStrawman` bytes <= 0.2);
* a STREAM-sighting badge stream (generic events through the extension
  path) still compresses well, each batch frame defining its badge and
  room names once;
* encode/decode stay cheap enough that marshalling never becomes the
  cascade bottleneck (throughput recorded, not gated);
* a journaled pair's RELAY-session logoff reaches the subscriber as one
  typed ``outbox-deliver`` frame, its wire bytes per entry pinned.

Counter assertions are exact; measured series go to BENCH_codec.json
(``BENCH_CODEC_OUT``) for the CI artifact.
"""

import time
from contextlib import contextmanager

import pytest

from benchmarks.conftest import bench_quick, record_bench
from benchmarks.test_bench_wire import build_linked_world
from repro.errors import RevokedError
from repro.events.model import Event
from repro.runtime.codec import F_ACKED, F_DELIVER, WireCodec
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import MESSAGE_HEADER_BYTES, Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel, heartbeat_of, unpack

CASCADE = 2_000
STREAM = 2_000 if bench_quick() else 10_000
RELAY = 128   # the request benchmark's fan-out: one logoff, 128 sessions


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

        def counted_encode(codec, kind, payload):
            self.bytes += len(repr(payload))
            return encode(codec, kind, payload)

        def counted_encode_items(codec, items):
            self._items = items
            return encode_items(codec, items)

        def counted_wrap_batch(codec, section, hb):
            body = {"items": self._items}
            if hb is not None:
                body["hb"] = hb
            self.bytes += len(repr(body))
            return wrap_batch(codec, section, hb)

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
    sim, net, linkage, login, files, certs, readers = build_linked_world(CASCADE)
    # a production deployment monitors the link
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
    requests = linkage.relay_of("Login").rpc.stats
    mark_deliveries = requests.requests_sent
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
    # frames are self-contained and every word of a delivery is a
    # vocabulary ref or an enum: no frame in the window defines a
    # symbol (the caller's address, not the frame, names the issuer)
    hits = net.stats.intern_hits - mark_hits
    misses = net.stats.intern_misses - mark_misses
    deliveries = requests.requests_sent - mark_deliveries
    assert deliveries > 0
    assert misses == 0
    record_bench(
        "codec", "codec_cascade",
        cascade_records=CASCADE,
        encoded_bytes=encoded,
        repr_bytes=baseline,
        reduction_ratio=round(baseline / encoded, 2),
        cascade_bytes_ratio=round(ratio, 4),
        run_bytes_ratio=round(run_ratio, 4),
        intern_hits=hits,
        intern_misses=misses,
        deliveries=deliveries,
        seconds=elapsed,
        **_hit_rates(files.cache_counters()),
    )


def test_badge_stream_bytes_reduced():
    """STREAM badge sightings (generic events, the extension path) over
    a heartbeat-attached link: with names and rooms defined once per
    batch frame, the stream compresses well below the repr baseline."""
    sim = Simulator()
    net = Network(sim, seed=23, default_delay=0.001)
    sender = HeartbeatSender(net, "sensornet", "sink", period=1.0)
    monitor = HeartbeatMonitor(net, "sink", "sensornet", period=1.0, grace=2.0)
    delivered = []

    def sink_node(message):
        hb = heartbeat_of(message)
        if hb is not None:
            monitor.handle_message("heartbeat", hb)
        for msg in unpack(message):
            if msg.kind == "sighting":
                delivered.append(msg.payload)

    net.add_node("sensornet", lambda message: None)
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
    record_bench(
        "codec", "codec_badge_stream",
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
    """Raw marshalling speed on the cascade's delivery shape (one
    ``outbox-deliver`` request): recorded so a codec regression shows up
    as a number, not a vibe."""
    codec = WireCodec()
    rows = [[seq, seq << 24, "false", [1, seq]] for seq in range(1, CASCADE + 1)]
    request = {"id": 7, "method": "outbox-deliver", "args": (rows,), "kwargs": {}}
    rounds = 3 if bench_quick() else 10
    start = time.perf_counter()
    for _ in range(rounds):
        data = codec.encode("rpc-request", request).data
    encode_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        decoded = codec.decode(data)
    decode_seconds = time.perf_counter() - start
    assert decoded["args"] == (rows,)

    encode_rate = rounds * CASCADE / encode_seconds
    decode_rate = rounds * CASCADE / decode_seconds
    assert encode_rate > 0 and decode_rate > 0
    record_bench(
        "codec", "codec_throughput",
        items_per_frame=CASCADE,
        rounds=rounds,
        encode_items_per_second=int(encode_rate),
        decode_items_per_second=int(decode_rate),
        frame_bytes=len(data),
        bytes_per_item=round(len(data) / CASCADE, 2),
    )


def test_relay_cascade_is_one_typed_delivery():
    """A journaled Login->Files pair: one ``exit_roles`` over RELAY
    sessions reaches Files as ONE ``outbox-deliver`` request, acked by
    one reply.  Its wire bytes per entry (request and ack, headers
    included) are pinned at the measured value: a dense revocation's
    rows cost a one-byte seq delta, a four-byte CRR delta, the flags,
    the stamp epoch and a one-byte stamp delta."""
    sim, net, linkage, login, files, certs, readers = build_linked_world(RELAY)
    frames = []

    def capture(message, delay):
        frames.append(message)
        return [delay]

    net.set_fault_injector(capture)
    start = time.perf_counter()
    assert login.exit_roles(certs) == RELAY
    sim.run()
    elapsed = time.perf_counter() - start
    requests = [m for m in frames if m.kind == "rpc-request"]
    replies = [m for m in frames if m.kind == "rpc-reply"]
    assert [(m.dest, m.payload[1]) for m in requests] == [("oasis:Files", F_DELIVER)]
    assert [m.payload[1] for m in replies] == [F_ACKED]
    delivered = WireCodec().decode(requests[0].payload)
    assert len(delivered["args"][0]) == RELAY
    request_bytes = MESSAGE_HEADER_BYTES + len(requests[0].payload)
    reply_bytes = MESSAGE_HEADER_BYTES + len(replies[0].payload)
    bytes_per_entry = (request_bytes + reply_bytes) / RELAY
    # the call id takes two bytes: the subscribe replies went through
    # the relay too
    assert (request_bytes, reply_bytes) == (1_051, 158)   # 9.45 B per entry
    for reader in readers:
        with pytest.raises(RevokedError):
            files.validate(reader)
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0
    record_bench(
        "codec", "codec_relay_cascade",
        entries=RELAY,
        request_bytes=request_bytes,
        reply_bytes=reply_bytes,
        bytes_per_entry=round(bytes_per_entry, 2),
        seconds=elapsed,
    )
