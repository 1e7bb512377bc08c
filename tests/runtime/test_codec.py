"""The compact binary wire codec: round-trips, self-contained frames and
the published vocabulary.

Three layers under test:

* value/frame round-trips — everything the wire carries must decode to
  an equal object, because the network now delivers *decoded frames*,
  not the sender's live payload;
* the generic value path against a plain reference writer and reader,
  byte for byte, with every truncated frame a ``CodecError``;
* symbols — the protocol's own words are refs into the fixed
  ``VOCABULARY``; any other string is defined inside the frame that uses
  it, so every frame decodes alone, in any order, on a fresh codec;
* the journal relay's typed frames (``outbox-deliver``, its ack, the
  tail-sync reply) — each decodes to exactly what the generic frame for
  the same payload decodes to, and any other shape keeps that frame.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import CredentialRecordTable
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import CodecError
from repro.runtime import codec as codec_module
from repro.events.model import Event
from repro.runtime.clock import SimClock
from repro.runtime.codec import (
    VOCABULARY,
    Encoded,
    WireCodec,
    _read_uvarint,
    _unzigzag,
    _write_uvarint,
    _zigzag,
)
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator


def roundtrip(payload, kind="x", codec=None):
    codec = codec or WireCodec()
    encoded = codec.encode(kind, payload)
    return codec.decode(encoded.data), encoded


# -- primitives ---------------------------------------------------------------


class TestPrimitives:
    @given(st.integers(min_value=0, max_value=2**70))
    def test_uvarint_roundtrip(self, n):
        out = bytearray()
        _write_uvarint(out, n)
        value, pos = _read_uvarint(bytes(out), 0)
        assert value == n and pos == len(out)

    @given(st.integers())
    def test_zigzag_roundtrip(self, n):
        assert _unzigzag(_zigzag(n)) == n

    def test_zigzag_small_values_stay_small(self):
        # the delta encoding relies on small deltas costing one byte
        for n in (-64, -1, 0, 1, 63):
            assert _zigzag(n) < 128

    def test_uvarint_rejects_negative(self):
        with pytest.raises(CodecError):
            _write_uvarint(bytearray(), -1)


# -- value round-trips --------------------------------------------------------


SCALARS = [
    None,
    True,
    False,
    0,
    -1,
    1,
    127,
    -(2**40),
    2**40,
    0.0,
    -2.5,
    float("inf"),
    "",
    "hello",
    "λ-calculus",
    b"",
    b"\x00\xff raw",
]


class TestValueRoundTrip:
    @pytest.mark.parametrize("payload", SCALARS)
    def test_scalars(self, payload):
        decoded, _ = roundtrip(payload)
        assert decoded == payload
        assert type(decoded) is type(payload)

    def test_containers(self):
        payload = {
            "list": [1, "two", None],
            "tuple": (1, 2),
            "nested": {"k": [{"deep": (3.5, False)}]},
            7: "int-key",
        }
        decoded, _ = roundtrip(payload)
        assert decoded == payload
        assert isinstance(decoded["tuple"], tuple)
        assert isinstance(decoded["list"], list)

    def test_long_string_not_interned(self):
        # past 64 characters a string is plain text every time it occurs
        decoded, encoded = roundtrip(["x" * 65, "x" * 65])
        assert decoded == ["x" * 65] * 2
        assert (encoded.intern_hits, encoded.intern_misses) == (0, 2)
        decoded, encoded = roundtrip(["x" * 64, "x" * 64])
        assert decoded == ["x" * 64] * 2
        assert (encoded.intern_hits, encoded.intern_misses) == (1, 1)

    def test_event_extension(self):
        event = Event("withdrawal", ("alice", 50), timestamp=3.25, source="Bank")
        decoded, _ = roundtrip({"event": event, "horizon": 3.25})
        assert decoded["event"] == event
        assert isinstance(decoded["event"], Event)

    def test_unencodable_payload_is_loud(self):
        with pytest.raises(CodecError):
            roundtrip({1, 2, 3})
        with pytest.raises(CodecError):
            roundtrip(object())

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text(max_size=20)
            | st.binary(max_size=20),
            lambda leaf: st.lists(leaf, max_size=4)
            | st.dictionaries(st.text(max_size=8), leaf, max_size=4),
            max_leaves=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_generic_values_roundtrip(self, payload):
        decoded, _ = roundtrip(payload)
        assert decoded == payload


# -- the generic value path against a plain reference --------------------------
#
# ReferenceEncoder/ReferenceDecoder are the plainest writer and reader of
# the format: recursive, isinstance-dispatched, one helper call per
# integer, and symbols looked up by list search.  Swapped in for the real
# frame classes, they must produce and read exactly the same bytes.


class ReferenceEncoder(codec_module._FrameEncoder):
    __slots__ = ()

    def u(self, value):
        _write_uvarint(self.out, value)

    def z(self, value):
        _write_uvarint(self.out, _zigzag(value))

    def string(self, s):
        m = codec_module
        known = list(m.VOCABULARY) + list(self.ids)   # ids keep definition order
        if s in known:
            self.hits += 1
            self.out.append(m._T_SYMREF)
            self.u(known.index(s))
            return
        self.misses += 1
        if len(s) > 64:
            self.out.append(m._T_STR)
        else:
            self.ids[s] = len(known)
            self.out.append(m._T_SYMDEF)
        self._utf8(s)

    def value(self, v):
        m = codec_module
        out = self.out
        if v is None:
            out.append(m._T_NONE)
        elif v is True:
            out.append(m._T_TRUE)
        elif v is False:
            out.append(m._T_FALSE)
        elif isinstance(v, int):
            out.append(m._T_INT)
            self.z(v)
        elif isinstance(v, float):
            out.append(m._T_FLOAT)
            self.f64(v)
        elif isinstance(v, str):
            self.string(v)
        elif isinstance(v, (bytes, bytearray)):
            out.append(m._T_BYTES)
            self.u(len(v))
            out += v
        elif isinstance(v, Encoded):
            out.append(m._T_FRAME)
            self.u(len(v.data))
            out += v.data
        elif isinstance(v, list):
            out.append(m._T_LIST)
            self.u(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, tuple):
            out.append(m._T_TUPLE)
            self.u(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, dict):
            out.append(m._T_DICT)
            self.u(len(v))
            for key, val in v.items():
                self.value(key)
                self.value(val)
        else:
            name = m._EXT_BY_TYPE.get(type(v))
            if name is None:
                raise CodecError(f"cannot encode {type(v).__name__!r}")
            _cls, pack, _unpack = m._EXTENSIONS[name]
            out.append(m._T_EXT)
            self.string(name)
            self.value(pack(v))

    # The relay frames' run and seq-list coders.  reference_encode patches
    # them over the module's functions, which take the encoder first.

    def write_run(self, rows, with_seq):
        self.u(len(rows))
        prev_seq = prev_ref = prev_stamp = 0
        for row in rows:
            *seq, ref, state, stamp = row
            if with_seq:
                self.z(seq[0] - prev_seq)
                prev_seq = seq[0]
            self.z(ref - prev_ref)
            prev_ref = ref
            code = codec_module._STATE_CODES[state]
            self.out.append(code if stamp is None else code | 0x04)
            if stamp is not None:
                self.u(stamp[0])
                self.z(stamp[1] - (seq[0] if with_seq else prev_stamp))
                prev_stamp = stamp[1]

    def write_seq_list(self, seqs):
        self.u(len(seqs))
        prev = 0
        for seq in seqs:
            self.z(seq - prev)
            prev = seq


class ReferenceDecoder(codec_module._FrameDecoder):
    __slots__ = ()

    def u(self):
        value, self.pos = _read_uvarint(self.data, self.pos)
        return value

    def z(self):
        return _unzigzag(self.u())

    def string(self):
        value = self.value()
        if not isinstance(value, str):
            raise CodecError(f"expected a string, decoded {type(value).__name__}")
        return value

    def value(self):
        m = codec_module
        if self.pos >= len(self.data):
            raise CodecError("truncated frame")
        tag = self.data[self.pos]
        self.pos += 1
        if tag == m._T_NONE:
            return None
        if tag == m._T_TRUE:
            return True
        if tag == m._T_FALSE:
            return False
        if tag == m._T_INT:
            return self.z()
        if tag == m._T_FLOAT:
            return self.f64()
        if tag == m._T_STR:
            return self._utf8()
        if tag == m._T_BYTES:
            return self.raw(self.u())
        if tag == m._T_SYMDEF:
            s = self._utf8()
            self.symbols.append(s)
            return s
        if tag == m._T_SYMREF:
            sid = self.u()
            if sid >= len(self.symbols):
                raise CodecError(f"symbol id {sid}")
            return self.symbols[sid]
        if tag == m._T_FRAME:
            return m._decode_frame(self.raw(self.u()))
        if tag == m._T_LIST:
            return [self.value() for _ in range(self.u())]
        if tag == m._T_TUPLE:
            return tuple(self.value() for _ in range(self.u()))
        if tag == m._T_DICT:
            return {self.value(): self.value() for _ in range(self.u())}
        if tag == m._T_EXT:
            name = self.string()
            _cls, _pack, unpack = m._EXTENSIONS[name]
            return unpack(self.value())
        raise CodecError(f"unknown value tag 0x{tag:02x}")

    def read_run(self, with_seq):
        rows = []
        seq = ref = prev_stamp = 0
        for _ in range(self.u()):
            if with_seq:
                seq += self.z()
            ref += self.z()
            flags = self.raw(1)[0]
            if flags & ~0x04 not in codec_module._STATE_NAMES:
                raise CodecError(f"row flags 0x{flags:02x}")
            stamp = None
            if flags & 0x04:
                epoch = self.u()
                prev_stamp = (seq if with_seq else prev_stamp) + self.z()
                stamp = [epoch, prev_stamp]
            row = [ref, codec_module._STATE_NAMES[flags & ~0x04], stamp]
            rows.append([seq] + row if with_seq else row)
        return rows

    def seq_list(self):
        seqs = []
        prev = 0
        for _ in range(self.u()):
            prev += self.z()
            seqs.append(prev)
        return seqs


def reference_encode(codec, kind, payload):
    with mock.patch.multiple(
        codec_module,
        _FrameEncoder=ReferenceEncoder,
        _write_run=ReferenceEncoder.write_run,
        _write_seq_list=ReferenceEncoder.write_seq_list,
    ):
        return codec.encode(kind, payload)


def reference_decode(codec, data):
    with mock.patch.multiple(
        codec_module,
        _FrameDecoder=ReferenceDecoder,
        _read_run=ReferenceDecoder.read_run,
        _seq_list=ReferenceDecoder.seq_list,
    ):
        return codec.decode(data)


# ints either side of every varint and zigzag edge, and both 64-bit ends
EDGE_INTS = [-65, -64, 63, 64, 127, 128, 2**62, -(2**62), -(2**63)]
# vocabulary words and strings a frame must define, each repeated
SYMBOLS = st.sampled_from(["Login", "bsc0", "false", "outbox-deliver"])
REFERENCE_LEAVES = (
    st.none()
    | st.booleans()
    | st.sampled_from(EDGE_INTS)
    | st.integers()
    | st.floats(allow_nan=False)
    | SYMBOLS
    | st.text(max_size=70)   # past 64 characters too: plain text
    | st.binary(max_size=20)
    | st.builds(
        Event,
        st.sampled_from(["Seen", "Left"]),
        st.lists(st.integers() | st.text(max_size=4), max_size=3).map(tuple),
        st.floats(allow_nan=False),
        st.text(max_size=6),
    )
)


def reference_values(max_leaves, long_leaves):
    nested = st.recursive(
        REFERENCE_LEAVES,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(SYMBOLS | st.integers(), children, max_size=4),
        max_leaves=max_leaves,
    )
    # 128 items and more: two-byte lengths
    return (
        nested
        | st.lists(long_leaves, min_size=128, max_size=140)
        | st.dictionaries(st.integers(-300, 300), long_leaves, min_size=128, max_size=130)
    )


def _frames(payload):
    return [
        ("generic", payload),
        ("rpc-request", {"id": 300, "method": "outbox-deliver", "args": (payload,),
                         "kwargs": {}}),
        ("rpc-reply", {"id": 5, "value": {"acked": payload}}),
    ]


@given(payload=reference_values(25, REFERENCE_LEAVES))
@settings(max_examples=100, deadline=None)
def test_value_path_writes_and_reads_the_reference_bytes(payload):
    """The fast value path is a re-implementation, not a format change:
    frame for frame, it writes the reference writer's bytes and both
    readers agree."""
    real, ref = WireCodec(), WireCodec()
    for kind, body in _frames(payload) * 2:
        encoded = real.encode(kind, body)
        expected = reference_encode(ref, kind, body)
        assert encoded.data == expected.data
        assert (encoded.intern_hits, encoded.intern_misses) == (
            expected.intern_hits, expected.intern_misses
        )
        decoded = real.decode(encoded.data)
        assert decoded == reference_decode(ref, expected.data)
        assert decoded == body


@given(payload=reference_values(12, st.sampled_from(EDGE_INTS) | SYMBOLS | st.booleans()))
@settings(max_examples=40, deadline=None)
def test_every_truncated_frame_is_a_codec_error(payload):
    """A strict prefix of a frame never decodes and never escapes as an
    IndexError: the reader fails with CodecError, which the network
    counts as a decode drop."""
    for kind, body in _frames(payload)[:2]:
        data = WireCodec().encode(kind, body).data
        for end in range(len(data)):
            try:
                codec_module._decode_frame(data[:end])
            except CodecError:
                continue
            pytest.fail(f"a {end}-byte prefix of a {len(data)}-byte frame decoded")


# -- typed frames -------------------------------------------------------------


class TestTypedFrames:
    def test_heartbeat_frames(self):
        codec = WireCodec()
        for body in [
            {"horizon": 4.5, "epoch": 2},
            {"horizon": float("-inf"), "epoch": 0},
            {"horizon": 1.0, "epoch": 2**40},
        ]:
            decoded, encoded = roundtrip(body, kind="heartbeat", codec=codec)
            assert decoded == body
            assert encoded.data[1] == codec_module.F_HEARTBEAT
        assert codec.stats.generic_frames == 0  # every shape hit its typed frame

    def test_rpc_frames(self):
        codec = WireCodec()
        request = {"id": 4, "method": "add", "args": (2, 3), "kwargs": {"x": 1}}
        decoded, _ = roundtrip(request, kind="rpc-request", codec=codec)
        assert decoded == request
        for reply in [{"id": 4, "value": 5}, {"id": 4, "error": "boom"}, {"id": 4}]:
            decoded, _ = roundtrip(reply, kind="rpc-reply", codec=codec)
            assert decoded == reply
        assert codec.stats.generic_frames == 0

    def test_mismatched_shape_falls_back_to_generic(self):
        codec = WireCodec()
        body = {"horizon": 1.0, "epoch": "not-an-int"}
        decoded, _ = roundtrip(body, kind="heartbeat", codec=codec)
        assert decoded == body
        assert codec.stats.generic_frames == 1

    def test_batch_frame_roundtrip(self):
        codec = WireCodec()
        items = [
            {"kind": "subscribe", "payload": {"ref": 9}},
            {"kind": "badge-seen", "payload": {"badge": "b1", "site": "Cam"}},
            {"kind": "subscribe", "payload": {"ref": 10}},
        ]
        body = {"items": items, "hb": {"horizon": 1.5, "epoch": 1}}
        decoded, encoded = roundtrip(body, kind="wire-batch", codec=codec)
        assert decoded == body   # items keep their order
        assert encoded.data[1] == codec_module.F_BATCH
        wrapped = codec.wrap_batch(codec.encode_items(items), body["hb"])
        assert wrapped.data == encoded.data

    def test_delta_encoding_is_compact(self):
        """Real CRRs are ``index << 24 | magic``: a dense revocation's ref
        deltas are 2**24, four bytes each.  With a one-byte seq delta, the
        flags, the stamp epoch and its zero delta, an outbox row costs
        eight bytes; the frame names no issuer (the caller's address
        does)."""
        codec = WireCodec()
        for n, measured in ((64, MEASURED_64), (1000, MEASURED_1000)):
            rows = [[i + 1, ref, "false", [1, i + 1]] for i, ref in enumerate(dense_crrs(n))]
            payload = deliver(3, rows)
            data = codec.encode("rpc-request", payload).data
            assert len(data) <= measured
            assert len(data) < len(repr(payload)) / 4
            assert codec.decode(data)["args"] == (rows,)

    def test_heartbeat_with_a_stray_horizon_or_epoch_takes_the_generic_frame(self):
        """As in every other typed branch, a heartbeat body the frame
        cannot carry rides the generic frame instead of failing the send."""
        for stray in ({"horizon": "x"}, {"epoch": 1.5}, {"epoch": -1}, {"seq": 4}):
            body = {"horizon": 2.0, "epoch": 1, **stray}
            codec = WireCodec()
            decoded, _ = roundtrip(body, kind="heartbeat", codec=codec)
            assert decoded == body
            assert codec.stats.generic_frames == 1


# the bytes the delta-coded run takes for 64 and 1000 dense revocations
MEASURED_64, MEASURED_1000 = 513, 8002


def dense_crrs(n):
    """The CRRs of ``n`` records created one after another."""
    table = CredentialRecordTable("Login")
    return [table.create_source().ref for _ in range(n)]


# -- the journal relay's typed frames ------------------------------------------

RELAY_FRAMES = {codec_module.F_DELIVER, codec_module.F_ACKED, codec_module.F_TAIL_REPLY}


def deliver(call_id, rows):
    return {"id": call_id, "method": "outbox-deliver", "args": (rows,), "kwargs": {}}


def acked(call_id, seqs):
    return {"id": call_id, "value": {"acked": seqs}}


def tail_reply(call_id, epoch, rows):
    return {"id": call_id, "value": {"epoch": epoch, "items": rows}}


# Seqs, epochs and stamp parts are never negative; refs are any int.
# Unsorted draws give negative deltas, and the 2**63-and-up values give
# deltas beyond +-2**62.
UINTS = st.integers(0, 2**70) | st.sampled_from([0, 63, 64, 127, 128, 2**62, 2**63, 2**64])
REFS = st.integers() | st.sampled_from(EDGE_INTS + [2**63, -(2**64)] + dense_crrs(4))
STATES = st.sampled_from(["true", "false", "unknown"])
STAMPS = st.none() | st.lists(UINTS, min_size=2, max_size=2)


def runs(row):
    """Empty and short runs, and runs of 128 rows and more (two-byte counts)."""
    return st.lists(row, max_size=6) | st.lists(row, min_size=128, max_size=132)


OUTBOX_ROW = st.builds(lambda seq, ref, state: [seq, ref, state, [1, seq]], UINTS, REFS, STATES)
DELIVER_ROWS = runs(st.tuples(UINTS, REFS, STATES, STAMPS).map(list) | OUTBOX_ROW)
TAIL_ROWS = runs(st.tuples(REFS, STATES, STAMPS).map(list))
RELAY_PAYLOADS = st.one_of(
    st.tuples(st.just("rpc-request"), st.builds(deliver, UINTS, DELIVER_ROWS)),
    st.tuples(st.just("rpc-reply"), st.builds(acked, UINTS, runs(UINTS))),
    st.tuples(st.just("rpc-reply"), st.builds(tail_reply, UINTS, UINTS, TAIL_ROWS)),
)


def generic_frame(kind, payload):
    """The frame ``payload`` took before the relay frames existed (the RPC
    request or reply frame over generic values), by the reference writer."""
    with mock.patch.object(codec_module, "_relay_frame", lambda kind, payload: 0):
        return reference_encode(WireCodec(), kind, payload).data


@given(relay=RELAY_PAYLOADS)
@settings(max_examples=80, deadline=None)
def test_relay_frames_decode_exactly_to_the_generic_frames_payload(relay):
    """Handlers, the RPC dedup cache and the journal see no difference:
    a relay frame decodes to what the generic frame decodes to, types
    included (``repr`` tells a tuple from a list and True from 1).  The
    fast path writes and reads the reference coders' bytes."""
    kind, payload = relay
    real, ref = WireCodec(), WireCodec()
    encoded = real.encode(kind, payload)
    assert encoded.data[1] in RELAY_FRAMES
    assert encoded.data == reference_encode(ref, kind, payload).data
    decoded = real.decode(encoded.data)
    assert repr(decoded) == repr(reference_decode(ref, encoded.data))
    assert repr(decoded) == repr(reference_decode(ref, generic_frame(kind, payload)))
    assert repr(decoded) == repr(payload)


@given(relay=RELAY_PAYLOADS)
@settings(max_examples=15, deadline=None)
def test_every_strict_prefix_of_a_relay_frame_is_a_codec_error(relay):
    data = WireCodec().encode(*relay).data
    for end in range(len(data)):
        try:
            codec_module._decode_frame(data[:end])
        except CodecError:
            continue
        pytest.fail(f"a {end}-byte prefix of a {len(data)}-byte relay frame decoded")


ROWS = [[7, 2**24, "false", [1, 7]], [8, 2**25, "true", None]]
MISFITS = {
    "extra request key": ("rpc-request", {**deliver(1, ROWS), "trace": 3}),
    "extra reply key": ("rpc-reply", {**acked(1, [7, 8]), "error": "late"}),
    "extra value key": ("rpc-reply", {"id": 1, "value": {"acked": [7], "more": 1}}),
    "kwargs": ("rpc-request", {**deliver(1, ROWS), "kwargs": {"urgent": True}}),
    "tuple stamp": ("rpc-request", deliver(1, [[7, 2**24, "false", (1, 7)]])),
    "tuple row": ("rpc-reply", tail_reply(1, 1, [(2**24, "false", [1, 7])])),
    "short row": ("rpc-request", deliver(1, [[7, 2**24, "false"]])),
    "negative seq": ("rpc-request", deliver(1, [[-7, 2**24, "false", [1, 7]]])),
    "negative stamp": ("rpc-request", deliver(1, [[7, 2**24, "false", [1, -7]]])),
    "negative ack": ("rpc-reply", acked(1, [7, -8])),
    "negative epoch": ("rpc-reply", tail_reply(1, -1, [])),
    "negative id": ("rpc-request", deliver(-1, ROWS)),
    "unknown state": ("rpc-request", deliver(1, [[7, 2**24, "revoked", None]])),
    "no state": ("rpc-reply", tail_reply(1, 1, [[2**24, None, None]])),
    "float seq": ("rpc-request", deliver(1, [[7.0, 2**24, "false", [1, 7]]])),
    "str ref": ("rpc-request", deliver(1, [[7, "16777216", "false", None]])),
    "bool stamp part": ("rpc-request", deliver(1, [[7, 2**24, "false", [True, 7]]])),
    "bool ack": ("rpc-reply", acked(1, [True, 8])),
    "float epoch": ("rpc-reply", tail_reply(1, 1.0, [])),
    "int issuer": ("rpc-request", {**deliver(1, ROWS), "args": (42, ROWS)}),
}


@pytest.mark.parametrize("shape", sorted(MISFITS))
def test_shapes_that_do_not_fit_keep_the_generic_frame(shape):
    kind, payload = MISFITS[shape]
    codec = WireCodec()
    encoded = codec.encode(kind, payload)
    assert encoded.data[1] not in RELAY_FRAMES
    assert repr(codec.decode(encoded.data)) == repr(payload)


# -- symbols: one published vocabulary, frame-scoped definitions ---------------

# A literal copy of the version-5 vocabulary.  Ids are part of the frame
# format: a change here without a VERSION bump breaks every peer.
PUBLISHED_V5 = (
    "true", "false", "unknown",
    "subscribe", "badge-seen", "badge-left", "badge-naming",
    "proxied-event", "proxied-horizon",
    "outbox-deliver", "tail-sync",
    "ref", "items", "kind", "payload", "hb", "seq", "horizon", "epoch",
    "id", "method", "args", "kwargs", "value", "error", "acked",
    "badge", "site", "home_site", "user", "event",
)

SERVICES = {"Login", "Files", "Mirror"}

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

READER_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""


def defined_symbols(data):
    """Decode one frame; returns the payload and the strings the frame
    (and any frame nested in it) defined for itself."""
    decoders = []

    class Recording(codec_module._FrameDecoder):
        def __init__(self, data):
            super().__init__(data)
            decoders.append(self)

    with mock.patch.object(codec_module, "_FrameDecoder", Recording):
        payload = codec_module._decode_frame(data)
    return payload, {s for d in decoders for s in d.symbols[len(VOCABULARY):]}


def deployment_frames():
    """Every frame a small deployment puts on the wire, as (kind, source,
    dest, bytes): Login with two subscribers, Files and Mirror
    (subscribe calls, outbox deliveries, heartbeats, a subscriber
    restart's tail-sync, one more revocation quiesced)."""
    sim = Simulator()
    net = Network(sim, seed=5, default_delay=0.01)
    frames = []

    def capture(message, delay):
        frames.append((message.kind, message.source, message.dest, message.payload))
        return [delay]

    net.set_fault_injector(capture)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", READER_RDL)
    mirror = OasisService("Mirror", registry=registry, linkage=linkage, clock=clock)
    mirror.add_rolefile("main", READER_RDL)
    linkage.monitor(login, mirror, period=0.5)
    host = HostOS("ely")
    certs = []
    for i in range(3):
        client = host.create_domain().client_id
        cert = login.enter_role(client, "LoggedOn", (f"u{i}", "ely"))
        files.enter_role(client, "Reader", credentials=(cert,))
        mirror.enter_role(client, "Reader", credentials=(cert,))
        certs.append(cert)
    sim.run_until(1.0)
    login.exit_role(certs[0])
    sim.run_until(3.0)
    linkage.crash(files)
    sim.run_until(4.0)
    linkage.restart(files)
    sim.run_until(6.0)
    login.exit_role(certs[1])
    linkage.quiesce()
    assert net.unaccounted() == 0
    return frames


class TestFrameSymbols:
    def test_vocabulary_is_pinned_to_its_version(self):
        assert codec_module.VERSION == 5
        assert VOCABULARY == PUBLISHED_V5
        assert len(set(VOCABULARY)) == len(VOCABULARY) < 128
        for sid, word in enumerate(VOCABULARY):
            # a two-byte ref, defining nothing
            decoded, encoded = roundtrip(word)
            assert decoded == word
            assert encoded.data[2:] == bytes([codec_module._T_SYMREF, sid])
            assert (encoded.intern_hits, encoded.intern_misses) == (1, 0)

    def test_src_messages_define_no_symbol_but_service_names(self):
        seen = set()
        methods = {}
        for kind, source, dest, data in deployment_frames():
            payload, defined = defined_symbols(data)
            assert defined <= SERVICES, (kind, payload, defined)
            if kind == "rpc-request":
                methods[(source, payload["id"])] = payload["method"]
                seen.add(payload["method"])
            elif kind == "rpc-reply":
                seen.add(methods[(dest, payload["id"])] + " reply")
            else:
                seen.add(kind)
        assert seen == {
            "heartbeat",
            "outbox-deliver", "outbox-deliver reply",
            "tail-sync", "tail-sync reply",
        }

    def test_relay_messages_take_their_typed_frames(self):
        """Every delivery, ack and tail-sync reply a deployment sends fits
        its typed frame; the tail-sync request keeps the RPC request frame."""
        m = codec_module
        methods, frame_types = {}, {}
        for kind, source, dest, data in deployment_frames():
            payload = WireCodec().decode(data)
            if kind == "rpc-request":
                methods[(source, payload["id"])] = name = payload["method"]
            elif kind == "rpc-reply":
                name = methods[(dest, payload["id"])] + " reply"
            else:
                continue
            frame_types.setdefault(name, set()).add(data[1])
        assert frame_types["outbox-deliver"] == {m.F_DELIVER}
        assert frame_types["outbox-deliver reply"] == {m.F_ACKED}
        assert frame_types["tail-sync"] == {m.F_RPC_REQUEST}
        assert frame_types["tail-sync reply"] == {m.F_TAIL_REPLY}

    def test_dangling_ref_is_rejected_not_guessed(self):
        m = codec_module
        first = len(VOCABULARY)
        login = bytes([m._T_SYMDEF, 5]) + b"Login"
        for body in [
            bytes([m._T_SYMREF, first]),                            # never defined
            bytes([m._T_LIST, 2, m._T_SYMREF, first]) + login,       # defined later
            bytes([m._T_LIST, 2]) + login + bytes([m._T_SYMREF, first + 1]),
        ]:
            codec = WireCodec()
            with pytest.raises(CodecError):
                codec.decode(bytes([m.VERSION, m.F_GENERIC]) + body)
            assert codec.stats.decode_errors == 1
        # a ref back to a definition made earlier in the same frame decodes
        frame = bytes([m.VERSION, m.F_GENERIC, m._T_LIST, 2]) + login + bytes(
            [m._T_SYMREF, first]
        )
        assert WireCodec().decode(frame) == ["Login", "Login"]

    def test_each_frame_defines_its_own_symbols(self):
        codec = WireCodec()
        first = codec.encode("x", ["Login", "Login"])
        second = codec.encode("x", ["Login"])
        assert (first.intern_hits, first.intern_misses) == (1, 1)
        assert (second.intern_hits, second.intern_misses) == (0, 1)
        assert WireCodec().decode(second.data) == ["Login"]


def _encoded_frames(sender, payload):
    """(frame bytes, expected decode) for every frame shape, a nested
    frame included."""
    items = [{"kind": "subscribe", "payload": payload}]
    section = sender.encode_items(items)
    hb = {"horizon": 0.5, "epoch": 1}
    out = [(sender.encode(kind, body).data, body) for kind, body in _frames(payload)]
    batch = sender.wrap_batch(section, hb)
    out.append((batch.data, {"items": items, "hb": hb}))
    out.append((sender.encode("x", [batch]).data, [{"items": items, "hb": hb}]))
    out.append((sender.encode("heartbeat", hb).data, hb))
    return out


@given(payloads=st.lists(reference_values(8, SYMBOLS), min_size=1, max_size=3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_frames_decode_in_any_order_with_a_fresh_codec(payloads, data):
    """No frame leans on another: a receiver that saw none of the
    others, taking them in any order, decodes each to what was sent."""
    sender = WireCodec()
    frames = [frame for payload in payloads for frame in _encoded_frames(sender, payload)]
    for frame, expected in data.draw(st.permutations(frames)):
        assert WireCodec().decode(frame) == expected


# -- network integration ------------------------------------------------------


class TestNetworkIntegration:
    def make(self):
        sim = Simulator()
        net = Network(sim, seed=3)
        got = []
        net.add_node("a", lambda m: got.append(m))
        net.add_node("b", lambda m: got.append(m))
        return sim, net, got

    def wire_frame(self, net, kind, payload):
        """The bytes ``net`` puts on the wire for one send (dropped by a
        fault injector, so nothing is delivered)."""
        frames = []
        net.set_fault_injector(lambda message, delay: frames.append(message.payload))
        net.send("a", "b", kind, payload)
        net.set_fault_injector(None)
        return frames[0]

    def test_delivery_is_a_real_roundtrip(self):
        sim, net, got = self.make()
        payload = {"issuer": "Login", "refs": [1, 2, 3], "flag": True}
        net.send("a", "b", "data", payload)
        sim.run()
        assert got[0].payload == payload
        assert got[0].payload is not payload  # decoded copy, not the object

    def test_bytes_accounting_uses_encoded_size(self):
        sim, net, got = self.make()
        net.send("a", "b", "data", ["credential-record"] * 20)
        stats = net.stats
        assert stats.encoded_bytes > 0
        assert stats.bytes_sent == stats.encoded_bytes + 24  # header

    def test_unencodable_send_raises_before_transmission(self):
        sim, net, got = self.make()
        with pytest.raises(CodecError):
            net.send("a", "b", "data", {1, 2, 3})
        assert net.stats.messages_sent == 0  # nothing counted, nothing sent

    def test_pre_encoded_payload_passes_through(self):
        sim, net, got = self.make()
        encoded = net.codec.encode("data", [1, 2])
        net.send("a", "b", "data", encoded)
        sim.run()
        assert got[0].payload == [1, 2]
        assert net.stats.encoded_bytes == len(encoded.data)

    def test_undecodable_frame_dropped_with_accounting(self):
        sim, net, got = self.make()
        unknown_tag = bytes([codec_module.VERSION, codec_module.F_GENERIC, 0xFF])
        net.send("a", "b", "data", Encoded(unknown_tag))
        sim.run()
        assert got == []
        assert net.stats.dropped_decode == 1
        assert net.unaccounted() == 0  # the drop has a recorded fate

    def test_leftover_bytes_are_a_decode_drop(self):
        """A frame followed by anything is not a frame: top-level and
        nested frames alike are dropped with accounting."""
        sim, net, got = self.make()
        garbage = b"\x07garbage"
        rows = [[seq, ref, "false", [1, seq]] for seq, ref in enumerate(dense_crrs(3), 5)]
        frames = [
            self.wire_frame(net, "rpc-reply", {"id": 4, "value": "Login"}),
            self.wire_frame(net, "heartbeat", {"horizon": 1.5, "epoch": 1}),
            self.wire_frame(net, "rpc-request", deliver(1, rows)),
            self.wire_frame(net, "rpc-reply", acked(1, [5, 6, 7])),
            self.wire_frame(net, "rpc-reply", tail_reply(2, 1, [row[1:] for row in rows])),
        ]
        assert {frame[1] for frame in frames[2:]} == RELAY_FRAMES
        items = self.wire_frame(net, "data", {"items": [{"kind": "subscribe", "payload": 1}]})
        for frame in frames:
            net.send("a", "b", "data", Encoded(frame + garbage))
        net.send("a", "b", "data", {"nested": Encoded(items + garbage)})
        sim.run()
        assert got == []
        assert net.stats.dropped_decode == 6
        assert net.unaccounted() == 0

    def test_other_versions_are_a_decode_drop(self):
        sim, net, got = self.make()
        frame = self.wire_frame(net, "data", {"issuer": "Login", "refs": [1, 2]})
        for version in (0, 1, 2, 3, 4, 0xFF):
            net.send("a", "b", "data", Encoded(bytes([version]) + frame[1:]))
        net.send("a", "b", "data", Encoded(frame))
        sim.run()
        assert [m.payload for m in got] == [{"issuer": "Login", "refs": [1, 2]}]
        assert net.stats.dropped_decode == 6
        assert net.codec.stats.decode_errors == 6
        assert net.unaccounted() == 0
