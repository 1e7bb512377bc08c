"""The compact binary wire codec: round-trips, interning, epoch safety.

Three layers under test:

* value/frame round-trips — everything the wire carries must decode to
  an equal object, because the network now delivers *decoded frames*,
  not the sender's live payload;
* per-link symbol interning — definitions once per link on reliable
  (retained-for-retransmission) links, re-defined every frame on
  fire-and-forget links, renegotiated from scratch on a boot-epoch bump;
* encoded-form coalescing — last-state-wins on delta-encoded cascade
  items must agree with the wire layer's keyed coalescing (the
  Hypothesis property ``decode(coalesce(encode(xs))) == coalesce(xs)``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.events.model import Event
from repro.runtime.codec import (
    Encoded,
    StaleEpochError,
    UnknownSymbolError,
    WireCodec,
    _read_uvarint,
    _unzigzag,
    _write_uvarint,
    _zigzag,
    coalesce_encoded,
)
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator


def roundtrip(payload, kind="x", codec=None):
    codec = codec or WireCodec()
    encoded = codec.encode("a", "b", kind, payload)
    return codec.decode("a", "b", encoded.data), encoded


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
        codec = WireCodec(intern_max_len=8)
        decoded, encoded = roundtrip("x" * 100, codec=codec)
        assert decoded == "x" * 100
        assert encoded.intern_misses == 1  # charged, but sent as plain text

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


# -- typed frames -------------------------------------------------------------


class TestTypedFrames:
    def test_heartbeat_frames(self):
        codec = WireCodec()
        for kind, body in [
            ("heartbeat", {"seq": 17, "horizon": 4.5, "epoch": 2}),
            ("heartbeat-ack", {"ack": 12}),
            ("heartbeat-nack", {"missing": [3, 4, 9]}),
            ("heartbeat-fillers", {"seqs": [5, 6, 7], "horizon": 1.0, "epoch": 1}),
            (
                "heartbeat-payload",
                {"seq": 3, "horizon": 0.5, "epoch": 1, "payload": {"items": []}},
            ),
        ]:
            decoded, encoded = roundtrip(body, kind=kind, codec=codec)
            assert decoded == body, kind
        assert codec.stats.generic_frames == 0  # every shape hit its typed frame

    def test_rpc_frames(self):
        codec = WireCodec()
        request = {"id": 4, "method": "add", "args": (2, 3), "kwargs": {"x": 1}}
        decoded, _ = roundtrip(request, kind="rpc-request", codec=codec)
        assert decoded == request
        for reply in [{"id": 4, "value": 5}, {"id": 4, "error": "boom"}, {"id": 4}]:
            decoded, _ = roundtrip(reply, kind="rpc-reply", codec=codec)
            assert decoded == reply
        event = {"topic": "alerts", "payload": [1, 2]}
        decoded, _ = roundtrip(event, kind="rpc-event", codec=codec)
        assert decoded == event
        assert codec.stats.generic_frames == 0

    def test_mismatched_shape_falls_back_to_generic(self):
        codec = WireCodec()
        body = {"seq": "not-an-int"}
        decoded, _ = roundtrip(body, kind="heartbeat", codec=codec)
        assert decoded == body
        assert codec.stats.generic_frames == 1

    def test_batch_frame_roundtrip(self):
        codec = WireCodec()
        items = [
            {"kind": "subscribe", "payload": {"ref": 9, "subscriber": "Files"}},
            mod("Login", 4, "false", (1, 7)),
            mod("Login", 5, "unknown", (1, 8)),
        ]
        body = {"items": items, "hb": {"seq": 2, "horizon": 1.5, "epoch": 1}}
        decoded, _ = roundtrip(body, kind="wire-batch", codec=codec)
        assert decoded["hb"] == body["hb"]
        # generic items keep their position; modified items group after
        assert decoded["items"][0] == items[0]
        assert sorted_mods(decoded["items"][1:]) == sorted_mods(items[1:])

    def test_delta_encoding_is_compact(self):
        codec = WireCodec()
        codec.set_reliable("a", "b")
        items = [mod("Login", 1000 + i, "false", (1, i + 1)) for i in range(100)]
        first = codec.encode_items("a", "b", items)
        again = codec.encode_items("a", "b", items)
        # warm table: ~5 bytes per record (ref delta, flags, stamp delta)
        assert len(again.frame.data) < 100 * 8
        assert len(again.frame.data) < len(repr({"items": items})) / 10


def mod(issuer, ref, state, stamp=None):
    return {
        "kind": "modified",
        "payload": {"issuer": issuer, "ref": ref, "state": state, "stamp": stamp},
    }


def sorted_mods(items):
    return sorted(items, key=lambda i: (i["payload"]["issuer"], i["payload"]["ref"]))


# -- interning lifecycle ------------------------------------------------------


class TestInterning:
    def test_reliable_link_refs_after_first_frame(self):
        codec = WireCodec()
        codec.set_reliable("a", "b")
        first = codec.encode("a", "b", "x", ["Login", "Login", "Login"])
        second = codec.encode("a", "b", "x", ["Login"])
        assert first.intern_misses == 1 and first.intern_hits == 2
        assert second.intern_misses == 0 and second.intern_hits == 1
        assert len(second.data) < len(first.data)
        assert codec.decode("a", "b", first.data) == ["Login"] * 3
        assert codec.decode("a", "b", second.data) == ["Login"]

    def test_unreliable_link_redefines_every_frame(self):
        # no retransmission guarantee -> every frame self-contained
        codec = WireCodec()
        codec.encode("a", "b", "x", "Login")
        second = codec.encode("a", "b", "x", "Login")
        assert second.intern_misses == 1 and second.intern_hits == 0
        # out-of-order decode works because nothing spans frames
        assert codec.decode("a", "b", second.data) == "Login"

    def test_tables_are_per_directed_link(self):
        codec = WireCodec()
        codec.set_reliable("a", "b")
        codec.encode("a", "b", "x", "Login")
        reverse = codec.encode("b", "a", "x", "Login")
        assert reverse.intern_misses == 1  # the reverse link starts cold

    def test_dangling_ref_is_rejected_not_guessed(self):
        codec = WireCodec()
        codec.set_reliable("a", "b")
        codec.encode("a", "b", "x", "Login")          # defines symbol 0
        second = codec.encode("a", "b", "x", "Login")  # bare ref
        with pytest.raises(UnknownSymbolError):
            codec.decode("a", "b", second.data)        # def frame never arrived
        assert codec.stats.unknown_symbol_rejected == 1

    def test_table_bound_falls_back_to_plain_strings(self):
        codec = WireCodec(max_symbols=4)
        codec.set_reliable("a", "b")
        names = [f"principal-{i}" for i in range(10)]
        encoded = codec.encode("a", "b", "x", names)
        assert codec.decode("a", "b", encoded.data) == names


# -- epoch renegotiation (satellite: intern-table epoch safety) ---------------


class TestEpochSafety:
    def make(self):
        codec = WireCodec()
        epoch = {"value": 1}
        codec.set_epoch_source("a", lambda: epoch["value"])
        codec.set_reliable("a", "b")
        return codec, epoch

    def test_epoch_bump_renegotiates_symbols(self):
        codec, epoch = self.make()
        codec.decode("a", "b", codec.encode("a", "b", "x", "Login").data)
        warm = codec.encode("a", "b", "x", "Login")
        assert warm.intern_hits == 1
        epoch["value"] = 2  # crash-restart
        fresh = codec.encode("a", "b", "x", "Login")
        assert fresh.intern_misses == 1 and fresh.intern_hits == 0
        assert codec.decode("a", "b", fresh.data) == "Login"

    def test_stale_epoch_frame_rejected_after_new_epoch_seen(self):
        codec, epoch = self.make()
        stale = codec.encode("a", "b", "x", "Login")
        epoch["value"] = 2
        codec.decode("a", "b", codec.encode("a", "b", "x", "Login").data)
        # the pre-crash frame's symbol ids belong to a dead table
        with pytest.raises(StaleEpochError):
            codec.decode("a", "b", stale.data)
        assert codec.stats.stale_epoch_rejected == 1

    def test_late_old_epoch_frame_before_any_new_traffic_still_decodes(self):
        # the receiver cannot know about a restart it has not seen; the
        # monitor-level (epoch, seq) stamps handle application staleness
        codec, epoch = self.make()
        stale = codec.encode("a", "b", "x", "Login")
        epoch["value"] = 2
        assert codec.decode("a", "b", stale.data) == "Login"

    def test_stale_ids_never_resolve_against_new_table(self):
        codec, epoch = self.make()
        # establish "Login" as id 0 in epoch 1
        codec.decode("a", "b", codec.encode("a", "b", "x", "Login").data)
        stale_ref = codec.encode("a", "b", "x", "Login")  # bare ref to id 0
        epoch["value"] = 2
        # in epoch 2, id 0 is a *different* symbol
        codec.decode("a", "b", codec.encode("a", "b", "x", "Files").data)
        with pytest.raises(StaleEpochError):
            codec.decode("a", "b", stale_ref.data)


# -- encoded-form coalescing (satellite: round-trip property) -----------------


def reference_coalesce(items):
    """The wire layer's last-state-wins semantics on plain items: the
    final state of each (issuer, ref) at its first occurrence's position,
    generic items untouched, modified items grouped per issuer (the
    decoded order of an items frame)."""
    others = [i for i in items if i["kind"] != "modified"]
    groups: dict[str, dict[int, dict]] = {}
    for item in items:
        if item["kind"] != "modified":
            continue
        body = item["payload"]
        run = groups.setdefault(body["issuer"], {})
        run[body["ref"]] = body  # dict overwrite keeps the first position
    return others + [
        {"kind": "modified", "payload": dict(body)}
        for run in groups.values()
        for body in run.values()
    ]


_states = st.sampled_from(["true", "false", "unknown"])
_stamps = st.none() | st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=1000)
)
_mod_items = st.builds(
    mod,
    st.sampled_from(["Login", "Files", "Badges"]),
    st.integers(min_value=-50, max_value=50),
    _states,
    _stamps,
)
_other_items = st.builds(
    lambda ref: {"kind": "subscribe", "payload": {"ref": ref, "subscriber": "S"}},
    st.integers(min_value=0, max_value=20),
)
_item_lists = st.lists(_mod_items | _other_items, max_size=40)


class TestEncodedCoalescing:
    @given(_item_lists)
    @settings(max_examples=200, deadline=None)
    def test_decode_coalesce_encode_equals_coalesce(self, items):
        codec = WireCodec()
        section = codec.encode_items("a", "b", items, coalesce=False)
        coalesced = coalesce_encoded(section.frame.data)
        decoded = codec.decode("a", "b", coalesced)
        assert decoded["items"] == reference_coalesce(items)

    @given(_item_lists)
    @settings(max_examples=100, deadline=None)
    def test_encode_side_coalescing_agrees(self, items):
        codec = WireCodec()
        eager = codec.encode_items("a", "b", items, coalesce=True)
        assert codec.decode("a", "b", eager.frame.data)["items"] == (
            reference_coalesce(items)
        )

    @given(_item_lists)
    @settings(max_examples=100, deadline=None)
    def test_coalesce_encoded_is_idempotent(self, items):
        codec = WireCodec()
        section = codec.encode_items("a", "b", items, coalesce=False)
        once = coalesce_encoded(section.frame.data)
        assert coalesce_encoded(once) == once

    def test_coalesce_never_grows_the_frame(self):
        codec = WireCodec()
        items = [mod("Login", i % 5, "false", (1, i)) for i in range(50)]
        section = codec.encode_items("a", "b", items, coalesce=False)
        assert len(coalesce_encoded(section.frame.data)) < len(section.frame.data)


# -- network integration ------------------------------------------------------


class TestNetworkIntegration:
    def make(self):
        sim = Simulator()
        net = Network(sim, seed=3)
        got = []
        net.add_node("a", lambda m: got.append(m))
        net.add_node("b", lambda m: got.append(m))
        return sim, net, got

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
        encoded = net.codec.encode("a", "b", "data", [1, 2])
        net.send("a", "b", "data", encoded)
        sim.run()
        assert got[0].payload == [1, 2]
        assert net.stats.encoded_bytes == len(encoded.data)

    def test_undecodable_frame_dropped_with_accounting(self):
        sim, net, got = self.make()
        net.send("a", "b", "data", Encoded(b"\x01\x01\x00\xff"))
        sim.run()
        assert got == []
        assert net.stats.dropped_decode == 1
        assert net.unaccounted() == 0  # the drop has a recorded fate

    def test_crashed_node_learns_no_symbols(self):
        sim, net, got = self.make()
        net.node("b").up = False
        net.send("a", "b", "data", "Login")  # SYMDEF in flight
        sim.run()
        assert net.stats.dropped_while_down == 1
        # the def died with the frame: a bare ref must not resolve
        net.node("b").up = True
        assert net.codec._decoder_for("a", "b").symbols == {}
