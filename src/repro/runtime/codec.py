"""Compact binary wire codec: self-contained frames over one published
vocabulary, with delta-encoded cascade batches.

Until this layer existed, every payload on the simulated wire was a live
Python object and byte accounting fell back to ``len(repr(payload))`` —
an estimate that drifted with dataclass repr churn.  This module is the
published language's substrate: a versioned, self-describing binary
encoding that every :meth:`Network.send` routes through, so
``bytes_sent`` is the length of real encoded frames and the wire-volume
numbers behind the batching/sharding work are measurements.

Three layers:

* **value encoding** — schema-tagged primitives: varint ints (zigzag for
  signed), 8-byte doubles, length-prefixed UTF-8 strings and bytes,
  counted lists/tuples/dicts, plus an extension registry for frozen
  dataclasses that legitimately cross the wire (events).  Anything else
  raises a loud :class:`~repro.errors.CodecError` instead of silently
  costing its repr length.

* **typed frames** — the wire's recurring payload shapes (wire batches,
  the bare heartbeat, RPC request/reply, and the journal relay's
  delivery, ack and tail-sync reply) get dedicated frame types with
  field-level encodings; unrecognised shapes ride a self-describing
  GENERIC frame.  The relay's record lists share one **delta-coded row
  coder** — (zigzag ref-delta, state-enum, stamp-delta) rows, about
  seven bytes per revoked record over dense CRRs (ids step by 2**24).

* **symbols** — every word the protocol itself sends (item kinds,
  payload field names, RPC methods, record states, extension names) is
  in :data:`VOCABULARY`, a fixed table versioned with the frame format,
  and travels as a two-byte ``SYMREF``.  Any other string is defined on
  its first use in a frame (``SYMDEF``) and referenced by id for the
  rest of that frame only.

A frame is ``[VERSION][frame type][body]`` and carries everything needed
to decode it: the codec keeps no per-link or per-boot state, so frames
decode in any order, on any receiver.  Staleness is not the codec's
business — heartbeat bodies and outbox stamps carry the sender's boot
epoch and are checked where they are applied.  A frame that fails to
decode (wrong version, dangling ref, truncation, leftover bytes) is
dropped by the network with accounting, which the protocol treats
exactly like message loss.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import CodecError

__all__ = [
    "CodecError",
    "Encoded",
    "CodecStats",
    "VOCABULARY",
    "WireCodec",
    "register_extension",
]


VERSION = 4

# The published vocabulary: every word this package puts on the wire, by
# id.  It is part of the frame format — changing it means bumping
# VERSION — and stays under 128 entries so each word costs two bytes as
# a SYMREF.
VOCABULARY = (
    # record states
    "true", "false", "unknown",
    # wire item kinds
    "subscribe", "badge-seen", "badge-left", "badge-naming",
    "proxied-event", "proxied-horizon",
    # RPC methods
    "outbox-deliver", "tail-sync", "settle-prepare", "settle-commit",
    # payload field names ("event" is also the Event extension's name)
    "ref", "items", "kind", "payload", "hb", "seq", "horizon", "epoch",
    "id", "method", "args", "kwargs", "value", "error",
    "acked", "service", "changed", "journal_head",
    "badge", "site", "home_site", "user", "event",
)
_VOCAB_IDS = {word: sid for sid, word in enumerate(VOCABULARY)}

# longer strings are sent as plain text, never defined as symbols
_SYMBOL_MAX_LEN = 64

# -- frame types --------------------------------------------------------------

F_GENERIC = 0x01       # self-describing tagged value
F_BATCH = 0x02         # wire batch envelope (items + optional heartbeat)
F_HEARTBEAT = 0x03     # {"horizon", "epoch"}
F_RPC_REQUEST = 0x04
F_RPC_REPLY = 0x05
F_DELIVER = 0x06       # outbox-deliver request: call id, issuer, run of rows
F_ACKED = 0x07         # its reply {"acked": seqs}
F_TAIL_REPLY = 0x08    # tail-sync reply {"epoch", "items": run of rows}

# -- value tags ---------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03          # zigzag varint
_T_FLOAT = 0x04        # IEEE-754 big-endian double
_T_STR = 0x05          # varint length + UTF-8
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SYMDEF = 0x0A       # varint length + UTF-8; takes the frame's next id
_T_SYMREF = 0x0B       # varint id: vocabulary, or defined earlier in the frame
_T_EXT = 0x0C          # registered extension: name symbol + packed value
_T_FRAME = 0x0D        # nested encoded frame (varint length + raw bytes)

_STATE_CODES = {"true": 0, "false": 1, "unknown": 2}
_STATE_NAMES = {code: name for name, code in _STATE_CODES.items()}
_HAS_STAMP = 0x04      # row flags: state code | has-stamp

_DOUBLE = struct.Struct(">d")

# zigzag as (n << 1) ^ (n >> 63) holds strictly inside +-2**62
_ZIGZAG_LIMIT = 2**62


# -- extension registry -------------------------------------------------------

_EXTENSIONS: dict[str, tuple[type, Callable[[Any], Any], Callable[[Any], Any]]] = {}
_EXT_BY_TYPE: dict[type, str] = {}


def register_extension(
    name: str,
    cls: type,
    pack: Callable[[Any], Any],
    unpack: Callable[[Any], Any],
) -> None:
    """Teach the codec a rich type that legitimately crosses the wire.

    ``pack`` reduces an instance to plain encodable values; ``unpack``
    rebuilds an equal instance.  Registration is idempotent for the same
    class and rejected for a name collision with a different class — two
    modules silently fighting over a tag would corrupt frames.
    """
    existing = _EXTENSIONS.get(name)
    if existing is not None and existing[0] is not cls:
        raise CodecError(f"codec extension {name!r} already registered")
    _EXTENSIONS[name] = (cls, pack, unpack)
    _EXT_BY_TYPE[cls] = name


# -- primitives ---------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if -_ZIGZAG_LIMIT < n < _ZIGZAG_LIMIT else (
        (n << 1) if n >= 0 else ((-n << 1) - 1)
    )


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


@dataclass
class CodecStats:
    """Aggregate counters for one :class:`WireCodec`."""

    frames_encoded: int = 0
    frames_decoded: int = 0
    encoded_bytes: int = 0
    typed_frames: int = 0
    generic_frames: int = 0
    intern_hits: int = 0       # strings sent as a ref (vocabulary or in-frame)
    intern_misses: int = 0     # strings sent as text
    decode_errors: int = 0

    def intern_hit_rate(self) -> float:
        total = self.intern_hits + self.intern_misses
        return self.intern_hits / total if total else 0.0


class Encoded:
    """An already-encoded frame, ready for :meth:`Network.send`.

    Carries the accounting the network needs: the honest encoded size
    (``len(data)``) and the intern hit/miss counts of the encoding pass.
    """

    __slots__ = ("data", "intern_hits", "intern_misses")

    def __init__(self, data: bytes, intern_hits: int = 0, intern_misses: int = 0):
        self.data = data
        self.intern_hits = intern_hits
        self.intern_misses = intern_misses


# -- frame encoder ------------------------------------------------------------


class _FrameEncoder:
    __slots__ = ("out", "ids", "hits", "misses")

    def __init__(self):
        self.out = bytearray()
        self.ids: dict[str, int] = {}   # strings this frame defined -> id
        self.hits = 0
        self.misses = 0

    def begin(self, ftype: int) -> None:
        self.out.append(VERSION)
        self.out.append(ftype)

    # primitive writers

    def u(self, value: int) -> None:
        _write_uvarint(self.out, value)

    def z(self, value: int) -> None:
        _write_uvarint(self.out, _zigzag(value))

    def f64(self, value: float) -> None:
        self.out += _DOUBLE.pack(value)

    def _utf8(self, s: str) -> None:
        raw = s.encode("utf-8")
        _write_uvarint(self.out, len(raw))
        self.out += raw

    def string(self, s: str) -> None:
        """A string in symbol position: a ref to the vocabulary or to an
        earlier definition in this frame, else defined here."""
        out = self.out
        sid = _VOCAB_IDS.get(s)
        if sid is None:
            sid = self.ids.get(s)
        if sid is not None:
            self.hits += 1
            out.append(_T_SYMREF)
            if sid < 0x80:
                out.append(sid)
            else:
                _write_uvarint(out, sid)
            return
        self.misses += 1
        if len(s) > _SYMBOL_MAX_LEN:
            out.append(_T_STR)
        else:
            self.ids[s] = len(VOCABULARY) + len(self.ids)
            out.append(_T_SYMDEF)
        self._utf8(s)

    def value(self, v: Any) -> None:
        # Exact types first, with the zigzag/varint work inline: these are
        # nearly every value a frame carries.  Subclasses and rarer types
        # take _value_other; the bytes are the same either way.
        out = self.out
        t = type(v)
        if t is int:
            out.append(_T_INT)
            if -_ZIGZAG_LIMIT < v < _ZIGZAG_LIMIT:
                z = (v << 1) ^ (v >> 63)
                while z >= 0x80:
                    out.append((z & 0x7F) | 0x80)
                    z >>= 7
                out.append(z)
            else:
                _write_uvarint(out, _zigzag(v))
        elif t is str:
            self.string(v)
        elif t is list or t is tuple:
            out.append(_T_LIST if t is list else _T_TUPLE)
            n = len(v)
            if n < 0x80:
                out.append(n)
            else:
                _write_uvarint(out, n)
            value = self.value
            for item in v:
                value(item)
        elif t is dict:
            out.append(_T_DICT)
            n = len(v)
            if n < 0x80:
                out.append(n)
            else:
                _write_uvarint(out, n)
            value = self.value
            for key, val in v.items():
                value(key)
                value(val)
        elif v is None:
            out.append(_T_NONE)
        elif t is bool:
            out.append(_T_TRUE if v else _T_FALSE)
        elif t is float:
            out.append(_T_FLOAT)
            out += _DOUBLE.pack(v)
        else:
            self._value_other(v)

    def _value_other(self, v: Any) -> None:
        out = self.out
        if isinstance(v, int):
            out.append(_T_INT)
            self.z(v)
        elif isinstance(v, float):
            out.append(_T_FLOAT)
            self.f64(v)
        elif isinstance(v, str):
            self.string(v)
        elif isinstance(v, (bytes, bytearray)):
            out.append(_T_BYTES)
            self.u(len(v))
            out += v
        elif isinstance(v, Encoded):
            out.append(_T_FRAME)
            self.u(len(v.data))
            out += v.data
        elif isinstance(v, list):
            self.value(list(v))
        elif isinstance(v, tuple):
            self.value(tuple(v))
        elif isinstance(v, dict):
            self.value(dict(v))
        else:
            name = _EXT_BY_TYPE.get(type(v))
            if name is None:
                raise CodecError(
                    f"cannot encode {type(v).__name__!r} payload for the wire: "
                    f"register a codec extension or send plain values ({v!r:.120})"
                )
            cls, pack, _unpack = _EXTENSIONS[name]
            out.append(_T_EXT)
            self.string(name)
            self.value(pack(v))


# -- frame decoder ------------------------------------------------------------


class _FrameDecoder:
    __slots__ = ("data", "pos", "symbols")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.symbols = list(VOCABULARY)   # grows by this frame's SYMDEFs

    def u(self) -> int:
        value, self.pos = _read_uvarint(self.data, self.pos)
        return value

    def f64(self) -> float:
        end = self.pos + 8
        if end > len(self.data):
            raise CodecError("truncated double")
        value = _DOUBLE.unpack_from(self.data, self.pos)[0]
        self.pos = end
        return value

    def raw(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError("truncated frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def _utf8(self) -> str:
        return self.raw(self.u()).decode("utf-8")

    def string(self) -> str:
        value = self.value()
        if not isinstance(value, str):
            raise CodecError(f"expected a string, decoded {type(value).__name__}")
        return value

    def value(self) -> Any:
        # The common tags first, with single-byte lengths and symbol refs
        # and every int's varint read inline; the rest take _value_other.
        data = self.data
        pos = self.pos
        end = len(data)
        if pos >= end:
            raise CodecError("truncated frame")
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            result = shift = 0
            while True:
                if pos >= end:
                    raise CodecError("truncated varint")
                byte = data[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            self.pos = pos
            return (result >> 1) ^ -(result & 1)
        if tag == _T_SYMREF:
            if pos < end and data[pos] < 0x80:
                sid = data[pos]
                self.pos = pos + 1
            else:
                self.pos = pos
                sid = self.u()
            if sid < len(self.symbols):
                return self.symbols[sid]
            raise CodecError(f"symbol id {sid} is not defined earlier in the frame")
        if tag == _T_LIST or tag == _T_TUPLE or tag == _T_DICT:
            if pos < end and data[pos] < 0x80:
                n = data[pos]
                self.pos = pos + 1
            else:
                self.pos = pos
                n = self.u()
            value = self.value
            if tag == _T_LIST:
                return [value() for _ in range(n)]
            if tag == _T_TUPLE:
                return tuple([value() for _ in range(n)])
            return {value(): value() for _ in range(n)}
        self.pos = pos
        return self._value_other(tag)

    def _value_other(self, tag: int) -> Any:
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_FLOAT:
            return self.f64()
        if tag == _T_STR:
            return self._utf8()
        if tag == _T_BYTES:
            return self.raw(self.u())
        if tag == _T_SYMDEF:
            s = self._utf8()
            self.symbols.append(s)
            return s
        if tag == _T_FRAME:
            return _decode_frame(self.raw(self.u()))
        if tag == _T_EXT:
            name = self.string()
            entry = _EXTENSIONS.get(name)
            if entry is None:
                raise CodecError(f"unknown codec extension {name!r}")
            _cls, _pack, unpack = entry
            return unpack(self.value())
        raise CodecError(f"unknown value tag 0x{tag:02x}")


# -- the row coder: relay frames (the hot path) -------------------------------


def _write_run(fe: _FrameEncoder, rows: list, with_seq: bool) -> None:
    """Write ``(seq, ref, state, stamp)`` rows (``(ref, state, stamp)``
    without ``with_seq``) as a run: a count, then per row an optional
    zigzag seq delta, a zigzag ref delta, a flags byte (state code |
    ``_HAS_STAMP``) and a stamp: a uvarint epoch, then a zigzag delta from
    the row's own seq (an outbox stamp's is 0), else the previous stamp's."""
    out = fe.out
    _write_uvarint(out, len(rows))
    prev_seq = prev_ref = base = 0
    for row in rows:
        if with_seq:
            seq, ref, state, stamp = row
            _write_uvarint(out, _zigzag(seq - prev_seq))
            prev_seq = base = seq
        else:
            ref, state, stamp = row
        _write_uvarint(out, _zigzag(ref - prev_ref))
        prev_ref = ref
        if stamp is None:
            out.append(_STATE_CODES[state])
        else:
            out.append(_STATE_CODES[state] | _HAS_STAMP)
            _write_uvarint(out, stamp[0])
            _write_uvarint(out, _zigzag(stamp[1] - base))
            base = stamp[1]


def _read_run(fd: _FrameDecoder, with_seq: bool) -> list[list]:
    """Read a run back as ``[seq, ref, state, stamp]`` lists (``[ref, state,
    stamp]`` without ``with_seq``), each stamp ``[epoch, seq]`` or None."""
    data = fd.data
    n, pos = _read_uvarint(data, fd.pos)
    rows = []
    seq = ref = base = 0
    for _ in range(n):
        if with_seq:
            z, pos = _read_uvarint(data, pos)
            seq += (z >> 1) ^ -(z & 1)
            base = seq
        z, pos = _read_uvarint(data, pos)
        ref += (z >> 1) ^ -(z & 1)
        flags = data[pos] if pos < len(data) else -1
        pos += 1
        state = _STATE_NAMES.get(flags & ~_HAS_STAMP)
        if state is None:
            raise CodecError(f"bad or missing row flags at byte {pos - 1}")
        stamp = None
        if flags & _HAS_STAMP:
            epoch, pos = _read_uvarint(data, pos)
            z, pos = _read_uvarint(data, pos)
            base += (z >> 1) ^ -(z & 1)
            stamp = [epoch, base]
        rows.append([seq, ref, state, stamp] if with_seq else [ref, state, stamp])
    fd.pos = pos
    return rows


def _fits_rows(rows: Any, width: int) -> bool:
    """Whether ``rows`` are ``[seq, ref, state, stamp]`` (width 4) or
    ``[ref, state, stamp]`` lists that a run decodes back to exactly:
    exact ints, seqs not negative, a known state, and as the stamp None
    or an ``[epoch, seq]`` list of non-negative ints."""
    return type(rows) is list and all(
        type(row) is list and len(row) == width
        and (width == 3 or type(row[0]) is int and row[0] >= 0)
        and type(row[-3]) is int
        and type(row[-2]) is str and row[-2] in _STATE_CODES
        and (row[-1] is None or type(row[-1]) is list and len(row[-1]) == 2
             and type(row[-1][0]) is type(row[-1][1]) is int and min(row[-1]) >= 0)
        for row in rows
    )


def _relay_frame(kind: str, payload: Any) -> int:
    """The relay frame ``payload`` fits exactly — an ``outbox-deliver``
    request, its ``{"acked"}`` reply or a ``{"epoch", "items"}`` tail-sync
    reply — else 0: anything else (extra keys, kwargs, tuple stamps,
    negative seqs, unknown states, non-int parts) keeps its generic frame."""
    if type(payload) is not dict or type(payload.get("id")) is not int or payload["id"] < 0:
        return 0
    args, value = payload.get("args"), payload.get("value")
    if kind == "rpc-request":
        return F_DELIVER if (
            payload.keys() == {"id", "method", "args", "kwargs"}
            and payload["method"] == "outbox-deliver" and payload["kwargs"] == {}
            and isinstance(args, (tuple, list)) and len(args) == 2
            and isinstance(args[0], str) and _fits_rows(args[1], 4)
        ) else 0
    if kind != "rpc-reply" or payload.keys() != {"id", "value"} or type(value) is not dict:
        return 0
    if value.keys() == {"acked"} and type(value["acked"]) is list:
        return F_ACKED if all(type(s) is int and s >= 0 for s in value["acked"]) else 0
    if value.keys() == {"epoch", "items"} and type(value["epoch"]) is int:
        return F_TAIL_REPLY if value["epoch"] >= 0 and _fits_rows(value["items"], 3) else 0
    return 0


def _encode_items_section(fe: _FrameEncoder, items: list[dict]) -> None:
    """Write the items section: a count, then each item's kind and
    payload in order."""
    fe.u(len(items))
    for item in items:
        fe.string(item["kind"])
        fe.value(item["payload"])


def _decode_items_section(fd: _FrameDecoder) -> list[dict]:
    items: list[dict] = []
    for _ in range(fd.u()):
        kind = fd.string()
        items.append({"kind": kind, "payload": fd.value()})
    return items


# -- typed frame writers ------------------------------------------------------


def _hb_shape(payload: Any) -> bool:
    """Whether ``payload`` is a heartbeat stamp ``{"horizon", "epoch"}``
    the heartbeat frame carries exactly."""
    return (
        isinstance(payload, dict)
        and payload.keys() == {"horizon", "epoch"}
        and type(payload["epoch"]) is int
        and payload["epoch"] >= 0
        and type(payload["horizon"]) in (int, float)
    )


def _write_hb_stamp(out: bytearray, body: dict) -> None:
    out += _DOUBLE.pack(float(body["horizon"]))
    _write_uvarint(out, body["epoch"])


def _read_hb_stamp(fd: _FrameDecoder) -> dict:
    return {"horizon": fd.f64(), "epoch": fd.u()}


def _batch_shape(payload: Any) -> bool:
    if not isinstance(payload, dict) or not set(payload) <= {"items", "hb"}:
        return False
    items = payload.get("items")
    if not isinstance(items, list) or not all(
        isinstance(i, dict) and set(i) == {"kind", "payload"} and isinstance(i["kind"], str)
        for i in items
    ):
        return False
    hb = payload.get("hb")
    return hb is None or _hb_shape(hb)


def _seq_list(fd: _FrameDecoder) -> list[int]:
    data = fd.data
    n, pos = _read_uvarint(data, fd.pos)
    seqs = []
    prev = 0
    for _ in range(n):
        z, pos = _read_uvarint(data, pos)
        prev += (z >> 1) ^ -(z & 1)
        seqs.append(prev)
    fd.pos = pos
    return seqs


def _write_seq_list(fe: _FrameEncoder, seqs: list[int]) -> None:
    out = fe.out
    _write_uvarint(out, len(seqs))
    prev = 0
    for seq in seqs:
        _write_uvarint(out, _zigzag(seq - prev))
        prev = seq


def _decode_frame(data: bytes) -> Any:
    """Decode one self-contained frame; returns the payload object the
    sender encoded.  Bytes left over after the frame are an error."""
    fd = _FrameDecoder(data)
    payload = _read_frame(fd)
    if fd.pos != len(data):
        raise CodecError(f"{len(data) - fd.pos} bytes left over after the frame")
    return payload


def _read_frame(fd: _FrameDecoder) -> Any:
    version = fd.raw(1)[0]
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    ftype = fd.raw(1)[0]
    if ftype == F_GENERIC:
        return fd.value()
    if ftype == F_BATCH:
        flags = fd.raw(1)[0]
        hb = _read_hb_stamp(fd) if flags & 0x01 else None
        payload: dict[str, Any] = {"items": _decode_items_section(fd)}
        if hb is not None:
            payload["hb"] = hb
        return payload
    if ftype == F_HEARTBEAT:
        return _read_hb_stamp(fd)
    if ftype == F_RPC_REQUEST:
        call_id = fd.u()
        method = fd.string()
        args = fd.value()
        kwargs = fd.value()
        return {"id": call_id, "method": method, "args": args, "kwargs": kwargs}
    if ftype == F_RPC_REPLY:
        call_id = fd.u()
        flags = fd.raw(1)[0]
        reply: dict[str, Any] = {"id": call_id}
        if flags & 0x01:
            reply["value"] = fd.value()
        if flags & 0x02:
            reply["error"] = fd.string()
        return reply
    if ftype in (F_DELIVER, F_ACKED, F_TAIL_REPLY):
        call_id = fd.u()
        if ftype == F_DELIVER:
            args = (fd.string(), _read_run(fd, True))
            return {"id": call_id, "method": "outbox-deliver", "args": args, "kwargs": {}}
        if ftype == F_ACKED:
            return {"id": call_id, "value": {"acked": _seq_list(fd)}}
        return {"id": call_id, "value": {"epoch": fd.u(), "items": _read_run(fd, False)}}
    raise CodecError(f"unknown frame type 0x{ftype:02x}")


# -- the codec ----------------------------------------------------------------


class ItemsSection:
    """A batch's items, encoded once, waiting for :meth:`WireCodec.wrap_batch`
    to put the heartbeat stamp in front of them.  The section defines
    its own symbols, so the BATCH frame around it is self-contained."""

    __slots__ = ("section", "intern_hits", "intern_misses")

    def __init__(self, section: bytes, hits: int, misses: int):
        self.section = section
        self.intern_hits = hits
        self.intern_misses = misses


class WireCodec:
    """Marshals payloads into self-contained frames and back.

    Holds counters only: no per-link or per-boot state.  Un-encodable
    payloads are a loud :class:`CodecError` at send time.
    """

    def __init__(self):
        self.stats = CodecStats()

    # -- encode ---------------------------------------------------------------

    def encode(self, kind: str, payload: Any) -> Encoded:
        """Encode one payload into a typed (or generic) frame."""
        fe = _FrameEncoder()
        typed = self._write_typed(fe, kind, payload)
        data = bytes(fe.out)
        self.stats.frames_encoded += 1
        self.stats.encoded_bytes += len(data)
        if typed:
            self.stats.typed_frames += 1
        else:
            self.stats.generic_frames += 1
        self.stats.intern_hits += fe.hits
        self.stats.intern_misses += fe.misses
        return Encoded(data, intern_hits=fe.hits, intern_misses=fe.misses)

    def _write_typed(self, fe: _FrameEncoder, kind: str, payload: Any) -> bool:
        """Write ``payload`` under the best-matching frame type; returns
        whether a typed (non-generic) frame was used."""
        if kind == "wire-batch" and _batch_shape(payload):
            fe.begin(F_BATCH)
            hb = payload.get("hb")
            fe.out.append(0x01 if hb is not None else 0x00)
            if hb is not None:
                _write_hb_stamp(fe.out, hb)
            _encode_items_section(fe, payload["items"])
            return True
        if kind == "heartbeat" and _hb_shape(payload):
            fe.begin(F_HEARTBEAT)
            _write_hb_stamp(fe.out, payload)
            return True
        relay = _relay_frame(kind, payload) if kind[:4] == "rpc-" else 0
        if relay:
            fe.begin(relay)
            fe.u(payload["id"])
            if relay == F_DELIVER:
                fe.string(payload["args"][0])
                _write_run(fe, payload["args"][1], True)
            elif relay == F_ACKED:
                _write_seq_list(fe, payload["value"]["acked"])
            else:
                fe.u(payload["value"]["epoch"])
                _write_run(fe, payload["value"]["items"], False)
            return True
        if (
            kind == "rpc-request"
            and isinstance(payload, dict)
            and set(payload) == {"id", "method", "args", "kwargs"}
            and isinstance(payload["id"], int)
            and payload["id"] >= 0
            and isinstance(payload["method"], str)
            and isinstance(payload["args"], (tuple, list))
            and isinstance(payload["kwargs"], dict)
        ):
            fe.begin(F_RPC_REQUEST)
            fe.u(payload["id"])
            fe.string(payload["method"])
            fe.value(tuple(payload["args"]))
            fe.value(payload["kwargs"])
            return True
        if (
            kind == "rpc-reply"
            and isinstance(payload, dict)
            and {"id"} <= set(payload) <= {"id", "value", "error"}
            and isinstance(payload["id"], int)
            and payload["id"] >= 0
            and isinstance(payload.get("error", ""), str)
        ):
            fe.begin(F_RPC_REPLY)
            fe.u(payload["id"])
            fe.out.append(("value" in payload) | ("error" in payload) << 1)
            if "value" in payload:
                fe.value(payload["value"])
            if "error" in payload:
                fe.string(payload["error"])
            return True
        fe.begin(F_GENERIC)
        fe.value(payload)
        return False

    def encode_items(self, items: list[dict]) -> ItemsSection:
        """Encode a batch's items (the body of its BATCH frame)."""
        fe = _FrameEncoder()
        _encode_items_section(fe, items)
        self.stats.intern_hits += fe.hits
        self.stats.intern_misses += fe.misses
        return ItemsSection(bytes(fe.out), fe.hits, fe.misses)

    def wrap_batch(self, section: ItemsSection, hb: Optional[dict]) -> Encoded:
        """Wrap an encoded items section into the on-wire BATCH envelope."""
        out = bytearray([VERSION, F_BATCH])
        out.append(0x01 if hb is not None else 0x00)
        if hb is not None:
            _write_hb_stamp(out, hb)
        out += section.section
        self.stats.frames_encoded += 1
        self.stats.encoded_bytes += len(out)
        self.stats.typed_frames += 1
        return Encoded(
            bytes(out),
            intern_hits=section.intern_hits,
            intern_misses=section.intern_misses,
        )

    # -- decode ---------------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        """Decode one frame; raises :class:`CodecError` (and counts) on
        anything unverifiable."""
        try:
            payload = _decode_frame(data)
        except CodecError:
            self.stats.decode_errors += 1
            raise
        self.stats.frames_decoded += 1
        return payload
