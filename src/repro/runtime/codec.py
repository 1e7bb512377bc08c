"""Compact binary wire codec with per-link symbol interning and
delta-encoded cascade batches.

Until this layer existed, every payload on the simulated wire was a live
Python object and byte accounting fell back to ``len(repr(payload))`` —
an estimate that drifted with dataclass repr churn.  This module is the
published language's substrate (ROADMAP item 1): a versioned,
self-describing binary encoding that every :meth:`Network.send` routes
through, so ``bytes_sent`` is the length of real encoded frames and the
wire-volume numbers behind the batching/sharding PRs are measurements.

Three layers:

* **value encoding** — schema-tagged primitives: varint ints (zigzag for
  signed), 8-byte doubles, length-prefixed UTF-8 strings and bytes,
  counted lists/tuples/dicts, plus an extension registry for frozen
  dataclasses that legitimately cross the wire (events).  Anything else
  raises a loud :class:`~repro.errors.CodecError` instead of silently
  costing its repr length.

* **typed frames** — the wire's recurring payload shapes (wire batches,
  the four heartbeat-protocol bodies, RPC request/reply/event) get
  dedicated frame types with field-level encodings; unrecognised shapes
  ride a self-describing GENERIC frame.  Cascade batches get **delta
  encoding**: a run of ``modified`` items for one issuer becomes the
  issuer symbol once, then (zigzag ref-delta, state-enum, stamp-delta)
  tuples — about five bytes per revoked record instead of a repr'd dict.

* **per-link symbol interning** — principal names, role names, issuer
  names, kinds, fids and custode ids are sent once per directed link
  (``SYMDEF id "Login"``) and referenced by small varint ids thereafter
  (``SYMREF id``).  A symbol only graduates from *pending* to
  *established* (eligible for bare refs in later frames) on links whose
  frames are **retained for retransmission** (a heartbeat-attached
  batch channel): there a lost definition frame is re-delivered in
  sequence order by the nack machinery, so a dangling ref is always
  transient.  On fire-and-forget links every frame re-defines the
  symbols it uses — self-contained, loss-proof, and still cheap because
  repeats *within* a frame use refs.

Epoch discipline (the renegotiation rule): every frame header carries
the sender's **boot epoch** (via :meth:`WireCodec.set_epoch_source`).
The sender's intern table resets when its epoch changes, so a restarted
process re-defines symbols from scratch; the receiver's table resets
when a *newer* epoch arrives, and frames stamped with an *older* epoch
are rejected with :class:`StaleEpochError` — stale symbol ids from a
dead boot are never decoded against the new table, even when the
heartbeat layer retransmits pre-crash batches.

A frame that fails to decode (stale epoch, dangling ref, truncation) is
dropped by the network with accounting, which the heartbeat protocol
treats exactly like message loss: the sequence gap is nacked and the
retained encoded bytes are re-delivered in order.  Decode failure is
therefore *recoverable* wherever loss already was.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import CodecError

__all__ = [
    "CodecError",
    "StaleEpochError",
    "UnknownSymbolError",
    "Encoded",
    "CodecStats",
    "WireCodec",
    "register_extension",
    "coalesce_encoded",
]


class StaleEpochError(CodecError):
    """A frame stamped with a boot epoch older than the link's current
    one: its symbol ids belong to a table the sender no longer holds."""


class UnknownSymbolError(CodecError):
    """A symbol ref whose definition frame has not (yet) arrived."""


VERSION = 1

# -- frame types --------------------------------------------------------------

F_GENERIC = 0x01       # self-describing tagged value
F_BATCH = 0x02         # wire batch envelope (items + optional heartbeat)
F_ITEMS = 0x03         # standalone items frame (the retransmit form)
F_HEARTBEAT = 0x04
F_HB_PAYLOAD = 0x05
F_HB_FILLERS = 0x06
F_HB_ACK = 0x07
F_HB_NACK = 0x08
F_RPC_REQUEST = 0x09
F_RPC_REPLY = 0x0A
F_RPC_EVENT = 0x0B

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
_T_SYMDEF = 0x0A       # varint id + varint length + UTF-8 (defines + uses)
_T_SYMREF = 0x0B       # varint id
_T_EXT = 0x0C          # registered extension: name symbol + packed value
_T_FRAME = 0x0D        # nested encoded frame (varint length + raw bytes)

_STATE_CODES = {"true": 0, "false": 1, "unknown": 2}
_STATE_NAMES = {code: name for name, code in _STATE_CODES.items()}

_DOUBLE = struct.Struct(">d")


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
    return (n << 1) ^ (n >> 63) if -(2**62) < n < 2**62 else (
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
    intern_hits: int = 0       # symbols sent as bare refs
    intern_misses: int = 0     # symbols sent with their definition
    stale_epoch_rejected: int = 0
    unknown_symbol_rejected: int = 0
    decode_errors: int = 0     # all other decode failures

    def intern_hit_rate(self) -> float:
        total = self.intern_hits + self.intern_misses
        return self.intern_hits / total if total else 0.0


class Encoded:
    """An already-encoded frame, ready for :meth:`Network.send`.

    Carries the accounting the network needs: the honest encoded size
    (``len(data)``) and the intern hit/miss deltas of the encoding pass.
    """

    __slots__ = ("data", "intern_hits", "intern_misses")

    def __init__(self, data: bytes, intern_hits: int = 0, intern_misses: int = 0):
        self.data = data
        self.intern_hits = intern_hits
        self.intern_misses = intern_misses


# -- per-link state -----------------------------------------------------------


class _LinkEncoder:
    """Sender-side intern table for one directed link."""

    __slots__ = ("epoch", "next_id", "ids", "established", "reliable", "max_symbols")

    def __init__(self, max_symbols: int):
        self.epoch = 0
        self.next_id = 0
        self.ids: dict[str, int] = {}
        self.established: set[int] = set()
        self.reliable = False
        self.max_symbols = max_symbols

    def refresh_epoch(self, epoch: int) -> None:
        """A new boot epoch abandons the old table: the receiver will
        reject stale ids, so every symbol renegotiates from scratch."""
        if epoch != self.epoch:
            self.epoch = epoch
            self.next_id = 0
            self.ids.clear()
            self.established.clear()


class _LinkDecoder:
    """Receiver-side intern table for one directed link."""

    __slots__ = ("epoch", "symbols")

    def __init__(self):
        self.epoch = 0
        self.symbols: dict[int, str] = {}

    def begin_frame(self, epoch: int) -> None:
        if epoch < self.epoch:
            raise StaleEpochError(
                f"frame from boot epoch {epoch} rejected: link is at epoch "
                f"{self.epoch} and the old symbol table is gone"
            )
        if epoch > self.epoch:
            self.epoch = epoch
            self.symbols.clear()


# -- frame encoder ------------------------------------------------------------


class _FrameEncoder:
    __slots__ = ("out", "link", "frame_defs", "hits", "misses", "intern_max_len")

    def __init__(self, link: _LinkEncoder, intern_max_len: int):
        self.out = bytearray()
        self.link = link
        self.frame_defs: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.intern_max_len = intern_max_len

    def begin(self, ftype: int) -> None:
        self.out.append(VERSION)
        self.out.append(ftype)
        _write_uvarint(self.out, self.link.epoch)

    def finish(self) -> bytes:
        # Establishment rule: only retained-for-retransmission links may
        # rely on a definition having arrived; everywhere else the next
        # frame re-defines (self-contained, loss-proof).
        if self.link.reliable and self.frame_defs:
            self.link.established |= self.frame_defs
        return bytes(self.out)

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
        """A string in symbol position: interned through the link table."""
        link = self.link
        sid = link.ids.get(s)
        if sid is None:
            if len(link.ids) >= link.max_symbols or len(s) > self.intern_max_len:
                # table full or string too long to be a symbol: plain text
                self.misses += 1
                self.out.append(_T_STR)
                self._utf8(s)
                return
            sid = link.next_id
            link.next_id += 1
            link.ids[s] = sid
            self.frame_defs.add(sid)
            self.misses += 1
            self.out.append(_T_SYMDEF)
            self.u(sid)
            self._utf8(s)
        elif sid in link.established or sid in self.frame_defs:
            self.hits += 1
            self.out.append(_T_SYMREF)
            self.u(sid)
        else:
            # known id, but its definition is not yet safe to assume
            # delivered: renegotiate by re-defining under the same id
            self.frame_defs.add(sid)
            self.misses += 1
            self.out.append(_T_SYMDEF)
            self.u(sid)
            self._utf8(s)

    def value(self, v: Any) -> None:
        out = self.out
        if v is None:
            out.append(_T_NONE)
        elif v is True:
            out.append(_T_TRUE)
        elif v is False:
            out.append(_T_FALSE)
        elif isinstance(v, int):
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
            out.append(_T_LIST)
            self.u(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, tuple):
            out.append(_T_TUPLE)
            self.u(len(v))
            for item in v:
                self.value(item)
        elif isinstance(v, dict):
            out.append(_T_DICT)
            self.u(len(v))
            for key, val in v.items():
                self.value(key)
                self.value(val)
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
    __slots__ = ("data", "pos", "link")

    def __init__(self, data: bytes, link: _LinkDecoder):
        self.data = data
        self.pos = 0
        self.link = link

    def u(self) -> int:
        value, self.pos = _read_uvarint(self.data, self.pos)
        return value

    def z(self) -> int:
        return _unzigzag(self.u())

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
        if self.pos >= len(self.data):
            raise CodecError("truncated frame")
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return self.z()
        if tag == _T_FLOAT:
            return self.f64()
        if tag == _T_STR:
            return self._utf8()
        if tag == _T_BYTES:
            return self.raw(self.u())
        if tag == _T_SYMDEF:
            sid = self.u()
            s = self._utf8()
            self.link.symbols[sid] = s
            return s
        if tag == _T_SYMREF:
            sid = self.u()
            try:
                return self.link.symbols[sid]
            except KeyError:
                raise UnknownSymbolError(
                    f"symbol id {sid} referenced before its definition arrived "
                    f"(epoch {self.link.epoch})"
                ) from None
        if tag == _T_FRAME:
            return _decode_frame(self.raw(self.u()), self.link)
        if tag == _T_LIST:
            return [self.value() for _ in range(self.u())]
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.u()))
        if tag == _T_DICT:
            return {self.value(): self.value() for _ in range(self.u())}
        if tag == _T_EXT:
            name = self.string()
            entry = _EXTENSIONS.get(name)
            if entry is None:
                raise CodecError(f"unknown codec extension {name!r}")
            _cls, _pack, unpack = entry
            return unpack(self.value())
        raise CodecError(f"unknown value tag 0x{tag:02x}")


# -- typed item section (the cascade hot path) --------------------------------


def _modified_shape(item: dict) -> Optional[tuple]:
    """The (issuer, ref, state_code, stamp) of a well-formed modified
    item, or None if the item must ride the generic path."""
    if item.get("kind") != "modified":
        return None
    body = item.get("payload")
    if not isinstance(body, dict) or not set(body) <= {"issuer", "ref", "state", "stamp"}:
        return None
    issuer = body.get("issuer")
    ref = body.get("ref")
    state = _STATE_CODES.get(body.get("state"))
    if not isinstance(issuer, str) or not isinstance(ref, int) or state is None:
        return None
    stamp = body.get("stamp")
    if stamp is not None:
        if (
            not isinstance(stamp, (tuple, list))
            or len(stamp) != 2
            or not all(isinstance(part, int) and part >= 0 for part in stamp)
        ):
            return None
        stamp = (stamp[0], stamp[1])
    return issuer, ref, state, stamp


def _encode_items_section(fe: _FrameEncoder, items: Iterable[dict], coalesce: bool) -> int:
    """Write the shared items section: generic items in order, then
    delta-encoded per-issuer modified groups.  Returns the item count
    after encode-side coalescing."""
    others: list[dict] = []
    groups: dict[str, list[tuple[int, int, Optional[tuple]]]] = {}
    positions: dict[tuple[str, int], int] = {}
    for item in items:
        shape = _modified_shape(item)
        if shape is None:
            others.append(item)
            continue
        issuer, ref, state, stamp = shape
        run = groups.setdefault(issuer, [])
        if coalesce:
            # last-state-wins on the encoded form: the final state stays
            # at the first occurrence's position, exactly like the wire
            # layer's keyed coalescing
            key = (issuer, ref)
            index = positions.get(key)
            if index is not None:
                run[index] = (ref, state, stamp)
                continue
            positions[key] = len(run)
        run.append((ref, state, stamp))
    fe.u(len(others))
    for item in others:
        fe.string(item["kind"])
        fe.value(item["payload"])
    fe.u(len(groups))
    count = len(others)
    for issuer, run in groups.items():
        fe.string(issuer)
        fe.u(len(run))
        count += len(run)
        prev_ref = 0
        prev_seq = 0
        for ref, state, stamp in run:
            fe.z(ref - prev_ref)
            prev_ref = ref
            fe.out.append(state | (0x04 if stamp is not None else 0))
            if stamp is not None:
                fe.u(stamp[0])
                fe.z(stamp[1] - prev_seq)
                prev_seq = stamp[1]
    return count


def _decode_items_section(fd: _FrameDecoder) -> list[dict]:
    items: list[dict] = []
    for _ in range(fd.u()):
        kind = fd.string()
        items.append({"kind": kind, "payload": fd.value()})
    for _ in range(fd.u()):
        issuer = fd.string()
        n = fd.u()
        prev_ref = 0
        prev_seq = 0
        for _ in range(n):
            prev_ref += fd.z()
            flags = fd.raw(1)[0]
            state = _STATE_NAMES.get(flags & 0x03)
            if state is None:
                raise CodecError(f"unknown record state code {flags & 0x03}")
            stamp = None
            if flags & 0x04:
                epoch = fd.u()
                prev_seq += fd.z()
                stamp = (epoch, prev_seq)
            items.append(
                {
                    "kind": "modified",
                    "payload": {
                        "issuer": issuer,
                        "ref": prev_ref,
                        "state": state,
                        "stamp": stamp,
                    },
                }
            )
    return items


# -- typed frame writers ------------------------------------------------------


def _hb_shape(payload: Any, *required: str) -> bool:
    return (
        isinstance(payload, dict)
        and set(payload) == set(required)
        and isinstance(payload.get("seq", 0), int)
        and isinstance(payload.get("epoch", 0), int)
        and isinstance(payload.get("horizon", 0.0), (int, float))
        and payload.get("seq", 0) >= 0
        and payload.get("epoch", 0) >= 0
    )


def _write_hb_stamp(fe: _FrameEncoder, body: dict) -> None:
    fe.u(body["seq"])
    fe.f64(float(body["horizon"]))
    fe.u(body["epoch"])


def _read_hb_stamp(fd: _FrameDecoder) -> dict:
    return {"seq": fd.u(), "horizon": fd.f64(), "epoch": fd.u()}


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
    return hb is None or _hb_shape(hb, "seq", "horizon", "epoch")


def _seq_list(fd: _FrameDecoder) -> list[int]:
    seqs = []
    prev = 0
    for _ in range(fd.u()):
        prev += fd.z()
        seqs.append(prev)
    return seqs


def _write_seq_list(fe: _FrameEncoder, seqs: list[int]) -> None:
    fe.u(len(seqs))
    prev = 0
    for seq in seqs:
        fe.z(seq - prev)
        prev = seq


def _decode_frame(data: bytes, link: _LinkDecoder) -> Any:
    """Decode one frame against a link's symbol table; returns the
    payload object the sender encoded."""
    fd = _FrameDecoder(data, link)
    version = fd.raw(1)[0]
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    ftype = fd.raw(1)[0]
    link.begin_frame(fd.u())
    if ftype == F_GENERIC:
        return fd.value()
    if ftype == F_BATCH:
        flags = fd.raw(1)[0]
        hb = _read_hb_stamp(fd) if flags & 0x01 else None
        payload: dict[str, Any] = {"items": _decode_items_section(fd)}
        if hb is not None:
            payload["hb"] = hb
        return payload
    if ftype == F_ITEMS:
        return {"items": _decode_items_section(fd)}
    if ftype == F_HEARTBEAT:
        return _read_hb_stamp(fd)
    if ftype == F_HB_PAYLOAD:
        body = _read_hb_stamp(fd)
        body["payload"] = fd.value()
        return body
    if ftype == F_HB_FILLERS:
        seqs = _seq_list(fd)
        return {"seqs": seqs, "horizon": fd.f64(), "epoch": fd.u()}
    if ftype == F_HB_ACK:
        return {"ack": fd.u()}
    if ftype == F_HB_NACK:
        return {"missing": _seq_list(fd)}
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
    if ftype == F_RPC_EVENT:
        return {"topic": fd.string(), "payload": fd.value()}
    raise CodecError(f"unknown frame type 0x{ftype:02x}")


# -- the codec ----------------------------------------------------------------


class ItemsSection:
    """One symbol-table pass over a batch's items, reusable as both the
    on-wire envelope body and the standalone retransmit frame.

    The batched channel encodes its items exactly once; the resulting
    section bytes are wrapped twice — into the BATCH envelope that goes
    on the wire now, and into the ITEMS frame the heartbeat sender
    retains (``frame``) so a nack retransmits real encoded bytes."""

    __slots__ = ("section", "frame", "count", "intern_hits", "intern_misses")

    def __init__(self, section: bytes, frame: Encoded, count: int, hits: int, misses: int):
        self.section = section
        self.frame = frame
        self.count = count
        self.intern_hits = hits
        self.intern_misses = misses


class WireCodec:
    """Per-network codec state: one intern table pair per directed link.

    Un-encodable payloads are a loud :class:`CodecError` at send time.
    """

    def __init__(self, max_symbols: int = 4096, intern_max_len: int = 64):
        self.max_symbols = max_symbols
        self.intern_max_len = intern_max_len
        self.stats = CodecStats()
        self._encoders: dict[tuple[str, str], _LinkEncoder] = {}
        self._decoders: dict[tuple[str, str], _LinkDecoder] = {}
        self._epoch_sources: dict[str, Callable[[], int]] = {}

    # -- link state -----------------------------------------------------------

    def set_epoch_source(self, address: str, source: Callable[[], int]) -> None:
        """Register the boot-epoch callable for frames sent *from*
        ``address``.  A change in the returned epoch resets every
        outbound intern table of that address (renegotiation)."""
        self._epoch_sources[address] = source

    def set_reliable(self, source: str, dest: str, reliable: bool = True) -> None:
        """Mark a directed link's frames as retained-for-retransmission
        (a heartbeat-attached batch channel).  Only such links may rely
        on a symbol definition having arrived and send bare refs in
        later frames."""
        self._encoder_for(source, dest).reliable = reliable

    def _encoder_for(self, source: str, dest: str) -> _LinkEncoder:
        key = (source, dest)
        enc = self._encoders.get(key)
        if enc is None:
            enc = self._encoders[key] = _LinkEncoder(self.max_symbols)
        epoch_source = self._epoch_sources.get(source)
        if epoch_source is not None:
            enc.refresh_epoch(epoch_source())
        return enc

    def _decoder_for(self, source: str, dest: str) -> _LinkDecoder:
        key = (source, dest)
        dec = self._decoders.get(key)
        if dec is None:
            dec = self._decoders[key] = _LinkDecoder()
        return dec

    def link_encoder_symbols(self, source: str, dest: str) -> dict[str, int]:
        """The sender-side intern table of a link (for tests/inspection)."""
        enc = self._encoders.get((source, dest))
        return dict(enc.ids) if enc is not None else {}

    # -- encode ---------------------------------------------------------------

    def encode(self, source: str, dest: str, kind: str, payload: Any) -> Encoded:
        """Encode one payload into a typed (or generic) frame."""
        link = self._encoder_for(source, dest)
        fe = _FrameEncoder(link, self.intern_max_len)
        typed = self._write_typed(fe, kind, payload)
        data = fe.finish()
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
                _write_hb_stamp(fe, hb)
            _encode_items_section(fe, payload["items"], coalesce=False)
            return True
        if kind == "heartbeat" and _hb_shape(payload, "seq", "horizon", "epoch"):
            fe.begin(F_HEARTBEAT)
            _write_hb_stamp(fe, payload)
            return True
        if kind == "heartbeat-payload" and _hb_shape(
            payload, "seq", "horizon", "epoch", "payload"
        ):
            fe.begin(F_HB_PAYLOAD)
            _write_hb_stamp(fe, payload)
            fe.value(payload["payload"])
            return True
        if (
            kind == "heartbeat-fillers"
            and isinstance(payload, dict)
            and set(payload) == {"seqs", "horizon", "epoch"}
            and isinstance(payload["seqs"], list)
            and all(isinstance(s, int) for s in payload["seqs"])
        ):
            fe.begin(F_HB_FILLERS)
            _write_seq_list(fe, payload["seqs"])
            fe.f64(float(payload["horizon"]))
            fe.u(payload["epoch"])
            return True
        if (
            kind == "heartbeat-ack"
            and isinstance(payload, dict)
            and set(payload) == {"ack"}
            and isinstance(payload["ack"], int)
            and payload["ack"] >= 0
        ):
            fe.begin(F_HB_ACK)
            fe.u(payload["ack"])
            return True
        if (
            kind == "heartbeat-nack"
            and isinstance(payload, dict)
            and set(payload) == {"missing"}
            and isinstance(payload["missing"], list)
            and all(isinstance(s, int) for s in payload["missing"])
        ):
            fe.begin(F_HB_NACK)
            _write_seq_list(fe, payload["missing"])
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
            flags = (0x01 if "value" in payload else 0) | (
                0x02 if "error" in payload else 0
            )
            fe.out.append(flags)
            if "value" in payload:
                fe.value(payload["value"])
            if "error" in payload:
                fe.string(payload["error"])
            return True
        if (
            kind == "rpc-event"
            and isinstance(payload, dict)
            and set(payload) == {"topic", "payload"}
            and isinstance(payload["topic"], str)
        ):
            fe.begin(F_RPC_EVENT)
            fe.string(payload["topic"])
            fe.value(payload["payload"])
            return True
        fe.begin(F_GENERIC)
        fe.value(payload)
        return False

    def encode_items(
        self, source: str, dest: str, items: list[dict], coalesce: bool = True
    ) -> ItemsSection:
        """Encode a batch's items once, for both envelope and retention.

        ``coalesce`` applies last-state-wins to modified items *on the
        encoded form* — duplicate (issuer, ref) pairs collapse to the
        final state at the first occurrence's position."""
        link = self._encoder_for(source, dest)
        fe = _FrameEncoder(link, self.intern_max_len)
        fe.begin(F_ITEMS)
        count = _encode_items_section(fe, items, coalesce=coalesce)
        data = fe.finish()
        self.stats.frames_encoded += 1
        self.stats.encoded_bytes += len(data)
        self.stats.typed_frames += 1
        self.stats.intern_hits += fe.hits
        self.stats.intern_misses += fe.misses
        header_len = 2 + len(_uvarint_bytes(link.epoch))
        return ItemsSection(
            section=data[header_len:],
            frame=Encoded(data),
            count=count,
            hits=fe.hits,
            misses=fe.misses,
        )

    def wrap_batch(
        self,
        source: str,
        dest: str,
        section: ItemsSection,
        hb: Optional[dict],
    ) -> Encoded:
        """Wrap an encoded items section into the on-wire BATCH envelope.

        Must be called in the same synchronous step as
        :meth:`encode_items` (the section's symbol definitions belong to
        this frame)."""
        link = self._encoder_for(source, dest)
        out = bytearray([VERSION, F_BATCH])
        _write_uvarint(out, link.epoch)
        out.append(0x01 if hb is not None else 0x00)
        if hb is not None:
            _write_uvarint(out, hb["seq"])
            out += _DOUBLE.pack(float(hb["horizon"]))
            _write_uvarint(out, hb["epoch"])
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

    def decode(self, source: str, dest: str, data: bytes) -> Any:
        """Decode one frame arriving on the directed link; raises
        :class:`CodecError` (and counts) on anything unverifiable."""
        link = self._decoder_for(source, dest)
        try:
            payload = _decode_frame(data, link)
        except StaleEpochError:
            self.stats.stale_epoch_rejected += 1
            raise
        except UnknownSymbolError:
            self.stats.unknown_symbol_rejected += 1
            raise
        except CodecError:
            self.stats.decode_errors += 1
            raise
        self.stats.frames_decoded += 1
        return payload


def _uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    _write_uvarint(out, value)
    return bytes(out)


# -- encoded-form coalescing --------------------------------------------------


def coalesce_encoded(data: bytes) -> bytes:
    """Last-state-wins coalescing on an encoded ITEMS/BATCH frame.

    Operates structurally on the encoded bytes — symbol definitions and
    generic items are copied through verbatim, so no symbol table is
    needed — and collapses duplicate (issuer, ref) modified entries to
    the final state at the first occurrence's position: exactly the wire
    layer's keyed coalescing, on the encoded form.  Satisfies
    ``decode(coalesce_encoded(encode(xs))) == coalesce(xs)``.
    """
    pos = 0
    if len(data) < 2:
        raise CodecError("truncated frame")
    version, ftype = data[0], data[1]
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    if ftype not in (F_ITEMS, F_BATCH):
        raise CodecError("coalesce_encoded needs an ITEMS or BATCH frame")
    pos = 2
    _epoch, pos = _read_uvarint(data, pos)
    if ftype == F_BATCH:
        if pos >= len(data):
            raise CodecError("truncated frame")
        flags = data[pos]
        pos += 1
        if flags & 0x01:
            _seq, pos = _read_uvarint(data, pos)
            pos += 8  # horizon double
            _ep, pos = _read_uvarint(data, pos)
    head = bytes(data[:pos])
    out = bytearray()
    # generic items: copy verbatim
    n_others, pos = _read_uvarint(data, pos)
    others_start = pos
    for _ in range(n_others):
        pos = _skip_value(data, pos)   # kind
        pos = _skip_value(data, pos)   # payload
    others = data[others_start:pos]
    n_groups, pos = _read_uvarint(data, pos)
    _write_uvarint(out, n_others)
    out += others
    _write_uvarint(out, n_groups)
    for _ in range(n_groups):
        issuer_start = pos
        pos = _skip_value(data, pos)
        issuer_bytes = data[issuer_start:pos]
        n, pos = _read_uvarint(data, pos)
        run: list[tuple[int, int, Optional[tuple[int, int]]]] = []
        index_of: dict[int, int] = {}
        prev_ref = 0
        prev_seq = 0
        for _ in range(n):
            delta, pos = _read_uvarint(data, pos)
            prev_ref += _unzigzag(delta)
            flags = data[pos]
            pos += 1
            stamp = None
            if flags & 0x04:
                epoch, pos = _read_uvarint(data, pos)
                zdelta, pos = _read_uvarint(data, pos)
                prev_seq += _unzigzag(zdelta)
                stamp = (epoch, prev_seq)
            entry = (prev_ref, flags & 0x03, stamp)
            index = index_of.get(prev_ref)
            if index is not None:
                run[index] = entry
            else:
                index_of[prev_ref] = len(run)
                run.append(entry)
        out += issuer_bytes
        _write_uvarint(out, len(run))
        prev_ref = 0
        prev_seq = 0
        for ref, state, stamp in run:
            _write_uvarint(out, _zigzag(ref - prev_ref))
            prev_ref = ref
            out.append(state | (0x04 if stamp is not None else 0))
            if stamp is not None:
                _write_uvarint(out, stamp[0])
                _write_uvarint(out, _zigzag(stamp[1] - prev_seq))
                prev_seq = stamp[1]
    return head + bytes(out)


def _skip_value(data: bytes, pos: int) -> int:
    """Advance past one encoded value without resolving symbols."""
    if pos >= len(data):
        raise CodecError("truncated frame")
    tag = data[pos]
    pos += 1
    if tag in (_T_NONE, _T_TRUE, _T_FALSE):
        return pos
    if tag == _T_INT:
        _, pos = _read_uvarint(data, pos)
        return pos
    if tag == _T_FLOAT:
        return pos + 8
    if tag in (_T_STR, _T_BYTES, _T_FRAME):
        n, pos = _read_uvarint(data, pos)
        return pos + n
    if tag == _T_SYMDEF:
        _, pos = _read_uvarint(data, pos)
        n, pos = _read_uvarint(data, pos)
        return pos + n
    if tag == _T_SYMREF:
        _, pos = _read_uvarint(data, pos)
        return pos
    if tag in (_T_LIST, _T_TUPLE):
        n, pos = _read_uvarint(data, pos)
        for _ in range(n):
            pos = _skip_value(data, pos)
        return pos
    if tag == _T_DICT:
        n, pos = _read_uvarint(data, pos)
        for _ in range(n):
            pos = _skip_value(data, pos)
            pos = _skip_value(data, pos)
        return pos
    if tag == _T_EXT:
        pos = _skip_value(data, pos)
        return _skip_value(data, pos)
    raise CodecError(f"unknown value tag 0x{tag:02x}")
