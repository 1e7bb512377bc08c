"""Request/reply RPC over the simulated network.

The dissertation's services communicate by RPC (section 6.2).  The
journal relay's outbox deliveries and tail-sync calls (every subscribe
and every recovery re-read) are RPCs.  An :class:`RpcEndpoint` owns a
network node, exposes named
methods, and issues calls that complete a :class:`RpcFuture` when the
reply arrives, the call times out, or the link to the peer goes down.

Timeouts are driven by the simulator, so an experiment can measure how long
an operation takes under given network conditions.

Semantics
---------

The network below is a lossy datagram fabric.  A call sends its request
once; it ends in exactly one of:

* the **reply** — a remote exception or an unknown method completes the
  future failed, with the remote error text;
* a **timeout** on the simulator clock;
* **link down** — a link-down notification between the two endpoints
  fails every call in flight to that peer, and a call toward a peer whose
  link this endpoint has observed down (a link-down notification not yet
  followed by a link-up) fails at once, without a send.

There is no retry and no reply cache: a caller that needs a request to
land owns its retry.  The journal relay, the one such caller, parks an
undelivered batch in its dead-letter queue and redelivers it on backoff,
and sends a failed tail-sync call again one period after it went.  A
network duplicate can run a handler twice for one call, so handlers
must be idempotent; the relay's are (its receiver dedups by ``(issuer,
outbox seq)``, and tail-sync adds the caller to a subscriber set and
reads).

The caller's identity is the channel's, never a claim in the message: a
handler receives the calling node's address as its first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError, OasisError
from repro.runtime.network import Message, Network

# handler(caller_address, *args, **kwargs)
RpcHandler = Callable[..., Any]


class RpcError(OasisError):
    """An RPC failed: remote exception, timeout, link down or unknown
    method.

    ``dest`` and ``method`` identify the failed exchange when the error
    came from the client-side call machinery (they are ``None`` for
    errors raised locally, e.g. ``result()`` before completion).
    """

    def __init__(
        self,
        message: str,
        dest: Optional[str] = None,
        method: Optional[str] = None,
    ):
        super().__init__(message)
        self.dest = dest
        self.method = method


# Default virtual-seconds bound on any call: a reply lost to link loss or
# a partition must never leave its _PendingCall in the endpoint forever.
DEFAULT_TIMEOUT = 60.0

_UNSET: Any = object()


@dataclass
class RpcStats:
    calls: int = 0
    requests_sent: int = 0
    timeouts: int = 0
    failures: int = 0
    executions: int = 0
    link_down_fast_fails: int = 0    # calls failed toward a down link, unsent
    # Always 0: the endpoint neither retries nor caches replies.  Kept
    # because benchmarks/request/layers.py reads both from every relay.
    retries: int = 0
    duplicates_suppressed: int = 0


@dataclass
class _PendingCall:
    future: "RpcFuture"
    dest: str
    method: str
    timeout_handle: Any = None


class RpcFuture:
    """Completion handle for an outstanding RPC.

    Callbacks added with :meth:`on_done` fire when the reply (or timeout)
    arrives.  ``result()`` raises :class:`RpcError` for failed calls.
    """

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: Optional[str] = None
        self._error_context: tuple[Optional[str], Optional[str]] = (None, None)
        self._callbacks: list[Callable[["RpcFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        return self._done and self._error is not None

    def result(self) -> Any:
        if not self._done:
            raise RpcError("RPC not yet complete")
        if self._error is not None:
            dest, method = self._error_context
            raise RpcError(self._error, dest=dest, method=method)
        return self._value

    def on_done(self, callback: Callable[["RpcFuture"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _complete(
        self,
        value: Any = None,
        error: Optional[str] = None,
        dest: Optional[str] = None,
        method: Optional[str] = None,
    ) -> None:
        if self._done:
            return
        self._done = True
        self._value = value
        self._error = error
        self._error_context = (dest, method)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class RpcEndpoint:
    """A network endpoint speaking a simple request/reply protocol.

    >>> from repro.runtime.simulator import Simulator
    >>> sim = Simulator()
    >>> net = Network(sim)
    >>> server = RpcEndpoint(net, "server")
    >>> server.register("add", lambda caller, a, b: a + b)
    >>> client = RpcEndpoint(net, "client")
    >>> future = client.call("server", "add", 2, 3)
    >>> _ = sim.run()
    >>> future.result()
    5
    """

    def __init__(
        self,
        network: Network,
        address: str,
        default_timeout: Optional[float] = DEFAULT_TIMEOUT,
    ):
        self.network = network
        self.address = address
        self.default_timeout = default_timeout
        self.stats = RpcStats()
        # Peers whose link this endpoint has observed down and not yet
        # seen restored; calls toward them fail without a send.
        self._down_links: set[str] = set()
        self._methods: dict[str, RpcHandler] = {}
        self._pending: dict[int, _PendingCall] = {}
        self._call_seq = 0
        network.add_node(address, self._on_message)
        network.on_link_down(self._on_link_down)
        network.on_link_up(self._on_link_up)

    # -- server side ---------------------------------------------------------

    def register(self, method: str, handler: RpcHandler) -> None:
        """Expose ``handler`` as RPC method ``method``.  It is called as
        ``handler(caller_address, *args, **kwargs)``."""
        self._methods[method] = handler

    # -- client side ---------------------------------------------------------

    def call(
        self,
        dest: str,
        method: str,
        *args: Any,
        timeout: Optional[float] = _UNSET,
        **kwargs: Any,
    ) -> RpcFuture:
        """Invoke ``method`` on the endpoint at ``dest``, sending the
        request once.

        Unless a ``timeout`` is given, the endpoint's ``default_timeout``
        applies; pass ``timeout=None`` explicitly to wait forever (the
        call still fails if the network reports the link down).
        """
        self._call_seq += 1
        call_id = self._call_seq
        future = RpcFuture()
        pending = _PendingCall(future=future, dest=dest, method=method)
        self._pending[call_id] = pending
        self.stats.calls += 1
        if dest in self._down_links:
            # the link is known dead: sending would only wait out the
            # timeout
            self.stats.link_down_fast_fails += 1
            self._resolve(call_id, error=f"link down: {self.address} <-> {dest}")
            return future
        if timeout is _UNSET:
            timeout = self.default_timeout
        self.stats.requests_sent += 1
        if timeout is not None:
            pending.timeout_handle = self.network.simulator.schedule(
                timeout, self._on_timeout, call_id, name="rpc:timeout"
            )
        body = {"id": call_id, "method": method, "args": args, "kwargs": kwargs}
        try:
            self.network.send(self.address, dest, "rpc-request", body)
        except NetworkError as exc:
            self._resolve(call_id, error=str(exc))
        return future

    # -- internals -----------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if message.kind == "rpc-request":
            self._serve(message)
        elif message.kind == "rpc-reply":
            body = message.payload
            self._resolve(body["id"], value=body.get("value"), error=body.get("error"))

    def _serve(self, message: Message) -> None:
        body = message.payload
        handler = self._methods.get(body["method"])
        reply: dict[str, Any] = {"id": body["id"]}
        if handler is None:
            reply["error"] = f"unknown method {body['method']!r}"
        else:
            try:
                self.stats.executions += 1
                reply["value"] = handler(message.source, *body["args"], **body["kwargs"])
            except Exception as exc:  # surfaced to the caller, not swallowed
                reply["error"] = f"{type(exc).__name__}: {exc}"
        self.network.send(self.address, message.source, "rpc-reply", reply)

    def _resolve(self, call_id: int, value: Any = None, error: Optional[str] = None) -> None:
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return  # duplicate reply or reply after timeout
        if pending.timeout_handle is not None:
            self.network.simulator.cancel(pending.timeout_handle)
            pending.timeout_handle = None
        if error is not None:
            self.stats.failures += 1
            error = f"{error} ({pending.method!r} at {pending.dest!r})"
        pending.future._complete(
            value=value, error=error, dest=pending.dest, method=pending.method
        )

    def _on_timeout(self, call_id: int) -> None:
        pending = self._pending.get(call_id)
        if pending is None:
            # Stale timer: the call already resolved.  Counting it would
            # skew chaos-soak statistics with timeouts that never happened.
            return
        # this firing consumed the handle; don't cancel a dead event
        pending.timeout_handle = None
        self.stats.timeouts += 1
        self._resolve(call_id, error="timeout")

    def _on_link_down(self, source: str, dest: str) -> None:
        # Either direction dying dooms the calls in flight: the request
        # cannot reach the server, or its reply cannot come back.  Fail
        # them now rather than making the caller wait out the timeout.
        if self.address == source:
            broken = dest
        elif self.address == dest:
            broken = source
        else:
            return
        self._down_links.add(broken)
        affected = [
            call_id
            for call_id, pending in self._pending.items()
            if pending.dest == broken
        ]
        for call_id in affected:
            self._resolve(call_id, error=f"link down: {self.address} <-> {broken}")

    def _on_link_up(self, source: str, dest: str) -> None:
        # Either direction restoring is enough to try sending again: if
        # the other direction is still down, the call times out (or the
        # next link-down notification re-marks the peer).
        if self.address == source:
            self._down_links.discard(dest)
        elif self.address == dest:
            self._down_links.discard(source)
