"""Request/response RPC over the simulated network.

The dissertation's services communicate by RPC (section 6.2; event
notification rides the journal relay and the wire channels, not this
layer).  This module provides the request/reply layer: an
:class:`RpcEndpoint` owns a network node, exposes named methods, and issues
calls that complete a :class:`RpcFuture` when the reply message arrives.

Timeouts are driven by the simulator, so an experiment can measure how long
an operation takes under given network conditions.

Reliability semantics
---------------------

The network below is a lossy datagram fabric, so the endpoint implements
*at-most-once* execution with optional retries:

* A caller may attach a :class:`RetryPolicy`; each attempt re-sends the
  request with the **same** call id and backs off exponentially with
  seeded jitter, up to the policy's attempt budget.
* The server keeps a dedup window of recently-served ``(caller, call id)``
  pairs.  A retried or network-duplicated request whose original already
  executed is answered from the cached reply instead of running the
  handler again — the handler runs at most once per logical call.
* Failures surface as :class:`RpcError` values naming the destination,
  method and attempt count, so chaos logs read usefully.

Overload resilience
-------------------

Retries amplify traffic exactly when the network is least able to carry
it, so the endpoint bounds its own offered load:

* An optional per-destination **circuit breaker** (:class:`BreakerPolicy`)
  counts consecutive transport failures (timeouts, link-down, send
  errors — never definite remote answers).  At the threshold the breaker
  *opens*: calls and retries to that destination fail fast with a
  structured ``circuit open`` :class:`RpcError` instead of burning the
  retry budget against a sick peer.  After a cooldown on the sim clock
  the breaker goes *half-open* and admits a bounded number of probe
  calls; a probe reply closes it, a probe failure re-opens it.
* A retransmission toward a link the endpoint has **observed down**
  (via the network's link-down notification, not yet seen restored)
  fails the attempt immediately rather than waiting out the full
  per-attempt timeout — the retry backoff still paces the attempts, so
  a healed link is noticed on the next try.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import NetworkError, OasisError
from repro.runtime.network import Message, Network

RpcHandler = Callable[..., Any]


class RpcError(OasisError):
    """An RPC failed: remote exception, timeout, or unknown method.

    ``dest``, ``method`` and ``attempts`` identify the failed exchange
    when the error came from the client-side call machinery (they are
    ``None``/``0`` for errors raised locally, e.g. ``result()`` before
    completion).
    """

    def __init__(
        self,
        message: str,
        dest: Optional[str] = None,
        method: Optional[str] = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.dest = dest
        self.method = method
        self.attempts = attempts


# Default virtual-seconds bound on any call: a reply lost to link loss or
# a partition must never leave its _PendingCall in the endpoint forever.
DEFAULT_TIMEOUT = 60.0

# How long the server remembers served calls for duplicate suppression
# (virtual seconds).  Must comfortably exceed any client's total retry
# horizon so a late retry never re-executes the handler.
DEFAULT_DEDUP_WINDOW = 600.0

_UNSET: Any = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry budget with exponential backoff and jitter.

    Attempt ``n`` (1-based) that fails retries after
    ``min(base_delay * multiplier**(n-1), max_delay)`` plus a uniform
    jitter fraction of that delay, until ``max_attempts`` is exhausted.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    retry_on_link_down: bool = True

    def backoff(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter > 0:
            delay += rng.uniform(0.0, self.jitter * delay)
        return delay


@dataclass
class RpcStats:
    """Counters for the retry/at-most-once machinery."""

    calls: int = 0
    requests_sent: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    executions: int = 0
    duplicates_suppressed: int = 0
    replies_resent: int = 0
    breaker_opens: int = 0           # closed/half-open -> open transitions
    breaker_closes: int = 0          # open/half-open -> closed (peer alive)
    breaker_fast_failures: int = 0   # attempts shed while the breaker was open
    breaker_probes: int = 0          # half-open probe attempts admitted
    link_down_fast_fails: int = 0    # retransmissions failed without a send


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-destination circuit breaker configuration.

    ``failure_threshold`` consecutive transport failures (timeouts,
    link-down, send errors) open the circuit; definite remote answers —
    including remote exceptions — count as success, because they prove
    the peer alive.  An open circuit fails calls fast for ``cooldown``
    virtual seconds, then admits ``half_open_probes`` probe calls; a
    probe answered closes the circuit, a probe failure re-opens it.
    """

    failure_threshold: int = 5
    cooldown: float = 1.0
    half_open_probes: int = 1


_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"


class _Breaker:
    """Breaker state for one destination (internal to the endpoint)."""

    __slots__ = ("policy", "state", "consecutive_failures", "opened_at", "probes")

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = _CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probes = 0

    def admit(self, now: float) -> tuple[bool, bool]:
        """Whether an attempt may be sent now; returns (admitted, is_probe)."""
        if self.state == _OPEN:
            if now < self.opened_at + self.policy.cooldown:
                return False, False
            self.state = _HALF_OPEN
            self.probes = 0
        if self.state == _HALF_OPEN:
            if self.probes >= self.policy.half_open_probes:
                return False, False
            self.probes += 1
            return True, True
        return True, False

    def record_success(self) -> bool:
        """A reply arrived from the peer.  Returns True if this closed an
        open/half-open circuit."""
        reopened = self.state != _CLOSED
        self.state = _CLOSED
        self.consecutive_failures = 0
        self.probes = 0
        return reopened

    def record_failure(self, now: float) -> bool:
        """A transport attempt failed.  Returns True if this opened the
        circuit."""
        self.consecutive_failures += 1
        if self.state == _HALF_OPEN or (
            self.state == _CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = _OPEN
            self.opened_at = now
            self.probes = 0
            return True
        return False


@dataclass
class _PendingCall:
    future: "RpcFuture"
    dest: str
    method: str
    body: dict
    timeout: Optional[float]
    policy: Optional[RetryPolicy]
    attempt: int = 0
    timeout_handle: Any = None
    retry_handle: Any = None
    probe: bool = False  # attempt admitted through a half-open breaker


class RpcFuture:
    """Completion handle for an outstanding RPC.

    Callbacks added with :meth:`on_done` fire when the reply (or timeout)
    arrives.  ``result()`` raises :class:`RpcError` for failed calls.
    """

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: Optional[str] = None
        self._error_context: tuple[Optional[str], Optional[str], int] = (None, None, 0)
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
            dest, method, attempts = self._error_context
            raise RpcError(self._error, dest=dest, method=method, attempts=attempts)
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
        attempts: int = 0,
    ) -> None:
        if self._done:
            return
        self._done = True
        self._value = value
        self._error = error
        self._error_context = (dest, method, attempts)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class RpcEndpoint:
    """A network endpoint speaking a simple request/reply protocol.

    >>> from repro.runtime.simulator import Simulator
    >>> sim = Simulator()
    >>> net = Network(sim)
    >>> server = RpcEndpoint(net, "server")
    >>> server.register("add", lambda a, b: a + b)
    >>> client = RpcEndpoint(net, "client")
    >>> future = client.call("server", "add", 2, 3)
    >>> sim.run()
    >>> future.result()
    5
    """

    def __init__(
        self,
        network: Network,
        address: str,
        default_timeout: Optional[float] = DEFAULT_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
        dedup_window: float = DEFAULT_DEDUP_WINDOW,
        seed: int = 0,
        breaker: Optional[BreakerPolicy] = None,
    ):
        self.network = network
        self.address = address
        self.default_timeout = default_timeout
        self.retry = retry
        self.dedup_window = dedup_window
        self.breaker = breaker
        self.stats = RpcStats()
        self._breakers: dict[str, _Breaker] = {}
        # Peers whose link this endpoint has observed down and not yet
        # seen restored; retransmissions toward them fail fast.
        self._down_links: set[str] = set()
        # str seeds hash deterministically inside random, unlike hash()
        self._rng = random.Random(f"{seed}:{address}")
        self._methods: dict[str, RpcHandler] = {}
        self._pending: dict[int, _PendingCall] = {}
        self._call_seq = 0
        # Server-side duplicate suppression: (caller, call id) -> cached
        # reply, forgotten after ``dedup_window`` virtual seconds.  The
        # reply is cached in its encoded wire form: a duplicate is
        # answered by re-sending the exact bytes of the original reply,
        # with no second marshalling pass.
        self._served: dict[tuple[str, int], Any] = {}
        self._served_order: deque[tuple[float, tuple[str, int]]] = deque()
        network.add_node(address, self._on_message)
        network.on_link_down(self._on_link_down)
        network.on_link_up(self._on_link_up)

    # -- server side ---------------------------------------------------------

    def register(self, method: str, handler: RpcHandler) -> None:
        """Expose ``handler`` as RPC method ``method``."""
        self._methods[method] = handler

    # -- client side ---------------------------------------------------------

    def call(
        self,
        dest: str,
        method: str,
        *args: Any,
        timeout: Optional[float] = _UNSET,
        retry: Optional[RetryPolicy] = _UNSET,
        **kwargs: Any,
    ) -> RpcFuture:
        """Invoke ``method`` on the endpoint at ``dest``.

        Unless a ``timeout`` is given, the endpoint's ``default_timeout``
        applies *per attempt*; pass ``timeout=None`` explicitly to wait
        forever (the call still fails fast if the network reports the
        link down).  ``retry`` overrides the endpoint's retry policy for
        this call; the default (no policy) sends exactly one attempt.
        """
        self._call_seq += 1
        call_id = self._call_seq
        future = RpcFuture()
        if timeout is _UNSET:
            timeout = self.default_timeout
        if retry is _UNSET:
            retry = self.retry
        body = {"id": call_id, "method": method, "args": args, "kwargs": kwargs}
        pending = _PendingCall(
            future=future,
            dest=dest,
            method=method,
            body=body,
            timeout=timeout,
            policy=retry,
        )
        self._pending[call_id] = pending
        self.stats.calls += 1
        self._transmit(call_id)
        return future

    def broadcast(
        self,
        dests: Iterable[str],
        method: str,
        *args: Any,
        timeout: Optional[float] = _UNSET,
        retry: Optional[RetryPolicy] = _UNSET,
        **kwargs: Any,
    ) -> dict[str, RpcFuture]:
        """Invoke ``method`` on every endpoint in ``dests`` concurrently.

        Returns ``{dest: future}``; each call retries (or fails)
        independently under the same policy, so a coordinator can drive
        a fleet-wide phase — the cross-shard settle's prepare/commit —
        with one call and then collect per-shard outcomes.
        """
        return {
            dest: self.call(dest, method, *args, timeout=timeout, retry=retry, **kwargs)
            for dest in dests
        }

    # -- internals -----------------------------------------------------------

    def _breaker_for(self, dest: str) -> Optional[_Breaker]:
        if self.breaker is None:
            return None
        breaker = self._breakers.get(dest)
        if breaker is None:
            breaker = self._breakers[dest] = _Breaker(self.breaker)
        return breaker

    def _transmit(self, call_id: int) -> None:
        """Send (or re-send) the request for ``call_id`` and arm its timeout."""
        pending = self._pending.get(call_id)
        if pending is None:
            return
        pending.retry_handle = None
        retransmission = pending.attempt > 0
        pending.attempt += 1
        if retransmission:
            self.stats.retries += 1
        breaker = self._breaker_for(pending.dest)
        if breaker is not None:
            admitted, is_probe = breaker.admit(self.network.simulator.now)
            if not admitted:
                # Fail fast instead of burning an attempt (and its timeout)
                # against a destination the breaker already knows is sick.
                self.stats.breaker_fast_failures += 1
                self._resolve(
                    call_id,
                    error=f"circuit open to {pending.dest!r}",
                    cause="breaker",
                )
                return
            pending.probe = is_probe
            if is_probe:
                self.stats.breaker_probes += 1
        if (
            retransmission
            and pending.policy is not None
            and pending.policy.retry_on_link_down
            and pending.dest in self._down_links
        ):
            # Re-sending into a link we have observed down just waits out
            # the full per-attempt timeout; fail the attempt now and let
            # the retry backoff pace the next look at the link.  Policies
            # with retry_on_link_down=False opt out: they treat link-down
            # signals as call-fatal only when one arrives mid-attempt, so
            # a pre-existing observation must not change their behaviour.
            self.stats.link_down_fast_fails += 1
            self._attempt_failed(
                call_id,
                f"link down: {self.address} <-> {pending.dest}",
                retryable=True,
            )
            return
        self.stats.requests_sent += 1
        if pending.timeout is not None:
            pending.timeout_handle = self.network.simulator.schedule(
                pending.timeout, self._on_timeout, call_id, name="rpc:timeout"
            )
        try:
            self.network.send(self.address, pending.dest, "rpc-request", pending.body)
        except NetworkError as exc:
            self._attempt_failed(call_id, str(exc))

    def _on_message(self, message: Message) -> None:
        if message.kind == "rpc-request":
            self._serve(message)
        elif message.kind == "rpc-reply":
            body = message.payload
            self._resolve(
                body["id"],
                value=body.get("value"),
                error=body.get("error"),
                cause="reply",
            )

    def _serve(self, message: Message) -> None:
        body = message.payload
        key = (message.source, body["id"])
        self._purge_served()
        cached = self._served.get(key)
        if cached is not None:
            # Retry or network duplicate of a call that already executed:
            # at-most-once means we answer from the cache, never re-run.
            self.stats.duplicates_suppressed += 1
            self.stats.replies_resent += 1
            self.network.send(self.address, message.source, "rpc-reply", cached)
            return
        handler = self._methods.get(body["method"])
        reply: dict[str, Any] = {"id": body["id"]}
        if handler is None:
            reply["error"] = f"unknown method {body['method']!r}"
        else:
            try:
                self.stats.executions += 1
                reply["value"] = handler(*body["args"], **body["kwargs"])
            except Exception as exc:  # surfaced to the caller, not swallowed
                reply["error"] = f"{type(exc).__name__}: {exc}"
        encoded = self.network.codec.encode("rpc-reply", reply)
        if self.dedup_window > 0:
            expires = self.network.simulator.now + self.dedup_window
            self._served[key] = encoded
            self._served_order.append((expires, key))
        self.network.send(self.address, message.source, "rpc-reply", encoded)

    def _purge_served(self) -> None:
        now = self.network.simulator.now
        order = self._served_order
        while order and order[0][0] <= now:
            _, key = order.popleft()
            self._served.pop(key, None)

    def _resolve(
        self,
        call_id: int,
        value: Any = None,
        error: Optional[str] = None,
        cause: str = "transport",
    ) -> None:
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return  # duplicate reply or reply after timeout
        self._disarm(pending)
        if cause == "reply":
            # Any definite answer — even a remote exception — proves the
            # peer alive, so it resets the breaker.  Transport failures
            # were already recorded per attempt; breaker fast-fails must
            # not feed back into the breaker at all.
            breaker = self._breaker_for(pending.dest)
            if breaker is not None and breaker.record_success():
                self.stats.breaker_closes += 1
        if error is not None:
            self.stats.failures += 1
            error = self._describe(error, pending)
        pending.future._complete(
            value=value,
            error=error,
            dest=pending.dest,
            method=pending.method,
            attempts=pending.attempt,
        )

    def _disarm(self, pending: _PendingCall) -> None:
        if pending.timeout_handle is not None:
            self.network.simulator.cancel(pending.timeout_handle)
            pending.timeout_handle = None
        if pending.retry_handle is not None:
            self.network.simulator.cancel(pending.retry_handle)
            pending.retry_handle = None

    def _describe(self, error: str, pending: _PendingCall) -> str:
        return (
            f"{error} ({pending.method!r} at {pending.dest!r}"
            f" after {pending.attempt} attempt(s))"
        )

    def _attempt_failed(self, call_id: int, error: str, retryable: bool = True) -> None:
        """An attempt died locally (timeout / link down / send error)."""
        pending = self._pending.get(call_id)
        if pending is None:
            return
        if pending.retry_handle is not None:
            return  # already backing off toward the next attempt
        if pending.timeout_handle is not None:
            self.network.simulator.cancel(pending.timeout_handle)
            pending.timeout_handle = None
        breaker = self._breaker_for(pending.dest)
        if breaker is not None and breaker.record_failure(self.network.simulator.now):
            self.stats.breaker_opens += 1
        policy = pending.policy
        if retryable and policy is not None and pending.attempt < policy.max_attempts:
            delay = policy.backoff(pending.attempt, self._rng)
            pending.retry_handle = self.network.simulator.schedule(
                delay, self._transmit, call_id, name="rpc:retry"
            )
            return
        self._resolve(call_id, error=error)

    def _on_timeout(self, call_id: int) -> None:
        pending = self._pending.get(call_id)
        if pending is None:
            # Stale timer: the call already resolved.  Counting it would
            # skew chaos-soak statistics with timeouts that never happened.
            return
        if pending.timeout_handle is not None:
            # This firing consumed the handle; don't cancel a dead event.
            pending.timeout_handle = None
        self.stats.timeouts += 1
        self._attempt_failed(call_id, "timeout")

    def _on_link_down(self, source: str, dest: str) -> None:
        # Either direction dying dooms the in-flight attempt: the request
        # cannot reach the server, or its reply cannot come back.  With a
        # retry policy the call backs off and tries again (the partition
        # may heal); otherwise fail it now rather than leaking it (or
        # making the caller wait out the full timeout).
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
            pending = self._pending.get(call_id)
            if pending is None:
                continue
            retryable = pending.policy is not None and pending.policy.retry_on_link_down
            self._attempt_failed(
                call_id,
                f"link down: {self.address} <-> {broken}",
                retryable=retryable,
            )

    def _on_link_up(self, source: str, dest: str) -> None:
        # Either direction restoring is enough to try sending again: if
        # the other direction is still down, the attempt times out (or the
        # next link-down notification re-marks the peer).
        if self.address == source:
            self._down_links.discard(dest)
        elif self.address == dest:
            self._down_links.discard(source)
