"""The loader service (section 3.4.1, high score table example).

"A Loader service ... will validate that a particular client identifier
represents the execution of a particular program image.  This loader is
likely to consist of two parts; one local to the client machine, that
interfaces with the operating system and certifies loading, and a central
secure service that will rule on the validity of statements made by
client loaders, based on the assumed integrity of the client host."

:class:`ClientLoader` is the per-host part; :class:`LoaderService` is the
central ruler.  The central service only accepts load reports from hosts
it trusts, and issues ``Running(program, host)`` certificates to client
processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.credentials import RecordState
from repro.core.identifiers import ClientId
from repro.core.service import OasisService
from repro.core.types import ObjectType
from repro.errors import EntryDenied


@dataclass(frozen=True)
class LoadReport:
    """A statement by a client loader: this client id runs this image."""

    host: str
    client: ClientId
    program: str
    image_digest: bytes


class ClientLoader:
    """The host-local loader: observes program loads and reports them."""

    def __init__(self, host_name: str):
        self.host_name = host_name
        self._running: dict[ClientId, tuple[str, bytes]] = {}

    def load(self, client: ClientId, program: str, image: bytes) -> LoadReport:
        """A process starts executing ``image`` under ``client``."""
        digest = hashlib.sha256(image).digest()
        self._running[client] = (program, digest)
        return LoadReport(self.host_name, client, program, digest)

    def unload(self, client: ClientId) -> None:
        self._running.pop(client, None)


class LoaderService(OasisService):
    """The central secure loader.

    Trust policy: load reports are believed only from registered hosts,
    and only when the reported image digest matches the published digest
    for the program name (so a tampered game binary cannot obtain the
    ``Running("game", h)`` role and write to the high score table)."""

    RDL = """
def Running(p, h)  p: program  h: string
"""

    def __init__(self, name: str = "Loader", **kwargs):
        super().__init__(name, **kwargs)
        self.export_type(ObjectType(f"{name}.program"), "program")
        self.add_rolefile("main", self.RDL)
        self._trusted_hosts: set[str] = set()
        self._published: dict[str, bytes] = {}
        self._live: dict[ClientId, int] = {}   # client -> backing record ref

    def trust_host(self, host: str) -> None:
        self._trusted_hosts.add(host)

    def publish_image(self, program: str, image: bytes) -> None:
        """Register the authoritative digest for a program name."""
        self._published[program] = hashlib.sha256(image).digest()

    def certify(self, report: LoadReport):
        """Rule on a client loader's statement and issue the certificate."""
        if report.host not in self._trusted_hosts:
            raise EntryDenied(f"host {report.host!r} is not trusted to certify loads")
        if report.client.host != report.host:
            raise EntryDenied("load report host does not match client identifier")
        published = self._published.get(report.program)
        if published is None:
            raise EntryDenied(f"no published image for {report.program!r}")
        if published != report.image_digest:
            raise EntryDenied(f"image digest mismatch for {report.program!r}")
        record = self.credentials.create_source(state=RecordState.TRUE, direct_use=True)
        self._live[report.client] = record.ref
        state = self._rolefile_state("main")
        program_ref = self.parsename("program", report.program)
        return self._issue(
            report.client,
            frozenset({"Running"}),
            (program_ref, report.host),
            record,
            state,
            "main",
        )

    def process_exited(self, client: ClientId) -> None:
        """The process stopped; its Running certificate is revoked."""
        ref = self._live.pop(client, None)
        if ref is not None:
            self.credentials.revoke(ref)

    def revoke_image(self, program: str) -> int:
        """An image is found to be bad: unpublish it.  Already-issued
        certificates remain until their processes exit (revoke them with
        :meth:`process_exited` as the hosts report)."""
        self._published.pop(program, None)
        return 0
