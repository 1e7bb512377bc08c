"""Interworking with non-Oasis mechanisms (section 4.12).

Two directions of interworking:

* :class:`OrganisationalRoleAdapter` — wraps a legacy *organisational
  role* system (manager / project-leader style, RBAC96): "A service
  could be devised that issued an equivalent Oasis role for each client
  holding one of these roles, and the two schemes could therefore
  interwork."  The adapter issues and revokes certificates outside RDL
  (the paper: a service may issue certificates "for *any* reason") and
  keeps them coherent with the legacy system's assignments.

* :class:`NfsStyleServer` — the opposite direction: a legacy server
  "amended to accept Oasis role membership certificates and extract a
  client's user identity and group memberships from it.  It could then
  apply its own access control measures based on this name" — Oasis
  manages *names*, the legacy server keeps its own rights logic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.credentials import RecordState
from repro.core.identifiers import ClientId
from repro.core.service import OasisService
from repro.errors import AccessDenied, EntryDenied
from repro.mssa.acl import unixacl


class LegacyRoleSystem:
    """A stand-in for an existing organisational-role database (the
    closed system being interworked with)."""

    def __init__(self) -> None:
        self._assignments: dict[str, set[str]] = {}
        self._listeners: list[Callable[[str, str, bool], None]] = []

    def assign(self, user: str, role: str) -> None:
        self._assignments.setdefault(user, set()).add(role)
        for listener in self._listeners:
            listener(user, role, True)

    def retract(self, user: str, role: str) -> None:
        self._assignments.get(user, set()).discard(role)
        for listener in self._listeners:
            listener(user, role, False)

    def holds(self, user: str, role: str) -> bool:
        return role in self._assignments.get(user, set())

    def roles_of(self, user: str) -> set[str]:
        return set(self._assignments.get(user, set()))

    def on_change(self, listener: Callable[[str, str, bool], None]) -> None:
        self._listeners.append(listener)


class OrganisationalRoleAdapter(OasisService):
    """Issues Oasis roles mirroring a legacy role system's assignments.

    Certificates are backed by one credential record per (user, legacy
    role); when the legacy system retracts an assignment the record goes
    false and every derived Oasis certificate — including memberships in
    *other* services built on them — is revoked through the standard
    cascade.  Multiple name spaces being fundamental to Oasis is what
    makes this adapter a few dozen lines."""

    def __init__(self, name: str, legacy: LegacyRoleSystem,
                 role_names: tuple[str, ...] = ("Manager", "ProjectLeader"),
                 **kwargs):
        super().__init__(name, **kwargs)
        self.legacy = legacy
        self.role_names = role_names
        decls = "\n".join(f"def {r}(u)  u: string" for r in role_names)
        self.add_rolefile("main", decls + "\n")
        self._records: dict[tuple[str, str], int] = {}
        legacy.on_change(self._on_legacy_change)

    def enter_legacy_role(self, client: ClientId, user: str, role: str):
        """Issue the Oasis equivalent of a held legacy role."""
        if role not in self.role_names:
            raise EntryDenied(f"{role!r} is not an adapted legacy role")
        if not self.legacy.holds(user, role):
            raise EntryDenied(f"{user!r} does not hold legacy role {role!r}")
        ref = self._records.get((user, role))
        if ref is None or self.credentials.get(ref) is None \
                or self.credentials.state_of(ref) is not RecordState.TRUE:
            record = self.credentials.create_source(
                state=RecordState.TRUE, direct_use=True
            )
            ref = record.ref
            self._records[(user, role)] = ref
        record = self.credentials.get(ref)
        assert record is not None
        state = self._rolefile_state("main")
        return self._issue(
            client, frozenset({role}), (user,), record, state, "main"
        )

    def _on_legacy_change(self, user: str, role: str, assigned: bool) -> None:
        if assigned:
            return
        ref = self._records.pop((user, role), None)
        if ref is not None:
            self.credentials.revoke(ref)


class NfsStyleServer:
    """A legacy file server converted to accept Oasis certificates.

    It validates the certificate through the issuing service (via the
    registry), extracts the user identity, and then applies its *own*
    Unix-style export ACLs — "Oasis manages names not access rights"."""

    def __init__(self, name: str, login_service: OasisService,
                 user_groups: Optional[Callable[[str], set[str]]] = None):
        self.name = name
        self.login_service = login_service
        self.user_groups = user_groups or (lambda user: set())
        self._exports: dict[str, str] = {}     # path -> unix acl text
        self._data: dict[str, bytes] = {}
        self.reads = 0
        self.writes = 0

    def export(self, path: str, acl_text: str, data: bytes = b"") -> None:
        self._exports[path] = acl_text
        self._data[path] = data

    def _user_of(self, cert, client: Optional[ClientId]) -> str:
        self.login_service.validate(cert, claimed_client=client)
        # by convention the first argument of the login role is the user
        from repro.mssa.custode import principal_name
        return principal_name(cert.args[0])

    def _rights(self, cert, client, path: str) -> frozenset:
        acl_text = self._exports.get(path)
        if acl_text is None:
            raise AccessDenied(f"no export {path!r}")
        user = self._user_of(cert, client)
        return unixacl(acl_text, user, self.user_groups(user))

    def read(self, cert, path: str, client: Optional[ClientId] = None) -> bytes:
        if "r" not in self._rights(cert, client, path):
            raise AccessDenied(f"no read access to {path!r}")
        self.reads += 1
        return self._data[path]

    def write(self, cert, path: str, data: bytes,
              client: Optional[ClientId] = None) -> None:
        if "w" not in self._rights(cert, client, path):
            raise AccessDenied(f"no write access to {path!r}")
        self.writes += 1
        self._data[path] = data
