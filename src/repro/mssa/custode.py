"""The custode base class (sections 5.2-5.5).

A custode is a storage server whose access control is delegated to an
embedded Oasis service:

* every **ACL is itself a file** (section 5.4.1), with an embedded
  reference from each file it protects; ACL files are protected by
  further ACLs — with the placement constraint of section 5.4.2 (the ACL
  protecting an ACL file must reside in the same custode), which bounds
  any access check to at most one remote call and makes cyclic ACL
  references harmless (figs 5.4/5.5);
* each ACL file is represented by a rolefile defining ``UseAcl(r)``
  (access to all files the ACL governs) and ``UseFile(f, r)``
  (delegation of access to one file) — section 5.4.3;
* the rolefile's ACL rule uses the watchable ``acl`` constraint function,
  so certificates depend on a per-ACL *version* credential record:
  modifying the ACL revokes them (volatile ACLs, section 5.5.2);
* standard statements merged into every rolefile give administrators
  access without a 'root' identity (section 5.4.3).

Inter-custode trust: custodes do not trust each other.  A custode
reading a *remote* ACL is authorised by the remote custode against the
ACL protecting that ACL file, under the principal ``custode:<name>`` in
group ``custodes``.

Storage fast path (see docs/architecture.md, "Storage fast path"):

* every authorised ``check_access`` outcome is cached per
  ``(certificate, file, right)`` in a :class:`PinnedCache` pinned to the
  certificate's credential record, storing the governing ACL's id and
  version record — a revocation cascade or group-membership change drops
  the decision as the record leaves TRUE, and a ``modify_acl`` version
  bump, ``set_acl_of`` regroup or deletion makes the next lookup miss;
  any state the cache cannot verify is a miss (fail closed);
* remote ACL contents live in a second :class:`PinnedCache`, each image
  pinned to the local surrogate of its remote version record, so the
  external-record event notifications that keep credential surrogates
  coherent flush it too and ``remote_acl_reads`` is a cold-path counter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.cache import CacheCounters, DegradationPolicy, PinnedCache
from repro.core.credentials import RecordState
from repro.core.groups import GroupService
from repro.core.identifiers import ClientId, HostOS
from repro.core.linkage import Linkage, LocalLinkage
from repro.core.registry import ServiceRegistry
from repro.core.service import OasisService
from repro.core.types import ObjectRef
from repro.errors import (
    AccessDenied,
    MisuseError,
    NoSuchFileError,
    PlacementError,
    StorageError,
)
from repro.mssa.acl import Acl, Rights
from repro.mssa.ids import FileId
from repro.runtime.clock import Clock


def principal_name(user: Any) -> str:
    """Render a role argument (userid ObjectRef or string) as the ACL
    subject name."""
    if isinstance(user, ObjectRef):
        return user.identity.decode("utf-8", "replace")
    return str(user)


@dataclass
class FileRecord:
    fid: FileId
    content: Any
    acl_id: Optional[FileId]
    container: str
    is_acl: bool = False
    acl: Optional[Acl] = None
    version_ref: Optional[int] = None    # credential record behind the ACL


@dataclass
class StorageStats:
    """Counters for the storage-layer fast path: the access-decision
    cache, the remote-ACL surrogate store, and why entries died.

    ``invalidated_by_record`` covers every cause that arrives as a
    credential-record state change — a revocation cascade, a
    ``modify_acl`` version bump killing outstanding UseAcl certificates,
    a group-membership flip.  Decisions staled without touching a
    certificate's record (a regroup, a delete, a version bump under a
    UseFile delegation) are not dropped eagerly: they miss on their next
    lookup and count in ``decision_misses``."""

    decision_hits: int = 0
    decision_misses: int = 0
    decision_evictions: int = 0
    surrogate_hits: int = 0          # remote ACL served from the store
    surrogate_misses: int = 0        # remote ACL fetched from the peer
    surrogate_flushes: int = 0       # store entries dropped (notification
                                     # or link suspect)
    invalidated_by_record: int = 0   # credential-record state change
    bypass_checks: int = 0           # rights checked on a bypass route
    epoch_flushes: int = 0           # full flushes forced by crash-restart
    degraded_hits: int = 0           # decisions served on an UNKNOWN record
    degraded_expired: int = 0        # degraded serves refused: bound exceeded
                                     # or the UNKNOWN window could not be dated
    degraded_max_staleness: float = 0.0   # worst staleness actually served


class Custode:
    """Base storage server.  Subclasses define the rights ``ALPHABET``
    and the mapping from operations to required rights."""

    ALPHABET = "rwxad"
    FULL_RIGHTS: Rights = frozenset(ALPHABET)

    def __init__(
        self,
        name: str,
        registry: Optional[ServiceRegistry] = None,
        linkage: Optional[Linkage] = None,
        clock: Optional[Clock] = None,
        login_service: str = "Login",
        login_role: str = "LoggedOn",
        user_groups: Optional[Callable[[str], set[str]]] = None,
        enforce_placement: bool = True,
        decision_cache_size: int = 4096,
        degradation: Optional[DegradationPolicy] = None,
    ):
        self.name = name
        self.registry = registry
        self.login_ref = f"{login_service}.{login_role}"
        self.user_groups = user_groups or (lambda user: set())
        self.enforce_placement = enforce_placement
        groups = GroupService(f"{name}.groups")
        groups.create_group("admins")
        self.service = OasisService(
            name,
            registry=registry,
            linkage=linkage or LocalLinkage(),
            clock=clock,
            groups=groups,
            watchable={"acl": self._acl_function},
        )
        self.service.custode = self   # registry lookups find the custode
        self._files: dict[int, FileRecord] = {}
        self._numbers = itertools.count(1)
        self._containers: dict[str, list[FileId]] = {}
        # per-ACL file index: acl_id -> {file number: fid}, maintained by
        # create_file/create_acl/set_acl_of so files_protected_by is O(group)
        self._by_acl: dict[FileId, dict[int, FileId]] = {}
        # --- storage fast path -------------------------------------------
        self.storage = StorageStats()
        self.degradation = degradation
        # positive access decisions: (crr, secret_index, signature,
        # file number, right, acl_override) -> (acl_id, version token),
        # pinned to the certificate's record
        self._decisions = PinnedCache(
            self.service, decision_cache_size, degradation=degradation,
            stats=self.storage, evicted="decision_evictions",
            invalidated="invalidated_by_record",
        )
        # remote-ACL surrogate store: fid -> (acl, owner, remote version
        # ref, local surrogate ref), pinned to the surrogate: flushed by
        # the Modified event (or link suspicion) that takes it off TRUE
        self._remote_acls = PinnedCache(
            self.service, decision_cache_size, stats=self.storage,
            invalidated="surrogate_flushes",
        )
        # both caches are process memory, flushed by a restart of the
        # embedded service; the ACL evaluation memos go with them
        self.service.on_restart(self._on_service_restart)
        # accounting (sections 5.3.1 / 4.13): quotas and charging per
        # container; unknown containers are auto-created on the default
        # account so accounting is always on
        from repro.mssa.containers import ContainerRegistry
        self.accounting = ContainerRegistry(name)
        # the custode's own low-level identity (it is a client of peers)
        self._host = HostOS(f"custode-host-{name}")
        self.identity: ClientId = self._host.create_domain().client_id
        # statistics for the chapter-5 experiments
        self.ops = 0
        self.access_checks = 0
        self.remote_acl_reads = 0
        self.acl_reads_for_peers = 0
        self.bypassed_ops = 0

    # -------------------------------------------------------------- admin

    def add_admin(self, user: Any) -> None:
        self.service.groups.add_member("admins", user)

    # ---------------------------------------------------------- ACL files

    def create_acl(
        self,
        acl: Acl,
        protecting_acl_id: Optional[FileId] = None,
        container: str = "system",
    ) -> FileId:
        """Store an ACL as a file and activate its rolefile.

        ``protecting_acl_id`` is the meta-ACL controlling who may read or
        modify this ACL; the placement constraint requires it to live in
        this custode."""
        if (
            protecting_acl_id is not None
            and protecting_acl_id.custode != self.name
            and self.enforce_placement
        ):
            raise PlacementError(
                "the ACL file protecting an ACL file must reside in the "
                f"same custode ({self.name!r}), not {protecting_acl_id.custode!r}"
            )
        # the ACL keeps its authored alphabet: it may protect files on a
        # *different* custode with different rights (shared ACLs are just
        # files); consumers intersect with their own alphabet
        fid = FileId(self.name, next(self._numbers))
        self._journal_acl(
            "create", str(fid), protecting=str(protecting_acl_id or ""),
            container=container,
        )
        version = self.service.credentials.create_source(state=RecordState.TRUE)
        record = FileRecord(
            fid=fid,
            content=acl.render(),
            acl_id=protecting_acl_id,
            container=container,
            is_acl=True,
            acl=acl,
            version_ref=version.ref,
        )
        self._account_file(container, fid, record.content)
        self._files[fid.number] = record
        self._containers.setdefault(container, []).append(fid)
        self._index_under_acl(record)
        self.service.add_rolefile(str(fid), self._rolefile_source(fid))
        return fid

    def _journal_acl(self, action: str, target: str, **detail) -> None:
        """WAL an ACL change through the owning service's journal (when
        one is attached) BEFORE it is applied — the paper's auditing
        model wants every access-control change durably attributable."""
        journal = getattr(self.service, "journal", None)
        if journal is not None:
            journal.append("acl", {"action": action, "target": target, **detail})

    def _login_params(self) -> str:
        """The login role's parameter pattern, adapted to its arity (a
        chapter-2 LoggedOn(u, h) or the section 3.4.3 Login(l, u, h)).
        The user variable is always named ``u``."""
        arity = 2
        if self.registry is not None:
            service_name, role = self.login_ref.split(".", 1)
            peer = self.registry.try_lookup(service_name)
            if peer is not None:
                signature = peer.gettypes(role)
                if signature is not None:
                    arity = len(signature)
        names = [f"x{i}" for i in range(arity)]
        user_index = 1 if arity >= 3 else 0   # Login(l, u, h) vs LoggedOn(u, h)
        names[user_index] = "u"
        return ", ".join(names)

    def _rolefile_source(self, acl_fid: FileId) -> str:
        """The per-ACL rolefile of section 5.4.3, merged with the standard
        administrator statements."""
        rights = "{" + self.ALPHABET + "}"
        login = f"{self.login_ref}({self._login_params()})"
        return f"""
def UseAcl(r)  r: {rights}
def UseFile(f, r)  f: string  r: {rights}
UseAcl(r) <- {login}* : r = {rights} and (u in admins)*
UseAcl(r) <- {login}* : (r = acl("{acl_fid}", u))*
UseFile(f, r) <- {login}* <|* UseAcl(r2) : r <= r2
"""

    def modify_acl(self, cert, acl_id: FileId, new_acl: Acl) -> None:
        """Replace an ACL's contents.  Meta-access control: requires 'w'
        under the *protecting* ACL.  Outstanding certificates issued
        against the old contents are revoked via the version record
        (section 5.5.2)."""
        record = self._acl_record(acl_id)
        self._check_meta(cert, record, "w")
        self._journal_acl(
            "modify", str(acl_id), old_version=record.version_ref,
        )
        # revoke the old version; new certificates use a fresh record.
        # The cascade revokes outstanding UseAcl certificates (their entry
        # records depend on the version record), and the decision cache
        # drops their entries as it settles.  Decisions that don't ride
        # the version record (UseFile delegations) stored it instead, so
        # their next lookup misses.
        if record.version_ref is not None:
            self.service.credentials.revoke(record.version_ref)
        record.version_ref = self.service.credentials.create_source(
            state=RecordState.TRUE
        ).ref
        record.acl = new_acl
        record.content = new_acl.render()

    def read_acl(self, cert, acl_id: FileId) -> Acl:
        """Read an ACL's contents (requires 'r' under the protecting ACL)."""
        record = self._acl_record(acl_id)
        self._check_meta(cert, record, "r")
        assert record.acl is not None
        return record.acl

    def _check_meta(self, cert, record: FileRecord, right: str) -> None:
        if record.acl_id is None:
            # an unprotected ACL is administered via the admin statements
            # of its own rolefile
            self.check_access(cert, record.fid, right, acl_override=record.fid)
        else:
            self.check_access(cert, record.fid, right)

    def _acl_record(self, acl_id: FileId) -> FileRecord:
        if acl_id.custode != self.name:
            raise MisuseError(f"{acl_id} is not stored on custode {self.name!r}")
        record = self._files.get(acl_id.number)
        if record is None or not record.is_acl:
            raise NoSuchFileError(f"{acl_id} is not an ACL file on {self.name!r}")
        return record

    # -------------------------------------------------------- ordinary files

    def create_file(
        self, content: Any, acl_id: FileId, container: str = "default"
    ) -> FileId:
        """Store a file under the protection of an existing (possibly
        remote) ACL file."""
        self._require_acl_exists(acl_id)
        self._ensure_rolefile(acl_id)
        fid = FileId(self.name, next(self._numbers))
        record = FileRecord(fid=fid, content=content, acl_id=acl_id, container=container)
        self._account_file(container, fid, content)
        self._files[fid.number] = record
        self._containers.setdefault(container, []).append(fid)
        self._index_under_acl(record)
        return fid

    def _account_file(self, container: str, fid: FileId, content: Any) -> None:
        if container not in self.accounting.containers():
            self.accounting.create_container(container, account="system")
        size = len(content) if isinstance(content, (bytes, bytearray, str)) else 0
        self.accounting.add_file(container, fid, size=size)

    def _ensure_rolefile(self, acl_id: FileId) -> None:
        """The custode controlling a file issues its certificates, so it
        needs a rolefile even when the governing ACL is stored remotely
        (the ``acl`` constraint function fetches the contents)."""
        if str(acl_id) not in self.service._rolefiles:
            self.service.add_rolefile(str(acl_id), self._rolefile_source(acl_id))

    def set_acl_of(self, cert, fid: FileId, acl_id: FileId) -> None:
        """Re-group a file under a different ACL — "users may manipulate
        access control information by changing which ACL is used to
        control a file" (section 5.4).  Requires 'w' under the current
        ACL."""
        record = self._record(fid)
        self.check_access(cert, fid, "w")
        self._require_acl_exists(acl_id)
        if record.is_acl and self.enforce_placement and acl_id.custode != self.name:
            raise PlacementError("an ACL file's protecting ACL must be local")
        self._journal_acl(
            "regroup", str(fid),
            old_acl=str(record.acl_id or ""), new_acl=str(acl_id),
        )
        # decisions for this file stored the old ACL: their next lookup misses
        self._unindex_under_acl(record)
        record.acl_id = acl_id
        self._index_under_acl(record)

    def _require_acl_exists(self, acl_id: FileId) -> None:
        if acl_id.custode == self.name:
            self._acl_record(acl_id)
        elif self.registry is None or acl_id.custode not in getattr(self.registry, "_services", {}):
            # remote existence is verified lazily on first check
            pass

    def _record(self, fid: FileId) -> FileRecord:
        if fid.custode != self.name:
            raise MisuseError(f"{fid} is not stored on custode {self.name!r}")
        record = self._files.get(fid.number)
        if record is None:
            raise NoSuchFileError(f"no file {fid} on {self.name!r}")
        return record

    def files_in(self, container: str) -> list[FileId]:
        return list(self._containers.get(container, []))

    def files_protected_by(self, acl_id: FileId) -> list[FileId]:
        """Files in the ACL's group, from the maintained per-ACL index
        (O(group size), not O(all files))."""
        return list(self._by_acl.get(acl_id, {}).values())

    def _index_under_acl(self, record: FileRecord) -> None:
        if record.acl_id is not None:
            self._by_acl.setdefault(record.acl_id, {})[record.fid.number] = record.fid

    def _unindex_under_acl(self, record: FileRecord) -> None:
        if record.acl_id is not None:
            group = self._by_acl.get(record.acl_id)
            if group is not None:
                group.pop(record.fid.number, None)
                if not group:
                    del self._by_acl[record.acl_id]

    def _forget_file(self, record: FileRecord) -> None:
        """Remove a file's bookkeeping on deletion: container listing and
        accounting and the per-ACL index.  File numbers are never reused,
        so cached decisions for the file can only age out of the LRU."""
        self._files.pop(record.fid.number, None)
        container = self._containers.get(record.container)
        if container is not None and record.fid in container:
            container.remove(record.fid)
        if record.container in self.accounting.containers():
            self.accounting.remove_file(record.container, record.fid)
        self._unindex_under_acl(record)

    # ---------------------------------------------------------- role entry

    def enter_use_acl(self, client: ClientId, acl_id: FileId, login_cert,
                      rights: Optional[Rights] = None):
        """Obtain a UseAcl certificate for all files governed by the ACL."""
        return self.service.enter_role(
            client,
            "UseAcl",
            (rights,),                    # None = whatever the ACL grants
            credentials=(login_cert,),
            rolefile_id=str(acl_id),
        )

    def delegate_use_file(self, use_acl_cert, fid: FileId, rights: Rights,
                          expires_in: Optional[float] = None):
        """A UseAcl holder delegates access to one file (section 5.4.3)."""
        record = self._record(fid)
        assert record.acl_id is not None
        return self.service.delegate(
            use_acl_cert,
            "UseFile",
            role_args=(str(fid), frozenset(rights)),
            expires_in=expires_in,
            rolefile_id=use_acl_cert.rolefile_id,
        )

    def accept_use_file(self, client: ClientId, delegation, login_cert):
        return self.service.enter_delegated_role(
            client, delegation, credentials=(login_cert,),
            rolefile_id=delegation.rolefile_id,
        )

    # --------------------------------------------------------- access checks

    def check_access(self, cert, fid: FileId, right: str,
                     acl_override: Optional[FileId] = None) -> FileRecord:
        """Validate a certificate against a file operation (fig 5.6).
        Each *authorised* operation is charged to the file's container
        (section 4.13 charges authorised operations — a denied request
        must not bill the container).  Returns the file record so callers
        don't re-resolve the file.

        Authorised outcomes are cached per (certificate, file, right),
        pinned to the certificate's credential record and to the governing
        ACL's version record; :meth:`PinnedCache.check` re-checks them on
        every hit — any state the cache cannot verify is a miss (fail
        closed)."""
        self.access_checks += 1
        record = self._record(fid)
        acl_id = acl_override or record.acl_id
        if acl_id is None:
            raise AccessDenied(f"{fid} has no governing ACL")
        key = (cert.crr, cert.secret_index, cert.signature, fid.number, right,
               acl_override)
        if self._decisions.check(key, cert, (acl_id, self._acl_version_token(acl_id))):
            self.storage.decision_hits += 1
            self._charge(record)
            return record
        self.storage.decision_misses += 1
        self.service.validate(cert)
        if cert.rolefile_id != str(acl_id):
            raise AccessDenied(
                f"certificate is for ACL {cert.rolefile_id}, {fid} is governed by {acl_id}"
            )
        if "UseAcl" in cert.roles:
            granted = cert.args[0]
        elif "UseFile" in cert.roles:
            if cert.args[0] != str(fid):
                raise AccessDenied(f"UseFile certificate names {cert.args[0]}, not {fid}")
            granted = cert.args[1]
        else:
            raise AccessDenied(f"certificate roles {sorted(cert.roles)} grant no file access")
        if right not in granted:
            raise AccessDenied(f"certificate grants {sorted(granted)}, {right!r} required")
        token = self._acl_version_token(acl_id)
        if token is not None:   # unpinnable to an ACL version: don't cache
            self._decisions.put(key, cert.crr, (acl_id, token))
        self._charge(record)
        return record

    def _charge(self, record: FileRecord) -> None:
        if self.accounting.has_container(record.container):
            self.accounting.charge_operation(record.container)

    def _acl_version_token(self, acl_id: FileId) -> Optional[int]:
        """The version-record ref currently governing ``acl_id``, or None
        when it cannot be determined locally (unknown state: a decision
        pinned to None never matches — fail closed)."""
        if acl_id.custode == self.name:
            record = self._files.get(acl_id.number)
            if record is not None and record.is_acl:
                return record.version_ref
            return None
        cached = self._remote_acls.get(acl_id)
        return cached[2] if cached is not None else None

    def _on_service_restart(self) -> None:
        self.storage.epoch_flushes += 1
        self.clear_storage_caches()

    def clear_storage_caches(self) -> None:
        """Force the storage cold path: drop cached decisions, the remote
        ACL store and per-ACL evaluation memos.  Correctness never needs
        this — benchmarks and operational tooling only."""
        self._decisions.clear()
        self._remote_acls.clear()
        for record in self._files.values():
            if record.acl is not None:
                record.acl.clear_cache()

    # the watchable constraint function behind the rolefiles
    def _acl_function(self, acl_ref: str, user: Any):
        """Evaluate an ACL for a user; returns (rights, version-record-ref)
        so entry depends on the ACL version (volatile ACLs)."""
        fid = FileId.parse(acl_ref)
        user_name = principal_name(user)
        acl, owner, version_ref = self._fetch_acl(fid)
        rights = acl.evaluate(user_name, self.user_groups(user_name))
        rights = rights & frozenset(self.ALPHABET)
        if owner != self.name:
            # depend on the local surrogate _fetch_acl pinned the image
            # to, kept coherent by event notification
            version_ref = self._remote_acls.get(fid)[3]
        return rights, version_ref

    def _fetch_acl(self, fid: FileId) -> tuple[Acl, str, int]:
        if fid.custode == self.name:
            record = self._acl_record(fid)
            assert record.acl is not None and record.version_ref is not None
            return record.acl, self.name, record.version_ref
        cached = self._remote_acls.get(fid)
        if cached is not None:
            self.storage.surrogate_hits += 1
            return cached[0], cached[1], cached[2]
        self.storage.surrogate_misses += 1
        if self.registry is None:
            raise StorageError(f"cannot reach custode {fid.custode!r}: no registry")
        peer_service = self.registry.lookup(fid.custode)
        peer = getattr(peer_service, "custode", None)
        if peer is None:
            raise StorageError(f"{fid.custode!r} is not a custode")
        self.remote_acl_reads += 1
        acl, version_ref = peer.read_acl_for_peer(fid, reader=self.name)
        # subscribe a local surrogate to the remote version record so a
        # remote modify_acl (or link suspicion) flushes this entry; until
        # flushed, repeated checks never leave this custode
        surrogate_ref = self.service.external_record_for(peer.name, version_ref)
        self._remote_acls.put(
            fid, surrogate_ref, (acl, peer.name, version_ref, surrogate_ref)
        )
        return acl, peer.name, version_ref

    def read_acl_for_peer(self, fid: FileId, reader: str, _depth: int = 0) -> tuple[Acl, int]:
        """A peer custode asks to read one of our ACL files for an access
        check.  We authorise it against the protecting ACL under the
        principal ``custode:<reader>`` (custodes trust nobody, 5.4.2).

        Without the placement constraint the protecting ACL may itself be
        remote, and cyclic ACLs then produce unbounded chains (fig 5.4);
        the depth guard surfaces that as an error."""
        if _depth > 16:
            raise StorageError(
                "ACL check recursion limit hit: cyclic ACLs without the "
                "placement constraint (fig 5.4)"
            )
        self.acl_reads_for_peers += 1
        record = self._acl_record(fid) if fid.custode == self.name else None
        if record is None:
            # only possible when placement enforcement is off
            acl, owner, ref = self._fetch_acl(fid)
            return acl, ref
        if record.acl_id is not None:
            protecting, _owner, _ref = self._fetch_acl_guarded(record.acl_id, _depth + 1)
            rights = protecting.evaluate(f"custode:{reader}", {"custodes"})
            if "r" not in rights:
                raise AccessDenied(
                    f"custode {reader!r} may not read ACL {fid} "
                    f"(protecting ACL grants {sorted(rights)})"
                )
        assert record.acl is not None and record.version_ref is not None
        return record.acl, record.version_ref

    def _fetch_acl_guarded(self, fid: FileId, depth: int) -> tuple[Acl, str, int]:
        if fid.custode == self.name:
            record = self._acl_record(fid)
            assert record.acl is not None and record.version_ref is not None
            return record.acl, self.name, record.version_ref
        if self.registry is None:
            raise StorageError(f"cannot reach custode {fid.custode!r}")
        peer = getattr(self.registry.lookup(fid.custode), "custode", None)
        if peer is None:
            raise StorageError(f"{fid.custode!r} is not a custode")
        self.remote_acl_reads += 1
        acl, ref = peer.read_acl_for_peer(fid, reader=self.name, _depth=depth)
        return acl, peer.name, ref

    # ------------------------------------------------------------------ stats

    def cache_counters(self) -> dict[str, CacheCounters]:
        """Uniform efficacy snapshots of the storage-layer caches: the
        decision cache (its verified hits are ``storage.decision_hits``)
        and the embedded service's validation caches.  This is what the
        shard bench reads per replica to show where warm traffic is
        actually served."""
        counters = {"decisions": self._decisions.counters()}
        for name, snapshot in self.service.cache_counters().items():
            counters[f"service:{name}"] = snapshot
        return counters

    def stack_storage_stats(self) -> dict[str, StorageStats]:
        """The storage fast-path counters of this custode and every
        custode below it (VACs and the flat-file custode wire a ``_below``
        link), keyed by custode name."""
        stats = {self.name: self.storage}
        below = getattr(self, "_below", None)
        if below is not None:
            stats.update(below.stack_storage_stats())
        return stats

    # ------------------------------------------------------------- bypass hooks

    def serve_bypassed(self, top_service: OasisService, cert, fid: FileId,
                       op: Callable[[FileRecord], Any]) -> Any:
        """Serve an operation bypassing the custodes above us (fig 5.8):
        the supplied certificate was issued by ``top_service``; we make a
        validation callback to it (cached there) instead of walking the
        stack."""
        top_service.validate_for_peer(cert)
        self.bypassed_ops += 1
        self.ops += 1
        return op(self._record(fid))
