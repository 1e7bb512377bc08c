"""The Oasis service shell (chapter 4).

An :class:`OasisService` owns:

* one or more parsed **rolefiles** defining its roles (scope, section 2.10);
* a **signer** over a rolling secret table (fig 4.1, section 5.5.1);
* a **credential record table** (section 4.6) whose graph encodes every
  live membership rule;
* databases for **role-based revocation** (fig 4.9);
* an **audit log** (section 4.13).

Certificate validation follows the six checks of section 4.2 and
classifies failures as fraud / misuse / revocation.  Signature checks are
cached once passed ("the integrity of the certificate may be cached, and
recomputation avoided"), and a fully validated certificate is cached in
a :class:`~repro.core.cache.PinnedCache` pinned to its credential record.

Exactly one new credential record is created per role entry (the
conjunction of the entry's membership rules — fig 4.6) and one per
revocable delegation, matching the costs claimed in section 4.7.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.core.audit import AuditKind, AuditLog
from repro.core.cache import CacheCounters, LRUCache, PinnedCache
from repro.core.certificates import (
    DelegationCertificate,
    RevocationCertificate,
    RoleMembershipCertificate,
    RoleTemplate,
    role_bitmask,
)
from repro.core.credentials import (
    CascadeStats,
    Change,
    CredentialRecord,
    CredentialRecordTable,
    RecordOp,
    RecordState,
)
from repro.core.engine import (
    CertDep,
    DelegationDep,
    EntryResult,
    Membership,
    RevokerDep,
    RoleEntryEngine,
)
from repro.core.groups import GroupService
from repro.core.identifiers import ClientId
from repro.core.linkage import Linkage, LocalLinkage
from repro.core.rdl.ast import Rolefile
from repro.core.rdl.constraints import FuncDep, GroupDep
from repro.core.rdl.parser import parse_rolefile
from repro.core.rdl.typecheck import TypeChecker
from repro.core.registry import ServiceRegistry
from repro.core.secrets import RollingSecretTable, Signer
from repro.core.types import ObjectType, RdlType, TypeTable, marshal_args
from repro.errors import (
    DelegationError,
    EntryDenied,
    FraudError,
    MisuseError,
    OasisError,
    OverloadError,
    RevokedError,
)
from repro.runtime.clock import Clock, ManualClock


@dataclass
class _RolefileState:
    rolefile: Rolefile
    checker: TypeChecker
    engine: RoleEntryEngine
    role_order: list[str]


def _bump(stats: "ServiceStats", counter: str) -> None:
    setattr(stats, counter, getattr(stats, counter) + 1)


@dataclass
class ServiceStats:
    certificates_issued: int = 0
    validations: int = 0
    signature_cache_hits: int = 0
    signature_cache_evictions: int = 0
    entries_denied: int = 0
    entries_shed: int = 0                   # admission refused under overload
    # sheds attributed to the principal that caused them (per-tenant view
    # of entries_shed; budget sheds always attribute, backpressure sheds
    # attribute when the caller identified a principal)
    sheds_by_principal: dict = field(default_factory=dict)
    # the validity short-circuit over full validations
    validity_cache_hits: int = 0
    validity_cache_evictions: int = 0
    validity_cache_invalidations: int = 0   # dropped by a record cascade


class PrincipalAdmission:
    """Per-principal admission budget (ROADMAP item 4 follow-on).

    Global backpressure shedding treats all tenants alike, so one noisy
    principal hammering role entry crowds everyone sharing the link.
    This keeps a sliding window of recent admissions per principal and
    refuses the ones that exceed ``budget`` starts within ``window``
    seconds — the noisy tenant sheds first, before global backpressure
    even engages.
    """

    def __init__(self, budget: int = 32, window: float = 1.0):
        self.budget = budget
        self.window = window
        self._live: dict[str, deque] = {}

    def admit(self, principal: str, now: float) -> bool:
        """Record an admission attempt; False when over budget."""
        live = self._live.get(principal)
        if live is None:
            live = self._live[principal] = deque()
        horizon = now - self.window
        while live and live[0] <= horizon:
            live.popleft()
        if len(live) >= self.budget:
            return False
        live.append(now)
        return True


class OasisService:
    """A service that names its clients with roles (chapters 2-4)."""

    def __init__(
        self,
        name: str,
        rolefile_source: Optional[str] = None,
        registry: Optional[ServiceRegistry] = None,
        linkage: Optional[Linkage] = None,
        clock: Optional[Clock] = None,
        groups: Optional[GroupService] = None,
        signature_length: int = 16,
        cert_lifetime: Optional[float] = None,
        secret_lifetime: float = 3600.0,
        functions: Optional[dict[str, Callable[..., Any]]] = None,
        watchable: Optional[dict[str, Callable[..., tuple[Any, Any]]]] = None,
        signature_cache_size: int = 4096,
        validity_cache_size: int = 4096,
        admission: Optional[PrincipalAdmission] = None,
    ):
        self.name = name
        self.clock = clock or ManualClock()
        self.registry = registry
        # Boot epoch (section 2): identity is only valid within one boot,
        # exactly as a ClientId carries boot_time.  Bumped by restart();
        # peers observing a newer epoch must distrust pre-crash state.
        self.boot_epoch = 1
        self._restart_hooks: list[Callable[[], None]] = []
        self.linkage = linkage or LocalLinkage()
        self.groups = groups
        self.cert_lifetime = cert_lifetime
        # per-principal admission budget (None = off); the outbox-depth
        # shed is the linkage's (backpressured_of)
        self.admission = admission
        # write-ahead journal (set by attach_journal; None without one)
        self.journal = None
        self.secrets = RollingSecretTable(clock=self.clock, lifetime=secret_lifetime)
        self.signer = Signer(self.secrets, signature_length=signature_length)
        self.credentials = CredentialRecordTable(name)
        # foreign group tables whose cascades batch into ours (one window
        # per table, however many membership records are bridged)
        self._bridged_group_tables: set = set()
        self.audit = AuditLog()
        self.types = TypeTable()
        self.stats = ServiceStats()
        self.functions = functions or {}
        self.watchable = watchable or {}
        self._rolefiles: dict[str, _RolefileState] = {}
        # integrity cache (section 4.2): passed signature checks, bounded
        self._signature_cache = LRUCache(
            signature_cache_size,
            on_evict=lambda: _bump(self.stats, "signature_cache_evictions"),
        )
        # every PinnedCache pinned to this service's records, ours and
        # those of custodes and follower replicas built over us
        self._pinned_caches: list[PinnedCache] = []
        # validity short-circuit: crr -> the certificate that last passed
        # full validation.  A warm certificate skips text encoding and
        # HMAC recomputation entirely; the cache drops the entry as the
        # cascade turns its record non-TRUE, so a revocation fails
        # validation on the very next call.  Registered before our own
        # record watch, so the entry is gone before anything else
        # observes the new state.
        self._validity_cache = PinnedCache(
            self, validity_cache_size, stats=self.stats,
            evicted="validity_cache_evictions",
            invalidated="validity_cache_invalidations",
        )
        self._delegation_expiries: list[tuple[float, int]] = []
        # role-based revocation (fig 4.9): (rolefile, role, args) -> entries
        self._revocation_db: dict[tuple[str, str, tuple], list[tuple[str, int]]] = {}
        self._revoked_forever: set[tuple[str, str, tuple]] = set()

        self.credentials.watch_all(self._on_record_change)
        self.linkage.attach(self)
        if registry is not None:
            registry.register(self)
        if rolefile_source is not None:
            self.add_rolefile("main", rolefile_source)

    # ------------------------------------------------------------ configuration

    def export_type(self, object_type: ObjectType, *aliases: str) -> ObjectType:
        """Publish an object type other services may import."""
        return self.types.register(object_type, *aliases)  # type: ignore[return-value]

    def add_rolefile(self, rolefile_id: str, source: str) -> Rolefile:
        """Parse, type-check and activate a rolefile under ``rolefile_id``."""
        rolefile = parse_rolefile(source)
        type_table = self._build_type_table(rolefile)
        checker = TypeChecker(
            rolefile,
            types=type_table,
            resolver=self._external_signature,
            function_types=self._function_types(),
        )
        checker.check()
        engine = RoleEntryEngine(
            rolefile,
            self.name,
            signatures=lambda service, role, _c=checker: self._signature_lookup(service, role, _c),
            group_lookup=self._group_lookup,
            functions=self.functions,
            watchable=self.watchable,
            object_parser=self._parse_object,
        )
        # the role->bit mapping is fixed configuration (section 4.3);
        # declared-only roles (issued outside RDL, section 4.12) get bits too
        role_order = [d.name for d in rolefile.decls]
        role_order += [r for r in rolefile.roles_defined() if r not in role_order]
        reload = rolefile_id in self._rolefiles
        self._rolefiles[rolefile_id] = _RolefileState(rolefile, checker, engine, role_order)
        if reload:
            # entry plans recompile automatically (the fresh engine has an
            # empty plan cache); cached validations against the replaced
            # policy must not survive it
            self.clear_validation_caches()
        return rolefile

    def remove_rolefile(self, rolefile_id: str) -> None:
        if self._rolefiles.pop(rolefile_id, None) is not None:
            self.clear_validation_caches()

    def clear_validation_caches(self) -> None:
        """Drop every cached validation outcome: the signature cache and
        every :class:`PinnedCache` pinned to this service's records
        (custode decisions and follower replicas included).  Record
        changes invalidate entries on their own; a policy change — a
        rolefile reloaded or removed — and a restart come through here.
        Benchmarks also use it to force the cold path."""
        self._signature_cache.clear()
        for cache in self._pinned_caches:
            cache.clear()

    def track_cache(self, cache: PinnedCache) -> None:
        """Have :meth:`clear_validation_caches` flush ``cache``; every
        :class:`PinnedCache` pinned to this service registers here."""
        self._pinned_caches.append(cache)

    def _build_type_table(self, rolefile: Rolefile) -> TypeTable:
        table = TypeTable()
        # the service's own exported types are visible unqualified
        for name in list(self.types._types):
            table.register(self.types._types[name], name)
        for imp in rolefile.imports:
            if self.registry is None:
                raise OasisError(f"cannot import {imp.qualified}: no registry")
            peer = self.registry.lookup(imp.service)
            imported = peer.types.lookup(imp.qualified) if peer.types.has(imp.qualified) \
                else peer.types.lookup(imp.type_name)
            table.register(imported, imp.type_name, imp.qualified)
        return table

    def _function_types(self) -> dict[str, RdlType]:
        types: dict[str, RdlType] = {}
        for name, fn in {**self.functions, **self.watchable}.items():
            rdl_type = getattr(fn, "rdl_type", None)
            if rdl_type is not None:
                types[name] = rdl_type
        return types

    def _external_signature(self, service: str, role: str) -> Optional[list[RdlType]]:
        if self.registry is None:
            return None
        peer = self.registry.try_lookup(service)
        if peer is None:
            return None
        return peer.gettypes(role)

    def _signature_lookup(
        self, service: Optional[str], role: str, checker: TypeChecker
    ) -> Optional[list[RdlType]]:
        if service is None or service == self.name:
            try:
                return checker.signature(role)
            except Exception:
                return None
        return self._external_signature(service, role)

    def _group_lookup(self, principal: Any, group: str) -> bool:
        if self.groups is None:
            raise OasisError(f"service {self.name!r} has no group service")
        return self.groups.is_member(principal, group)

    # ---------------------------------------------------------------- peer API

    def gettypes(self, role: str) -> Optional[list[RdlType]]:
        """The section 4.3 ``gettypes`` operation: argument types of a role."""
        for state in self._rolefiles.values():
            if role in state.checker.signatures:
                try:
                    return state.checker.signature(role)
                except Exception:
                    return None
        return None

    def parsename(self, type_name: str, text: str) -> Any:
        """The section 4.3 ``parsename`` operation: parse an object literal."""
        return self.types.lookup(type_name).parse_literal(text)

    def _parse_object(self, type_name: str, text: str) -> Any:
        """Parse a string literal as an object type, resolving foreign
        types through the registry (used for constraint coercion)."""
        if self.types.has(type_name):
            return self.types.lookup(type_name).parse_literal(text)
        if "." in type_name and self.registry is not None:
            peer = self.registry.try_lookup(type_name.split(".", 1)[0])
            if peer is not None and peer.types.has(type_name):
                return peer.parsename(type_name, text)
        raise OasisError(f"cannot parse literal of unknown type {type_name!r}")

    def validate_for_peer(
        self, cert: RoleMembershipCertificate, claimed_client: Optional[ClientId] = None
    ) -> RoleMembershipCertificate:
        """Validate a certificate on behalf of another service
        (section 2.10: services offer to validate RMCs for use elsewhere)."""
        return self.validate(cert, claimed_client=claimed_client)

    # ------------------------------------------------------------- role entry

    def enter_role(
        self,
        client: ClientId,
        role: str,
        args: Optional[tuple] = None,
        credentials: tuple[RoleMembershipCertificate, ...] = (),
        rolefile_id: str = "main",
        vci=None,
    ) -> RoleMembershipCertificate:
        """Standard-form role entry (section 3.2.2).  ``vci`` binds the
        certificate to one of the client's virtual client identifiers so
        only protection domains holding that VCI may use it (2.8.1)."""
        return self._enter(client, [role], args, credentials, None, rolefile_id, vci)

    def enter_roles(
        self,
        client: ClientId,
        roles: list[str],
        args: Optional[tuple] = None,
        credentials: tuple[RoleMembershipCertificate, ...] = (),
        rolefile_id: str = "main",
        vci=None,
    ) -> RoleMembershipCertificate:
        """Enter several roles with one request, returning a compound
        certificate (section 4.3).  All roles must take identical
        arguments (the current implementation's limitation, as in the
        paper)."""
        return self._enter(client, roles, args, credentials, None, rolefile_id, vci)

    def enter_delegated_role(
        self,
        client: ClientId,
        delegation: DelegationCertificate,
        credentials: tuple[RoleMembershipCertificate, ...] = (),
        args: Optional[tuple] = None,
        rolefile_id: str = "main",
    ) -> RoleMembershipCertificate:
        """Election-form role entry: the candidate accepts a delegation by
        using the certificate as a credential (section 4.4).  Implemented
        as a separate call, as the paper notes, because delegation may
        involve many certificates."""
        self._check_delegation_cert(delegation)
        return self._enter(
            client, [delegation.role], args, credentials, delegation, rolefile_id
        )

    def _enter(
        self,
        client: ClientId,
        roles: list[str],
        args: Optional[tuple],
        credentials: tuple[RoleMembershipCertificate, ...],
        delegation: Optional[DelegationCertificate],
        rolefile_id: str,
        vci=None,
    ) -> RoleMembershipCertificate:
        self._shed_if_overloaded("role entry", principal=str(client))
        state = self._rolefile_state(rolefile_id)
        memberships = [self._credential_membership(c, client) for c in credentials]
        results: list[EntryResult] = []
        try:
            for role in roles:
                results.append(
                    state.engine.evaluate(role, args, list(memberships), delegation)
                )
        except EntryDenied:
            self.stats.entries_denied += 1
            raise
        final_args = results[0].membership.args
        for result in results[1:]:
            if result.membership.args != final_args:
                raise EntryDenied(
                    "compound certificates require identical role arguments"
                )
        deps: list[Any] = []
        for result in results:
            for dep in result.membership.deps:
                if dep not in deps:
                    deps.append(dep)
        record = self._build_entry_record(deps, rolefile_id)
        cert = self._issue(
            client, frozenset(roles), final_args, record, state, rolefile_id,
            results[0].statement.head.name, vci=vci,
        )
        if delegation is not None:
            self.audit.record(
                self.clock.now(), AuditKind.DELEGATION_ACCEPTED, str(client),
                f"entered {delegation.role} by delegation",
            )
        return cert

    def _shed_if_overloaded(self, operation: str, principal: Optional[str] = None) -> None:
        """Admission control: refuse work that would *create* credential
        state while the linkage reports this service's outbound
        notifications at their queue bound (section 4.9 coherence depends
        on being able to deliver revocations).  A new membership whose
        revocation could not be delivered is a coherence debt; shedding
        before any state exists is free.  Validation and revocation paths
        never shed — revocations must always land.

        With a :class:`PrincipalAdmission` budget configured, the caller's
        principal is checked first: one noisy tenant sheds on its own
        budget before global backpressure punishes everyone."""
        if (
            self.admission is not None
            and principal is not None
            and not self.admission.admit(principal, self.clock.now())
        ):
            self.stats.entries_shed += 1
            by = self.stats.sheds_by_principal
            by[principal] = by.get(principal, 0) + 1
            raise OverloadError(
                f"service {self.name!r}: principal {principal!r} exceeded its "
                f"admission budget ({self.admission.budget}/"
                f"{self.admission.window}s); {operation} shed"
            )
        jammed = self.linkage.backpressured_of(self.name)
        if jammed:
            self.stats.entries_shed += 1
            if principal is not None:
                by = self.stats.sheds_by_principal
                by[principal] = by.get(principal, 0) + 1
            raise OverloadError(
                f"service {self.name!r} is overloaded: {len(jammed)} outbound "
                f"queue(s) at their bound; {operation} shed"
            )

    def _credential_membership(
        self, cert: RoleMembershipCertificate, client: ClientId
    ) -> Membership:
        """Validate a supplied credential (locally or via its issuer) and
        wrap it for the engine."""
        if cert.issuer == self.name:
            self.validate(cert, claimed_client=client)
        else:
            if self.registry is None:
                raise MisuseError(f"cannot validate certificate from {cert.issuer!r}")
            issuer = self.registry.lookup(cert.issuer)
            issuer.validate_for_peer(cert, claimed_client=client)
        return Membership.from_certificate(cert)

    def _build_entry_record(self, deps: list[Any], rolefile_id: str) -> CredentialRecord:
        """Convert the engine's dependency set into the conjunction record
        of fig 4.6 (exactly one new record per entry)."""
        parents: list[tuple[int, bool]] = []
        for dep in deps:
            if isinstance(dep, CertDep):
                if dep.service == self.name:
                    parents.append((dep.crr, False))
                else:
                    # the credential was validated with its issuer moments
                    # ago (_credential_membership), so the issuer has
                    # vouched TRUE for this record
                    parents.append(
                        (
                            self._external_parent(
                                dep.service, dep.crr, vouched=RecordState.TRUE
                            ),
                            False,
                        )
                    )
            elif isinstance(dep, DelegationDep):
                parents.append((dep.crr, False))
            elif isinstance(dep, GroupDep):
                parents.append((self._group_parent(dep), dep.negate))
            elif isinstance(dep, FuncDep):
                if not isinstance(dep.token, int):
                    raise OasisError(
                        f"watchable function {dep.function!r} returned a "
                        f"non-CRR token {dep.token!r}"
                    )
                parents.append((dep.token, dep.negate))
            elif isinstance(dep, RevokerDep):
                parents.append((self._revoker_parent(dep, rolefile_id), False))
            else:
                raise OasisError(f"unknown dependency {dep!r}")
        record = self.credentials.create_gate(RecordOp.AND, parents, direct_use=True)
        if record.state is not RecordState.TRUE:
            # a membership rule is already false/unknown: deny entry
            self.credentials.revoke(record.ref)
            raise RevokedError(
                "a membership rule does not currently hold",
                uncertain=record.state is RecordState.UNKNOWN,
            )
        return record

    def external_record_for(self, service: str, remote_ref: int) -> int:
        """Public helper: the local surrogate record tracking a remote
        credential record (creates and subscribes on first use).  The
        surrogate reads UNKNOWN until the issuer's first notification
        arrives — fail closed, sections 4.9/4.10."""
        return self._external_parent(service, remote_ref)

    def _external_parent(
        self, service: str, remote_ref: int, vouched: Optional[RecordState] = None
    ) -> int:
        record = self.credentials.create_external(service, remote_ref)
        state = self.linkage.subscribe(self, service, remote_ref)
        if state is RecordState.UNKNOWN and vouched is not None:
            # Asynchronous linkage: the subscription reply is in flight,
            # but the caller holds fresher authoritative knowledge (the
            # issuer just validated the backing certificate).  Feed that
            # in as the first notification; the reply (or a heartbeat
            # loss) corrects us.  Without a voucher the surrogate stays
            # UNKNOWN — never optimistically TRUE.
            state = vouched
        if state is not RecordState.UNKNOWN:
            self.credentials.update_external(service, remote_ref, state)
        return record.ref

    def _group_parent(self, dep: GroupDep) -> int:
        if self.groups is None:
            raise OasisError("group dependency without a group service")
        record = self.groups.membership_record(dep.principal, dep.group)
        if self.groups.credentials is self.credentials:
            return record.ref
        # foreign group service: bridge through an external record kept
        # coherent by an in-process watch (event notification in spirit)
        surrogate = self.credentials.create_external(self.groups.name, record.ref)
        self.credentials.update_external(self.groups.name, record.ref, record.state)
        group_table = self.groups.credentials
        group_name = self.groups.name

        def forward(changed, old, new):
            self.credentials.update_external(group_name, changed.ref, new)

        group_table.watch(record.ref, forward)
        if group_table not in self._bridged_group_tables:
            # bracket the group table's cascades with a batch window on
            # ours: a batched membership purge is then one cascade in
            # both tables, not one per forwarded record
            self._bridged_group_tables.add(group_table)
            group_table.on_cascade(
                self.credentials.begin_batch, self.credentials.end_batch
            )
        return surrogate.ref

    def _revoker_parent(self, dep: RevokerDep, rolefile_id: str) -> int:
        key = (rolefile_id, dep.role, dep.args)
        if key in self._revoked_forever:
            raise EntryDenied(
                f"{dep.role}{dep.args} was revoked by a {dep.revoker_role} "
                f"and has not been reinstated"
            )
        record = self.credentials.create_source(state=RecordState.TRUE)
        self._revocation_db.setdefault(key, []).append((dep.revoker_role, record.ref))
        return record.ref

    def _issue(
        self,
        client: ClientId,
        roles: frozenset[str],
        args: tuple,
        record: CredentialRecord,
        state: _RolefileState,
        rolefile_id: str,
        primary_role: str,
        vci=None,
    ) -> RoleMembershipCertificate:
        sig = state.checker.signature(primary_role)
        args_wire = marshal_args(sig, args)
        now = self.clock.now()
        cert = RoleMembershipCertificate(
            issuer=self.name,
            rolefile_id=rolefile_id,
            roles=roles,
            role_bits=role_bitmask(state.role_order, roles),
            args=args,
            args_wire=args_wire,
            client=client,
            crr=record.ref,
            issued_at=now,
            expires_at=None if self.cert_lifetime is None else now + self.cert_lifetime,
            vci=vci,
        )
        index, signature = self.signer.sign(cert.signed_text())
        cert = cert.with_signature(index, signature)
        self.stats.certificates_issued += 1
        for role in roles:
            self.audit.record(
                now, AuditKind.ROLE_ENTERED, str(client), f"entered {role}{args!r}",
                (role,) + args,
            )
        return cert

    # ------------------------------------------------------------- validation

    def validate(
        self,
        cert: RoleMembershipCertificate,
        claimed_client: Optional[ClientId] = None,
        required_role: Optional[str] = None,
        domain=None,
    ) -> RoleMembershipCertificate:
        """The six checks of section 4.2, classifying failures.

        ``domain``: the presenting protection domain, when locally known.
        A certificate bound to a VCI (section 2.8.1) may only be used by
        a domain entitled to that VCI — the operating-system guarantee,
        checked here when the domain is available."""
        self.stats.validations += 1
        now = self.clock.now()
        try:
            # 4. right service / context
            if cert.issuer != self.name:
                raise MisuseError(
                    f"certificate issued by {cert.issuer!r}, presented to {self.name!r}"
                )
            if cert.rolefile_id not in self._rolefiles:
                raise MisuseError(f"unknown rolefile {cert.rolefile_id!r}")
            # 1. client is acting under its own identifier
            if claimed_client is not None and cert.client != claimed_client:
                raise FraudError(
                    f"certificate bound to {cert.client}, presented by {claimed_client}"
                )
            # 1b. VCI binding (section 2.8.1): credentials associated with
            # a VCI are only usable by domains holding that VCI
            if cert.vci is not None and domain is not None and not domain.may_use(cert.vci):
                raise FraudError(
                    f"certificate bound to {cert.vci}, which the presenting "
                    f"domain may not use"
                )
            if self._validity_cache.check(cert.crr, cert, cert):
                # the very certificate passed full validation before and
                # its record, expiry and secret still hold: skip text
                # encoding, HMAC recomputation and argument re-marshalling
                self.stats.validity_cache_hits += 1
                self.stats.signature_cache_hits += 1   # recomputation avoided
            else:
                # 2/3. forged, modified or stolen -> signature recomputation.
                # The convenience ``args`` field is not signed (its wire
                # form is), so it is part of what the cache vouches for.
                signed = (cert.signed_text(), cert.secret_index, cert.signature)
                cache_key = signed + (cert.args,)
                if (
                    cache_key in self._signature_cache
                    and self.secrets.get(cert.secret_index) is not None
                ):
                    self.stats.signature_cache_hits += 1
                else:
                    self.signer.require_valid(*signed)
                    # the signature covers the marshalled arguments; the
                    # convenience ``args`` field must agree with the wire form
                    primary = sorted(cert.roles)[0]
                    sig_types = self._rolefiles[cert.rolefile_id].checker.signature(primary)
                    try:
                        rewired = marshal_args(sig_types, cert.args)
                    except Exception:
                        raise FraudError("argument values cannot be marshalled") from None
                    if rewired != cert.args_wire:
                        raise FraudError("argument values do not match signed wire form")
                    self._signature_cache.add(cache_key)
                # 6. revocation: expiry and the credential record
                if cert.expires_at is not None and now > cert.expires_at:
                    raise RevokedError("certificate has expired")
                record_state = self.credentials.state_of(cert.crr)
                if record_state is RecordState.FALSE:
                    raise RevokedError("certificate has been revoked")
                if record_state is RecordState.UNKNOWN:
                    raise RevokedError(
                        "certificate may have been revoked (issuer unreachable)",
                        uncertain=True,
                    )
                self._validity_cache.put(cert.crr, cert.crr, cert)
            # 5. sufficient rights for the operation
            if required_role is not None and required_role not in cert.roles:
                raise MisuseError(
                    f"certificate names {sorted(cert.roles)}, {required_role!r} required"
                )
        except FraudError as exc:
            self.audit.record(now, AuditKind.FAIL_FRAUD, str(cert.client), str(exc))
            raise
        except MisuseError as exc:
            self.audit.record(now, AuditKind.FAIL_MISUSE, str(cert.client), str(exc))
            raise
        except RevokedError as exc:
            self.audit.record(now, AuditKind.FAIL_REVOKED, str(cert.client), str(exc))
            raise
        self.audit.record(now, AuditKind.VALIDATION_OK, str(cert.client), "ok")
        return cert

    # ------------------------------------------------------------- delegation

    def delegate(
        self,
        delegator_cert: RoleMembershipCertificate,
        role: str,
        role_args: tuple = (),
        required_roles: tuple[RoleTemplate, ...] = (),
        expires_in: Optional[float] = None,
        revoke_on_exit: bool = False,
        rolefile_id: str = "main",
    ) -> tuple[DelegationCertificate, RevocationCertificate]:
        """Issue a delegation certificate and its revocation certificate
        (section 4.4).  Policy check: the rolefile must contain an
        election statement for ``role`` whose elector role the delegator
        holds."""
        self._shed_if_overloaded(
            "certificate issue", principal=str(delegator_cert.client)
        )
        self.validate(delegator_cert)
        state = self._rolefile_state(rolefile_id)
        elector_role = None
        for stmt in state.rolefile.statements_for(role):
            if stmt.elector is not None and stmt.elector.name in delegator_cert.roles:
                elector_role = stmt.elector.name
                break
        if elector_role is None:
            raise DelegationError(
                f"no election statement allows a holder of "
                f"{sorted(delegator_cert.roles)} to elect to {role!r}"
            )
        now = self.clock.now()
        expires_at = None if expires_in is None else now + expires_in
        if revoke_on_exit:
            # the delegation dies with the delegator's own membership
            delegation_record = self.credentials.create_gate(
                RecordOp.AND, [(delegator_cert.crr, False)], auto_revoke=True
            )
        else:
            delegation_record = self.credentials.create_source(state=RecordState.TRUE)
        if expires_at is not None:
            self._delegation_expiries.append((expires_at, delegation_record.ref))
        delegation = DelegationCertificate(
            issuer=self.name,
            rolefile_id=rolefile_id,
            role=role,
            role_args=role_args,
            required_roles=tuple(required_roles),
            delegation_crr=delegation_record.ref,
            elector_crr=delegator_cert.crr,
            elector_role=elector_role,
            elector_args=delegator_cert.args,
            expires_at=expires_at,
            revoke_on_exit=revoke_on_exit,
            issued_at=now,
        )
        index, signature = self.signer.sign(delegation.signed_text())
        delegation = delegation.with_signature(index, signature)
        revocation = RevocationCertificate(
            issuer=self.name,
            rolefile_id=rolefile_id,
            elector_crr=delegator_cert.crr,
            target_crr=delegation_record.ref,
        )
        index, signature = self.signer.sign(revocation.signed_text())
        revocation = revocation.with_signature(index, signature)
        self.audit.record(
            now, AuditKind.DELEGATION_ISSUED, str(delegator_cert.client),
            f"delegation of {role!r} issued",
        )
        return delegation, revocation

    def _check_delegation_cert(self, delegation: DelegationCertificate) -> None:
        if delegation.issuer != self.name:
            raise MisuseError("delegation certificate from another service")
        self.signer.require_valid(
            delegation.signed_text(), delegation.secret_index, delegation.signature
        )
        now = self.clock.now()
        if delegation.expires_at is not None and now > delegation.expires_at:
            raise RevokedError("delegation certificate has expired")
        if self.credentials.state_of(delegation.delegation_crr) is not RecordState.TRUE:
            raise RevokedError("delegation has been revoked")
        if self.credentials.state_of(delegation.elector_crr) is not RecordState.TRUE:
            raise RevokedError("the delegator no longer holds the electing role")

    def revoke(self, revocation: RevocationCertificate) -> None:
        """Honour a revocation certificate (fig 4.3 right): the holder
        must still be a member of the delegating role."""
        if revocation.issuer != self.name:
            raise MisuseError("revocation certificate from another service")
        self.signer.require_valid(
            revocation.signed_text(), revocation.secret_index, revocation.signature
        )
        if self.credentials.state_of(revocation.elector_crr) is not RecordState.TRUE:
            raise RevokedError("revoker no longer holds the delegating role")
        self.credentials.revoke(revocation.target_crr)
        self.audit.record(self.clock.now(), AuditKind.REVOCATION, None, "delegation revoked")

    def reissue_revocation(
        self,
        revocation: RevocationCertificate,
        new_holder_cert: RoleMembershipCertificate,
    ) -> RevocationCertificate:
        """Delegate the right to revoke (section 4.4): permitted only to
        another member of the elector role, which is a fixed policy."""
        if revocation.issuer != self.name:
            raise MisuseError("revocation certificate from another service")
        self.signer.require_valid(
            revocation.signed_text(), revocation.secret_index, revocation.signature
        )
        self.validate(new_holder_cert)
        fresh = RevocationCertificate(
            issuer=self.name,
            rolefile_id=revocation.rolefile_id,
            elector_crr=new_holder_cert.crr,
            target_crr=revocation.target_crr,
        )
        index, signature = self.signer.sign(fresh.signed_text())
        return fresh.with_signature(index, signature)

    # ------------------------------------------------- role-based revocation

    def revoke_role_instance(
        self,
        revoker_cert: RoleMembershipCertificate,
        role: str,
        args: tuple,
        rolefile_id: str = "main",
    ) -> int:
        """Role-based revocation (sections 3.3.2, 4.11): a holder of the
        revoker role kills every live membership of ``role(args)`` and
        bars re-entry until reinstated.  Returns memberships revoked."""
        self.validate(revoker_cert)
        state = self._rolefile_state(rolefile_id)
        allowed = any(
            stmt.revoker is not None
            and stmt.head.name == role
            and stmt.revoker.name in revoker_cert.roles
            for stmt in state.rolefile.statements_for(role)
        )
        if not allowed:
            raise MisuseError(
                f"holders of {sorted(revoker_cert.roles)} may not revoke {role!r}"
            )
        key = (rolefile_id, role, args)
        refs = [
            ref
            for revoker_role, ref in self._revocation_db.pop(key, [])
            if revoker_role in revoker_cert.roles
        ]
        # every live membership of role(args) dies in one cascade
        revoked = self.credentials.revoke_many(refs)
        self._revoked_forever.add(key)
        self.audit.record(
            self.clock.now(), AuditKind.ROLE_REVOKED, str(revoker_cert.client),
            f"revoked {role}{args!r}", (role,) + args,
        )
        return revoked

    def reinstate_role_instance(
        self,
        revoker_cert: RoleMembershipCertificate,
        role: str,
        args: tuple,
        rolefile_id: str = "main",
    ) -> None:
        """Remove a role instance from the revoked-forever database:
        the *hire, fire, re-hire* semantics of section 4.11."""
        self.validate(revoker_cert)
        key = (rolefile_id, role, args)
        self._revoked_forever.discard(key)

    # ----------------------------------------------------------------- lifecycle

    def exit_role(self, cert: RoleMembershipCertificate) -> None:
        """A client voluntarily gives up a membership (e.g. logging off).
        Delegations flagged revoke-on-exit cascade automatically."""
        self.exit_roles([cert])

    def exit_roles(self, certs: Iterable[RoleMembershipCertificate]) -> int:
        """Exit many memberships in one cascade (a host shutting down, a
        session group logging off).  Each certificate is validated; the
        backing records are then revoked with a single settling pass.
        Returns the number of memberships exited."""
        validated = [self.validate(cert) for cert in certs]
        self.credentials.revoke_many([cert.crr for cert in validated])
        now = self.clock.now()
        for cert in validated:
            for role in cert.roles:
                self.audit.record(
                    now, AuditKind.ROLE_EXITED, str(cert.client),
                    f"exited {role}", (role,) + cert.args,
                )
        return len(validated)

    def attach_journal(self, journal) -> None:
        """Make ``journal`` this service's durable write-ahead log.

        From here on every effective credential mutation is journaled
        before it is applied (the table's ``wal`` hook) and the audit
        log records through the journal with only a bounded hot window
        in memory.  Called by ``SimLinkage.attach``, which also wires
        the outbox relay."""
        self.journal = journal
        self.credentials.wal = lambda kind, data: journal.append(kind, data)
        self.audit.attach_journal(journal)

    def on_restart(self, callback: Callable[[], None]) -> None:
        """Register a hook fired after :meth:`restart` bumps the epoch.

        Subsystems holding volatile derived state other than pinned
        caches (which :meth:`restart` flushes itself) register here so a
        crash-restart drops it before any post-restart request is served.
        """
        self._restart_hooks.append(callback)

    def restart(self) -> int:
        """Model a crash-restart of this service's process.

        The boot epoch is bumped — the restarted service is a *new*
        party as far as peers are concerned (section 2's
        ``(host, id, boot_time)`` identity) — and every cached
        validation outcome is dropped, pinned caches of custodes and
        replicas included: caches are process memory and do not survive
        a crash.  The credential record table itself models
        the service's durable database and persists.  Returns the new
        epoch.
        """
        self.boot_epoch += 1
        self.clear_validation_caches()
        for callback in self._restart_hooks:
            callback()
        return self.boot_epoch

    def tick(self) -> int:
        """Periodic maintenance: expire delegations, roll secrets, sweep
        the credential table.  Returns delegations expired."""
        now = self.clock.now()
        due: list[int] = []
        remaining: list[tuple[float, int]] = []
        for expires_at, ref in self._delegation_expiries:
            if now >= expires_at:
                due.append(ref)
            else:
                remaining.append((expires_at, ref))
        self._delegation_expiries = remaining
        # all delegations expiring this tick fall in one cascade
        expired = self.credentials.revoke_many(due)
        self.secrets.maybe_roll()
        self.credentials.sweep()
        return expired

    @property
    def cascade_stats(self) -> CascadeStats:
        """Metrics of the most recent revocation/state-change cascade
        through this service's credential records."""
        return self.credentials.last_cascade

    def cache_counters(self) -> dict[str, "CacheCounters"]:
        """Uniform efficacy snapshots of every validation-path cache
        (per-replica observability for the shard bench): the validity
        short-circuit, the signature-integrity cache, and each rolefile
        engine's compiled-plan cache."""
        counters = {
            "validity": self._validity_cache.counters(),
            "signature": self._signature_cache.counters(),
        }
        for rolefile_id, state in self._rolefiles.items():
            counters[f"plans:{rolefile_id}"] = state.engine.cache_counters()
        return counters

    # ------------------------------------------------------------------ events

    def _on_record_change(self, changes: list[Change]) -> None:
        # A certificate-backing record that goes FALSE is revoked for good:
        # the client must request a replacement (section 5.5.2, "non-fatal
        # revocation").  UNKNOWN does not latch — it recovers when the
        # heartbeat is restored.  The round's latches are one revocation
        # (one WAL record) and its notifications one publish.
        latch = [
            record.ref for record, _old, new in changes
            if new is RecordState.FALSE and record.direct_use and not record.permanent
        ]
        if latch:
            self.credentials.revoke_many(latch)
        notices = [
            (record.ref, new, sorted(record.subscribers))
            for record, _old, new in changes if record.subscribers
        ]
        if notices:
            self.linkage.publish(self, notices)

    # ------------------------------------------------------------------ helpers

    def _rolefile_state(self, rolefile_id: str) -> _RolefileState:
        state = self._rolefiles.get(rolefile_id)
        if state is None:
            raise MisuseError(f"service {self.name!r} has no rolefile {rolefile_id!r}")
        return state

    def rolefile(self, rolefile_id: str = "main") -> Rolefile:
        return self._rolefile_state(rolefile_id).rolefile

    def __repr__(self) -> str:
        return f"<OasisService {self.name!r} rolefiles={sorted(self._rolefiles)}>"
