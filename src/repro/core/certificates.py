"""Certificate formats (sections 4.3-4.4, figs 4.2 and 4.3).

Three kinds of signed statement are issued by an Oasis service:

* :class:`RoleMembershipCertificate` (RMC) — a process-specific capability
  entitling a client to act under the authority of one or more roles.
  May be *compound* (a set of roles entered with one request, e.g. Chair
  and Member); roles are carried both as names and as a bitmask whose
  mapping is fixed service configuration.
* :class:`DelegationCertificate` — created at the delegator's request;
  passed to the candidate, who accepts by using it as a credential when
  entering the named role.  Candidates are identified *by roles they
  hold*, not by low-level identifiers, so delegation can outlive client
  identifiers and cannot be redirected to an imposter.
* :class:`RevocationCertificate` — returned to the delegator as a side
  effect; holds two CRRs: one proving the delegator is still a member of
  the delegating role, and one naming the credential record to invalidate.

All certificates carry the signing-secret index and signature; the text
signed is the deterministic encoding produced by ``signed_text()``.
Issuers build each certificate signed, in one step (the ``signed``
class methods): the text is encoded once, signed, and memoised on the
certificate, so its first validation does not encode it again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.identifiers import ClientId, VCI

if TYPE_CHECKING:
    from repro.core.secrets import Signer


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _encode_client(client: Optional[ClientId]) -> bytes:
    if client is None:
        return b"\x00"
    return b"\x01" + _encode_str(client.host) + struct.pack(">qq", client.id, client.boot_time)


def _memoised(cert, text: bytes):
    """Attach ``text`` as ``cert``'s signed text.  The slot is not a
    dataclass field, so equality, hashing and ``dataclasses.replace``
    (which builds a copy without it) are untouched."""
    object.__setattr__(cert, "_signed_text", text)
    return cert


def membership_text_prefix(
    issuer: str, rolefile_id: str, role_bits: int, roles: frozenset[str]
) -> bytes:
    """The leading part of a role membership certificate's signed text:
    everything fixed by the issuer, the rolefile and the role set, so an
    issuer can encode it once per (rolefile, role set)."""
    parts = [
        b"RMC1",
        _encode_str(issuer),
        _encode_str(rolefile_id),
        struct.pack(">I", role_bits),
    ]
    for name in sorted(roles):
        parts.append(_encode_str(name))
    return b"".join(parts)


def _membership_text_suffix(
    args_wire: bytes,
    client: ClientId,
    crr: int,
    issued_at: float,
    expires_at: Optional[float],
    vci: Optional[VCI],
) -> bytes:
    """The rest of the signed text: what differs per certificate."""
    if vci is None:
        vci_part = b"\x00"
    else:
        vci_part = b"\x01" + _encode_str(vci.host) + struct.pack(">q", vci.number)
    return b"".join((
        args_wire,
        _encode_client(client),
        struct.pack(">Qdd", crr, issued_at, -1.0 if expires_at is None else expires_at),
        vci_part,
    ))


@dataclass(frozen=True)
class RoleTemplate:
    """A role pattern used to identify delegation candidates (section 4.4).

    ``args`` entries of None are wild cards; anything else must match the
    candidate certificate's argument exactly (compared in marshalled form
    upstream; here values are already unmarshalled).
    """

    service: str
    role: str
    args: tuple = ()

    def matches(self, service: str, roles: frozenset[str], args: tuple) -> bool:
        if service != self.service or self.role not in roles:
            return False
        if len(self.args) > len(args):
            return False
        return all(
            want is None or want == got for want, got in zip(self.args, args)
        )

    def encode(self) -> bytes:
        parts = [_encode_str(self.service), _encode_str(self.role), struct.pack(">I", len(self.args))]
        for value in self.args:
            parts.append(_encode_str("*" if value is None else repr(value)))
        return b"".join(parts)


@dataclass(frozen=True)
class RoleMembershipCertificate:
    """Format of fig 4.2: Roles | Args | CRR | Signature, plus context."""

    issuer: str                     # instance of the issuing service
    rolefile_id: str                # scope (section 2.10)
    roles: frozenset[str]           # compound certificates carry a set
    role_bits: int                  # fixed mapping from service config
    args: tuple                     # unmarshalled argument values
    args_wire: bytes                # host-independent marshalled arguments
    client: ClientId                # bound client identifier
    crr: int                        # credential record reference (8 bytes)
    issued_at: float
    expires_at: Optional[float]
    vci: Optional[VCI] = None       # task binding (section 2.8.1)
    secret_index: int = 0
    signature: bytes = b""

    @classmethod
    def signed(
        cls,
        signer: "Signer",
        prefix: bytes,
        *,
        issuer: str,
        rolefile_id: str,
        roles: frozenset[str],
        role_bits: int,
        args: tuple,
        args_wire: bytes,
        client: ClientId,
        crr: int,
        issued_at: float,
        expires_at: Optional[float],
        vci: Optional[VCI] = None,
    ) -> "RoleMembershipCertificate":
        """Sign and build a certificate in one step.  ``prefix`` is
        :func:`membership_text_prefix` of (issuer, rolefile_id,
        role_bits, roles), which the issuer encodes once per role set;
        the text signed is that prefix plus this certificate's suffix,
        and it is memoised on the certificate."""
        text = prefix + _membership_text_suffix(
            args_wire, client, crr, issued_at, expires_at, vci
        )
        secret_index, signature = signer.sign(text)
        return _memoised(cls(
            issuer, rolefile_id, roles, role_bits, args, args_wire, client,
            crr, issued_at, expires_at, vci, secret_index, signature,
        ), text)

    def signed_text(self) -> bytes:
        """Deterministic bytes covered by the signature (fig 4.1: the
        certificate text, client id and rolefile are all bound in).

        Memoised per certificate object: validation recomputes signatures
        over this text on every presentation, and the encoding is a pure
        function of the (frozen) fields.  The cache slot is not a
        dataclass field, so equality and hashing are untouched."""
        cached = getattr(self, "_signed_text", None)
        if cached is not None:
            return cached
        text = membership_text_prefix(
            self.issuer, self.rolefile_id, self.role_bits, self.roles
        ) + _membership_text_suffix(
            self.args_wire, self.client, self.crr, self.issued_at,
            self.expires_at, self.vci,
        )
        _memoised(self, text)
        return text

    def names_role(self, role: str) -> bool:
        return role in self.roles

    def __str__(self) -> str:
        roles = "+".join(sorted(self.roles))
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.issuer}.{roles}({args}) for {self.client}"


@dataclass(frozen=True)
class DelegationCertificate:
    """Format of fig 4.3 (left): what a candidate presents to enter a role."""

    issuer: str
    rolefile_id: str
    role: str                        # role the candidate may enter
    role_args: tuple                 # fixed arguments chosen by delegator ( () = any )
    required_roles: tuple[RoleTemplate, ...]   # candidate must hold all of these
    delegation_crr: int              # record representing 'not revoked'
    elector_crr: int                 # record backing the delegator's own role
    elector_role: str                # role held by the delegator
    expires_at: Optional[float]      # safety time limit (section 4.4)
    revoke_on_exit: bool             # revoke if the delegator exits their role
    elector_args: tuple = ()         # the delegator's role arguments
    issued_at: float = 0.0
    secret_index: int = 0
    signature: bytes = b""

    @classmethod
    def signed(
        cls,
        signer: "Signer",
        *,
        issuer: str,
        rolefile_id: str,
        role: str,
        role_args: tuple,
        required_roles: tuple[RoleTemplate, ...],
        delegation_crr: int,
        elector_crr: int,
        elector_role: str,
        expires_at: Optional[float],
        revoke_on_exit: bool,
        elector_args: tuple = (),
        issued_at: float = 0.0,
    ) -> "DelegationCertificate":
        """Sign and build a delegation certificate in one step, its
        signed text memoised."""
        text = _delegation_text(
            issuer, rolefile_id, role, role_args, required_roles,
            delegation_crr, elector_crr, elector_role, elector_args,
            expires_at, revoke_on_exit, issued_at,
        )
        secret_index, signature = signer.sign(text)
        return _memoised(cls(
            issuer, rolefile_id, role, role_args, required_roles,
            delegation_crr, elector_crr, elector_role, expires_at,
            revoke_on_exit, elector_args, issued_at, secret_index, signature,
        ), text)

    def signed_text(self) -> bytes:
        cached = getattr(self, "_signed_text", None)
        if cached is not None:
            return cached
        text = _delegation_text(
            self.issuer, self.rolefile_id, self.role, self.role_args,
            self.required_roles, self.delegation_crr, self.elector_crr,
            self.elector_role, self.elector_args, self.expires_at,
            self.revoke_on_exit, self.issued_at,
        )
        _memoised(self, text)
        return text


def _delegation_text(
    issuer: str,
    rolefile_id: str,
    role: str,
    role_args: tuple,
    required_roles: tuple[RoleTemplate, ...],
    delegation_crr: int,
    elector_crr: int,
    elector_role: str,
    elector_args: tuple,
    expires_at: Optional[float],
    revoke_on_exit: bool,
    issued_at: float,
) -> bytes:
    parts = [
        b"DLG1",
        _encode_str(issuer),
        _encode_str(rolefile_id),
        _encode_str(role),
        struct.pack(">I", len(role_args)),
    ]
    for value in role_args:
        parts.append(_encode_str(repr(value)))
    parts.append(struct.pack(">I", len(required_roles)))
    for template in required_roles:
        parts.append(template.encode())
    parts.append(struct.pack(">QQ", delegation_crr, elector_crr))
    parts.append(_encode_str(elector_role))
    parts.append(struct.pack(">I", len(elector_args)))
    for value in elector_args:
        parts.append(_encode_str(repr(value)))
    parts.append(struct.pack(">d", -1.0 if expires_at is None else expires_at))
    parts.append(b"\x01" if revoke_on_exit else b"\x00")
    parts.append(struct.pack(">d", issued_at))
    return b"".join(parts)


@dataclass(frozen=True)
class RevocationCertificate:
    """Format of fig 4.3 (right): the delegator's handle for revoking.

    ``elector_crr`` must still be TRUE for the revocation to be honoured
    (the revoker must still hold the delegating role); ``target_crr`` is
    the credential record to invalidate.
    """

    issuer: str
    rolefile_id: str
    elector_crr: int
    target_crr: int
    secret_index: int = 0
    signature: bytes = b""

    @classmethod
    def signed(
        cls,
        signer: "Signer",
        *,
        issuer: str,
        rolefile_id: str,
        elector_crr: int,
        target_crr: int,
    ) -> "RevocationCertificate":
        """Sign and build a revocation certificate in one step, its
        signed text memoised."""
        text = _revocation_text(issuer, rolefile_id, elector_crr, target_crr)
        secret_index, signature = signer.sign(text)
        return _memoised(
            cls(issuer, rolefile_id, elector_crr, target_crr, secret_index, signature),
            text,
        )

    def signed_text(self) -> bytes:
        cached = getattr(self, "_signed_text", None)
        if cached is not None:
            return cached
        text = _revocation_text(
            self.issuer, self.rolefile_id, self.elector_crr, self.target_crr
        )
        _memoised(self, text)
        return text


def _revocation_text(
    issuer: str, rolefile_id: str, elector_crr: int, target_crr: int
) -> bytes:
    return (
        b"RVK1"
        + _encode_str(issuer)
        + _encode_str(rolefile_id)
        + struct.pack(">QQ", elector_crr, target_crr)
    )


def role_bitmask(role_order: list[str], roles: frozenset[str]) -> int:
    """Compute the bitmask for a compound certificate.

    ``role_order`` is fixed configuration supplied when a service is
    initialised; the mapping must not change during the service lifetime
    (section 4.3)."""
    bits = 0
    for name in roles:
        try:
            bits |= 1 << role_order.index(name)
        except ValueError:
            raise KeyError(f"role {name!r} has no configured bit") from None
    return bits
