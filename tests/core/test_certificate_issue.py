"""Certificates are built signed, in one step, with their signed text
memoised: the memo must be byte for byte the text a fresh encoding of
the certificate's fields gives, so validation of an issued certificate
and of a copy that arrives without the memo check the same bytes."""

import dataclasses

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.types import ObjectType
from repro.errors import FraudError
from repro.runtime.clock import ManualClock

RDL = """
import Login.userid
def Person(u, r)  u: userid  r: {rw}
def Chair(u, r)  u: userid  r: {wrx}
def Member(u, r)  u: userid  r: {rw}
Person(u, r) <-
Chair(u, r) <-
Member(u, r) <- Person(u, r)
Guest(u, r) <- Person(u, r)* <|* Chair(c, s)
"""


def make_service(lifetime=None):
    registry = ServiceRegistry()
    clock = ManualClock(100.0)
    login = OasisService("Login", registry=registry, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    svc = OasisService("Meet", registry=registry, clock=clock, cert_lifetime=lifetime)
    svc.add_rolefile("main", RDL)
    return svc


def memo(cert) -> bytes:
    return cert.__dict__["_signed_text"]


def fresh_text(cert) -> bytes:
    """The signed text a copy without the memo encodes."""
    copy = dataclasses.replace(cert)
    assert "_signed_text" not in copy.__dict__
    return copy.signed_text()


def issued(lifetime, with_vci):
    """One certificate from each issue path: enter_role, a compound
    enter_roles and enter_delegated_role."""
    svc = make_service(lifetime)
    host = HostOS("ely")
    chair_domain = host.create_domain()
    guest_domain = host.create_domain()
    vci = chair_domain.new_vci() if with_vci else None
    chair = chair_domain.client_id
    person = svc.enter_role(chair, "Person", ("jmb", frozenset("w")), vci=vci)
    compound = svc.enter_roles(
        chair, ["Member", "Chair"], ("jmb", frozenset("w")), credentials=(person,), vci=vci
    )
    guest_person = svc.enter_role(guest_domain.client_id, "Person", ("dm", frozenset("r")))
    delegation, revocation = svc.delegate(compound, "Guest")
    guest = svc.enter_delegated_role(
        guest_domain.client_id, delegation, credentials=(guest_person,)
    )
    return svc, [person, compound, guest], delegation, revocation


@pytest.mark.parametrize("lifetime", [None, 60.0])
@pytest.mark.parametrize("with_vci", [False, True])
def test_memoised_text_is_the_fresh_encoding(lifetime, with_vci):
    svc, certs, delegation, revocation = issued(lifetime, with_vci)
    for cert in certs:
        assert memo(cert) == fresh_text(cert)
        assert (cert.expires_at is not None) == (lifetime is not None)
        svc.validate(cert)
    assert [c.vci is not None for c in certs] == [with_vci, with_vci, False]
    assert memo(delegation) == fresh_text(delegation)
    assert memo(revocation) == fresh_text(revocation)
    reissued = svc.reissue_revocation(revocation, certs[1])
    assert memo(reissued) == fresh_text(reissued)
    # the copies without the memo validate too, from their own encoding
    svc.clear_validation_caches()
    for cert in certs:
        svc.validate(dataclasses.replace(cert))
    svc.revoke(dataclasses.replace(reissued))


@pytest.mark.parametrize("field, value", [
    ("issued_at", 1.0),
    ("crr", 12345),
    ("role_bits", 0),
    ("roles", frozenset({"Chair"})),
    ("args", ("jmb", frozenset("rw"))),
    ("args_wire", b"\x00\x00\x00\x00"),
    ("rolefile_id", "main2"),
])
def test_a_copy_with_one_field_changed_fails_validation(field, value):
    svc, certs, _, _ = issued(60.0, False)
    compound = certs[1]
    if field == "rolefile_id":
        svc.add_rolefile("main2", RDL)
    forged = dataclasses.replace(compound, **{field: value})
    with pytest.raises(FraudError):
        svc.validate(forged)


def test_a_reload_with_another_role_order_issues_new_role_bits():
    svc = OasisService("S", clock=ManualClock())
    svc.add_rolefile("main", "def A(x)  x: integer\ndef B(x)  x: integer\nA(x) <-\nB(x) <-\n")
    client = HostOS("h").create_domain().client_id
    before = svc.enter_role(client, "A", (1,))
    svc.add_rolefile("main", "def B(x)  x: integer\ndef A(x)  x: integer\nA(x) <-\nB(x) <-\n")
    after = svc.enter_role(client, "A", (1,))
    assert (before.role_bits, after.role_bits) == (0b01, 0b10)
    assert memo(after) == fresh_text(after)
    svc.validate(after)
