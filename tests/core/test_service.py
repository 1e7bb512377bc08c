"""Integration tests for OasisService: the chapter 3-4 scenarios."""

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.audit import AuditKind
from repro.core.certificates import RoleTemplate
from repro.core.credentials import RecordState
from repro.core.linkage import LocalLinkage
from repro.errors import (
    DelegationError,
    EntryDenied,
    FraudError,
    MisuseError,
    RevokedError,
)
from repro.runtime.clock import ManualClock


class TestBasicEntry:
    def test_enter_role_issues_certificate(self, world):
        assert world.jmb_login.names_role("LoggedOn")
        assert world.jmb_login.args[1] == "ely"
        assert world.jmb_login.issuer == "Login"

    def test_chair_entry_with_foreign_credential(self, world):
        cert = world.conf.enter_role(
            world.jmb.client_id, "Chair", credentials=(world.jmb_login,)
        )
        assert cert.names_role("Chair")
        world.conf.validate(cert, claimed_client=world.jmb.client_id)

    def test_wrong_user_denied_chair(self, world):
        with pytest.raises(EntryDenied):
            world.conf.enter_role(
                world.dm.client_id, "Chair", credentials=(world.dm_login,)
            )

    def test_entry_without_credentials_denied(self, world):
        with pytest.raises(EntryDenied):
            world.conf.enter_role(world.dm.client_id, "Chair")

    def test_one_record_created_per_entry(self, world):
        """Section 4.7: one new credential record per role entry."""
        before = world.conf.credentials.records_created
        world.conf.enter_role(
            world.jmb.client_id, "Chair", credentials=(world.jmb_login,)
        )
        created = world.conf.credentials.records_created - before
        # one conjunction record plus one external surrogate for the
        # Login-issued credential
        assert created <= 2


class TestValidation:
    def test_wrong_client_is_fraud(self, world):
        with pytest.raises(FraudError):
            world.login.validate(world.jmb_login, claimed_client=world.dm.client_id)

    def test_tampered_args_is_fraud(self, world):
        import dataclasses
        forged = dataclasses.replace(world.jmb_login, args=("root", "ely"))
        with pytest.raises(FraudError):
            world.login.validate(forged)

    def test_wrong_service_is_misuse(self, world):
        with pytest.raises(MisuseError):
            world.conf.validate(world.jmb_login)

    def test_insufficient_role_is_misuse(self, world):
        with pytest.raises(MisuseError):
            world.login.validate(world.jmb_login, required_role="Admin")

    def test_signature_cache_hit_on_revalidation(self, world):
        world.login.validate(world.jmb_login)
        before = world.login.stats.signature_cache_hits
        world.login.validate(world.jmb_login)
        assert world.login.stats.signature_cache_hits == before + 1

    def test_expired_certificate_revoked(self):
        clock = ManualClock()
        svc = OasisService("S", clock=clock, cert_lifetime=10.0)
        svc.add_rolefile("main", "def Anon(n)  n: integer\nAnon(n) <- ")
        host = HostOS("h")
        cert = svc.enter_role(host.create_domain().client_id, "Anon", (1,))
        svc.validate(cert)
        clock.advance(11.0)
        with pytest.raises(RevokedError):
            svc.validate(cert)

    def test_failure_classes_audited_separately(self, world):
        """Section 4.2: fraud and misuse are distinguished from revocation."""
        try:
            world.login.validate(world.jmb_login, claimed_client=world.dm.client_id)
        except FraudError:
            pass
        try:
            world.conf.validate(world.jmb_login)
        except MisuseError:
            pass
        assert len(world.login.audit.entries(AuditKind.FAIL_FRAUD)) == 1
        assert len(world.conf.audit.entries(AuditKind.FAIL_MISUSE)) == 1


class TestDelegation:
    def chair(self, world):
        return world.conf.enter_role(
            world.jmb.client_id, "Chair", credentials=(world.jmb_login,)
        )

    def test_delegation_and_entry(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        assert member.names_role("Member")
        assert member.args == (world.uid("dm"),)

    def test_non_elector_cannot_delegate(self, world):
        # dm holds no Conf role at all; craft via LoggedOn-only entry fails
        with pytest.raises(EntryDenied):
            world.conf.enter_role(
                world.dm.client_id, "Member", credentials=(world.dm_login,)
            )

    def test_delegate_requires_election_statement(self, world):
        chair = self.chair(world)
        with pytest.raises(DelegationError):
            world.conf.delegate(chair, "Chair")

    def test_revocation_certificate_revokes(self, world):
        chair = self.chair(world)
        deleg, revoc = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.conf.revoke(revoc)
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_revoked_delegation_cannot_be_accepted(self, world):
        chair = self.chair(world)
        deleg, revoc = world.conf.delegate(chair, "Member")
        world.conf.revoke(revoc)
        with pytest.raises(RevokedError):
            world.conf.enter_delegated_role(
                world.dm.client_id, deleg, credentials=(world.dm_login,)
            )

    def test_group_change_revokes_membership(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.groups.remove_member("staff", world.uid("dm"))
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_non_staff_candidate_denied(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        world.groups.remove_member("staff", world.uid("dm"))
        with pytest.raises(EntryDenied):
            world.conf.enter_delegated_role(
                world.dm.client_id, deleg, credentials=(world.dm_login,)
            )

    def test_logout_cascades_across_services(self, world):
        """Fig 4.8: revocation in the Login service propagates to the
        conference via external records and event notification."""
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.login.exit_role(world.dm_login)
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_delegation_time_limit(self, world):
        """Section 4.4: a time limit guards against lost revocation
        certificates."""
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member", expires_in=100.0)
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.clock.advance(101.0)
        world.conf.tick()
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_expired_delegation_cert_rejected_at_entry(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member", expires_in=10.0)
        world.clock.advance(11.0)
        with pytest.raises(RevokedError):
            world.conf.enter_delegated_role(
                world.dm.client_id, deleg, credentials=(world.dm_login,)
            )

    def test_revoke_on_exit(self, world):
        """Section 4.4: revocation when the delegator exits their role."""
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member", revoke_on_exit=True)
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.conf.exit_role(chair)
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_without_revoke_on_exit_membership_survives(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.conf.exit_role(chair)
        # the <|* star makes the *delegation* a membership rule, but the
        # delegation itself was not tied to the chair's session
        world.conf.validate(member)

    def test_required_roles_enforced(self, world):
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(
            chair,
            "Member",
            required_roles=(RoleTemplate("Login", "LoggedOn", (world.uid("other"), None)),),
        )
        with pytest.raises(EntryDenied):
            world.conf.enter_delegated_role(
                world.dm.client_id, deleg, credentials=(world.dm_login,)
            )

    def test_revoker_must_still_hold_role(self, world):
        chair = self.chair(world)
        deleg, revoc = world.conf.delegate(chair, "Member")
        world.conf.exit_role(chair)
        with pytest.raises(RevokedError):
            world.conf.revoke(revoc)

    def test_reissue_revocation_to_other_elector(self, world):
        chair = self.chair(world)
        deleg, revoc = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        # a second chair session takes over the revocation right
        chair2 = world.conf.enter_role(
            world.jmb.client_id, "Chair", credentials=(world.jmb_login,)
        )
        revoc2 = world.conf.reissue_revocation(revoc, chair2)
        world.conf.exit_role(chair)
        world.conf.revoke(revoc2)
        with pytest.raises(RevokedError):
            world.conf.validate(member)

    def test_refresh_after_nonfatal_revocation(self, world):
        """Section 5.5.2: a delegated client re-applies to the server, not
        the elector, because the delegation certificate remains valid."""
        chair = self.chair(world)
        deleg, _ = world.conf.delegate(chair, "Member")
        member = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.groups.remove_member("staff", world.uid("dm"))
        world.groups.add_member("staff", world.uid("dm"))
        with pytest.raises(RevokedError):
            world.conf.validate(member)
        fresh = world.conf.enter_delegated_role(
            world.dm.client_id, deleg, credentials=(world.dm_login,)
        )
        world.conf.validate(fresh)


class TestCompoundCertificates:
    def test_chair_and_member_in_one_certificate(self):
        """Section 4.3: a Chair is likely also a Member; both roles can be
        entered with a single request."""
        clock = ManualClock()
        svc = OasisService("Meet", clock=clock)
        svc.add_rolefile("main", """
def Person(p)  p: string
Person(p) <-
Chair(p) <- Person(p)
Member(p) <- Person(p)
""")
        host = HostOS("h")
        client = host.create_domain().client_id
        person = svc.enter_role(client, "Person", ("fred",))
        cert = svc.enter_roles(client, ["Chair", "Member"], ("fred",), credentials=(person,))
        assert cert.roles == frozenset({"Chair", "Member"})
        assert cert.role_bits != 0
        svc.validate(cert, required_role="Chair")
        svc.validate(cert, required_role="Member")

    def test_compound_certificate_validates_in_either_request_order(self):
        """Set alphabets marshal as bit positions: {w} is bit 1 of A's
        {rw} and bit 0 of B's {wrx}.  Issue marshals a compound
        certificate by the same role validation does (its alphabetically
        first), whichever order the roles were requested in."""
        svc = OasisService("S", clock=ManualClock())
        svc.add_rolefile("main", """
def A(r)  r: {rw}
def B(r)  r: {wrx}
A(r) <-
B(r) <-
""")
        client = HostOS("h").create_domain().client_id
        for order in (["B", "A"], ["A", "B"]):
            cert = svc.enter_roles(client, order, (frozenset("w"),))
            svc.validate(cert, claimed_client=client)
            assert cert.roles == frozenset({"A", "B"})
        assert svc.audit.entries(AuditKind.FAIL_FRAUD) == []

    def test_compound_requires_identical_args(self):
        svc = OasisService("S")
        svc.add_rolefile("main", """
def A(x)  x: integer
def B(x)  x: integer
A(x) <-
B(7) <-
""")
        host = HostOS("h")
        with pytest.raises(EntryDenied):
            svc.enter_roles(host.create_domain().client_id, ["A", "B"], (3,))


class TestRoleBasedRevocation:
    """Sections 3.3.2 / 4.11: hire, fire, re-hire."""

    def make_meeting(self):
        svc = OasisService("Meeting")
        svc.add_rolefile("main", """
def Person(p)  p: string
Person(p) <-
Chair(p) <- Person(p) : p == "boss"
Candidate(p) <- Person(p)
Member(p) <- Candidate(p) |> Chair
""")
        host = HostOS("h")
        boss = host.create_domain().client_id
        fred = host.create_domain().client_id
        person_boss = svc.enter_role(boss, "Person", ("boss",))
        self.person_fred = svc.enter_role(fred, "Person", ("fred",))
        chair = svc.enter_role(boss, "Chair", ("boss",), credentials=(person_boss,))
        member = svc.enter_role(
            fred, "Member", ("fred",), credentials=(self.person_fred,)
        )
        return svc, boss, fred, chair, member

    def test_chair_ejects_member(self):
        svc, boss, fred, chair, member = self.make_meeting()
        revoked = svc.revoke_role_instance(chair, "Member", ("fred",))
        assert revoked == 1
        with pytest.raises(RevokedError):
            svc.validate(member)

    def test_revocation_bars_reentry(self):
        svc, boss, fred, chair, member = self.make_meeting()
        svc.revoke_role_instance(chair, "Member", ("fred",))
        with pytest.raises(EntryDenied):
            svc.enter_role(fred, "Member", ("fred",), credentials=(self.person_fred,))

    def test_reinstate_allows_rehire(self):
        svc, boss, fred, chair, member = self.make_meeting()
        svc.revoke_role_instance(chair, "Member", ("fred",))
        svc.reinstate_role_instance(chair, "Member", ("fred",))
        fresh = svc.enter_role(
            fred, "Member", ("fred",), credentials=(self.person_fred,)
        )
        svc.validate(fresh)

    def test_non_revoker_role_denied(self):
        svc, boss, fred, chair, member = self.make_meeting()
        with pytest.raises(MisuseError):
            svc.revoke_role_instance(member, "Member", ("fred",))

    def test_revoker_identity_unneeded(self):
        """The revoker names the role instance by its parameters; they
        need not know the client's identity (section 3.3.2)."""
        svc, boss, fred, chair, member = self.make_meeting()
        # a second, different member
        host = HostOS("h2")
        mary = host.create_domain().client_id
        person_mary = svc.enter_role(mary, "Person", ("mary",))
        mary_member = svc.enter_role(
            mary, "Member", ("mary",), credentials=(person_mary,)
        )
        svc.revoke_role_instance(chair, "Member", ("fred",))
        svc.validate(mary_member)   # unaffected
        with pytest.raises(RevokedError):
            svc.validate(member)


class TestIntermediateRoles:
    def test_fig_3_2_precedence(self):
        """Fig 3.2: Bar(1) via the intermediate Bas(2) beats Bar(2)."""
        svc = OasisService("S")
        svc.add_rolefile("main", """
def Foo(n)  n: integer
def Bas(n)  n: integer
def Bar(n)  n: integer
Foo(n) <-
Bas(2) <- Foo(n)
Bar(1) <- Bas(2)
Bar(2) <- Foo(n)
""")
        host = HostOS("h")
        client = host.create_domain().client_id
        foo = svc.enter_role(client, "Foo", (9,))
        bar = svc.enter_role(client, "Bar", credentials=(foo,))
        assert bar.args == (1,)

    def test_intermediate_roles_entered_automatically(self):
        svc = OasisService("S")
        svc.add_rolefile("main", """
def Base(u)  u: string
Base(u) <-
Mid(u) <- Base(u)
Top(u) <- Mid(u)
""")
        host = HostOS("h")
        client = host.create_domain().client_id
        base = svc.enter_role(client, "Base", ("x",))
        top = svc.enter_role(client, "Top", credentials=(base,))
        assert top.names_role("Top")

    def test_starred_intermediate_inherits_dependencies(self):
        """A membership reached through a starred intermediate must be
        revoked when the intermediate's own membership rules fail."""
        from repro.core import GroupService
        groups = GroupService()
        groups.create_group("g", {"x"})
        svc = OasisService("S", groups=groups)
        svc.add_rolefile("main", """
def Base(u)  u: string
Base(u) <-
Mid(u) <- Base(u) : (u in g)*
Top(u) <- Mid(u)*
""")
        host = HostOS("h")
        client = host.create_domain().client_id
        base = svc.enter_role(client, "Base", ("x",))
        top = svc.enter_role(client, "Top", credentials=(base,))
        groups.remove_member("g", "x")
        with pytest.raises(RevokedError):
            svc.validate(top)


class TestAuditing:
    def test_current_members_query(self, world):
        """Section 4.13: the server can list current clients."""
        world.conf.enter_role(
            world.jmb.client_id, "Chair", credentials=(world.jmb_login,)
        )
        holders = world.conf.audit.current_members()
        assert (("Chair", ()), [str(world.jmb.client_id)]) in list(holders.items())

    def test_fraud_tally(self, world):
        for _ in range(3):
            try:
                world.login.validate(world.jmb_login, claimed_client=world.dm.client_id)
            except FraudError:
                pass
        tally = world.login.audit.fraud_by_client()
        assert tally[str(world.jmb_login.client)] == 3
