"""End-to-end tests for the remaining worked examples of chapter 3:
legacy Unix ACL embedding (3.3.3), shared authorship with attribute-based
access control (3.4.4), and the golf club quorum (3.4.5)."""

import pytest

from repro.core import HostOS, OasisService
from repro.core.credentials import RecordState
from repro.core.types import SetType
from repro.errors import EntryDenied, RevokedError
from repro.mssa.acl import unixacl


class TestUnixAclEmbedding:
    """Section 3.3.3: 'rjh21=rwx staff=r-x other=r--' as an RDL rule."""

    def make_service(self, user_groups):
        def unixacl_fn(text, user):
            return unixacl(text, user, user_groups.get(user, set()))

        unixacl_fn.rdl_type = SetType("rwx")
        svc = OasisService("Files", functions={"unixacl": unixacl_fn})
        svc.add_rolefile("main", """
def LoggedOn(u)  u: string
LoggedOn(u) <-
UseFile(r) <- LoggedOn(u) : r = unixacl("rjh21=rwx staff=r-x other=r--", u)
""")
        return svc

    def test_owner_gets_full_rights(self):
        svc = self.make_service({})
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("rjh21",))
        cert = svc.enter_role(client, "UseFile", credentials=(login,))
        assert cert.args[0] == frozenset("rwx")

    def test_group_member_gets_group_rights(self):
        svc = self.make_service({"dm": {"staff"}})
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("dm",))
        cert = svc.enter_role(client, "UseFile", credentials=(login,))
        assert cert.args[0] == frozenset("rx")

    def test_other_falls_through(self):
        svc = self.make_service({})
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("guest",))
        cert = svc.enter_role(client, "UseFile", credentials=(login,))
        assert cert.args[0] == frozenset("r")


class TestSharedAuthorship:
    """Section 3.4.4: the author is identified *implicitly* as the
    creator of the document via a watchable server function, so one
    rolefile works for many documents."""

    def make_service(self):
        creators = {"DOC": "rjh21"}
        finalised = {"DOC": False}

        class DocService(OasisService):
            pass

        svc_holder = []

        def creator(doc):
            # watchable: (value, credential token)
            svc = svc_holder[0]
            token = svc._doc_records.setdefault(
                doc, svc.credentials.create_source(state=RecordState.TRUE).ref
            )
            return creators[doc], token

        svc = DocService("Docs", watchable={"creator": creator})
        svc._doc_records = {}
        svc_holder.append(svc)
        svc.add_rolefile("main", """
def LoggedOn(u)  u: string
def Rights(r)  r: {eaf}
LoggedOn(u) <-
Author <- LoggedOn(u) : (u = creator("DOC"))*
Editor <- LoggedOn("MrEd")
Rights({ae}) <- Author
Rights({af}) <- Editor
""")
        return svc

    def test_author_identified_implicitly(self):
        svc = self.make_service()
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("rjh21",))
        author = svc.enter_role(client, "Author", credentials=(login,))
        rights = svc.enter_role(client, "Rights", credentials=(login,))
        assert rights.args[0] == frozenset("ae")   # edit + annotate

    def test_editor_rights(self):
        svc = self.make_service()
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("MrEd",))
        rights = svc.enter_role(client, "Rights", credentials=(login,))
        assert rights.args[0] == frozenset("af")   # annotate + finalise

    def test_non_author_denied(self):
        svc = self.make_service()
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("someone",))
        with pytest.raises(EntryDenied):
            svc.enter_role(client, "Author", credentials=(login,))

    def test_creator_change_revokes_author(self):
        """Attribute-based membership rule: the starred creator() call
        makes authorship depend on the document's state."""
        svc = self.make_service()
        client = HostOS("h").create_domain().client_id
        login = svc.enter_role(client, "LoggedOn", ("rjh21",))
        author = svc.enter_role(client, "Author", credentials=(login,))
        svc.validate(author)
        # the document changes hands: the service revokes the attribute
        svc.credentials.revoke(svc._doc_records["DOC"])
        with pytest.raises(RevokedError):
            svc.validate(author)


class TestGolfClubQuorum:
    """Section 3.4.5: joining needs recommendations from two *different*
    existing members."""

    def make_club(self):
        svc = OasisService("Golf")
        svc.add_rolefile("main", """
def Person(p)  p: string
def Candidate(p)  p: string
def Member(p)  p: string
def Recommend(p, e)  p: string  e: string
Person(p) <-
Candidate(p) <- Person(p)
Recommend(p, e) <- Candidate(p)* <|* Member(e)
Member(p) <- Recommend(p, e1)* & Recommend(p, e2)* : e1 != e2
""")
        host = HostOS("club")
        founders = {}
        # bootstrap: the service owner installs two founding members
        # directly (section 4.12: certificates may be issued for any
        # reason; RDL is just the usual case)
        for name in ("alice", "bob"):
            client = host.create_domain().client_id
            record = svc.credentials.create_source(direct_use=True)
            state = svc._rolefile_state("main")
            founders[name] = svc._issue(
                client, frozenset({"Member"}), (name,), record, state, "main"
            )
        return svc, host, founders

    def join(self, svc, host, founders, recommenders):
        client = host.create_domain().client_id
        person = svc.enter_role(client, "Person", ("newbie",))
        candidate = svc.enter_role(client, "Candidate", ("newbie",),
                                   credentials=(person,))
        recommendations = []
        for name in recommenders:
            delegation, _ = svc.delegate(
                founders[name], "Recommend", role_args=("newbie", name)
            )
            recommendations.append(
                svc.enter_delegated_role(client, delegation, credentials=(person,))
            )
        return svc.enter_role(
            client, "Member", ("newbie",),
            credentials=tuple([person] + recommendations),
        )

    def test_two_distinct_recommenders_admit(self):
        svc, host, founders = self.make_club()
        member = self.join(svc, host, founders, ["alice", "bob"])
        assert member.names_role("Member")
        svc.validate(member)

    def test_one_recommender_insufficient(self):
        svc, host, founders = self.make_club()
        with pytest.raises(EntryDenied):
            self.join(svc, host, founders, ["alice"])

    def test_same_recommender_twice_insufficient(self):
        """The e1 != e2 constraint: two recommendations from the same
        member do not satisfy the quorum."""
        svc, host, founders = self.make_club()
        with pytest.raises(EntryDenied):
            self.join(svc, host, founders, ["alice", "alice"])

    def test_membership_depends_on_recommendations(self):
        """Both recommendation conditions are starred: revoking either
        recommendation revokes the membership."""
        svc, host, founders = self.make_club()
        client = host.create_domain().client_id
        person = svc.enter_role(client, "Person", ("newbie",))
        recs = []
        revocations = []
        for name in ("alice", "bob"):
            delegation, revocation = svc.delegate(
                founders[name], "Recommend", role_args=("newbie", name)
            )
            recs.append(svc.enter_delegated_role(client, delegation,
                                                 credentials=(person,)))
            revocations.append(revocation)
        member = svc.enter_role(client, "Member", ("newbie",),
                                credentials=tuple([person] + recs))
        svc.validate(member)
        svc.revoke(revocations[0])   # alice withdraws her recommendation
        with pytest.raises(RevokedError):
            svc.validate(member)
