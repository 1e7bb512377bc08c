"""Regression tests for the storage fast path: the per-custode access-
decision cache, the remote-ACL surrogate store and their invalidation
sources (ISSUE 4).

The invariant under test everywhere: a cached decision may never outlive
the state it was derived from.  Every path that could stale a decision —
``modify_acl`` version bump, ``set_acl_of`` regroup, group-membership
change, credential-record revocation, a *remote* ``modify_acl`` arriving
as an event notification, a suspected link — must deny (or re-derive) on
the very next access, with no stale-grant window beyond one delivery.
"""

import pytest

from repro.core.credentials import RecordState
from repro.errors import AccessDenied, MisuseError, RevokedError
from repro.mssa.acl import Acl, AclEntry
from repro.mssa.bypass import BypassRoute
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.mssa.vac import IndexedFlatFileCustode


class TestDecisionCache:
    def test_warm_reads_hit_the_decision_cache(self, mssa):
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        mssa.ffc.read(cert, fid)                       # prime
        validations_before = mssa.ffc.service.stats.validations
        hits_before = mssa.ffc.storage.decision_hits
        for _ in range(10):
            mssa.ffc.read(cert, fid)
        assert mssa.ffc.storage.decision_hits == hits_before + 10
        # the warm path never re-enters full validation
        assert mssa.ffc.service.stats.validations == validations_before

    def test_denied_operation_is_never_cached(self, mssa):
        acl = mssa.ffc.create_acl(Acl.parse("dm=+r", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        for _ in range(3):
            with pytest.raises(AccessDenied):
                mssa.ffc.write(cert, fid, b"nope")
        assert mssa.ffc.storage.decision_hits == 0

    def test_modify_acl_kills_cached_decision(self, mssa):
        meta = mssa.ffc.create_acl(Acl.parse("dm=+rw", alphabet="rwad"))
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad jmb=+r", alphabet="rwad"),
                                  protecting_acl_id=meta)
        fid = mssa.ffc.create(acl, b"x")
        jclient, jlogin = mssa.login_user("jmb")
        jcert = mssa.ffc.enter_use_acl(jclient, acl, jlogin)
        mssa.ffc.read(jcert, fid)                      # warm
        dclient, dlogin = mssa.login_user("dm")
        dmeta = mssa.ffc.enter_use_acl(dclient, meta, dlogin)
        mssa.ffc.modify_acl(dmeta, acl, Acl.parse("dm=+rwad", alphabet="rwad"))
        with pytest.raises(RevokedError):
            mssa.ffc.read(jcert, fid)                  # next access, not later
        assert mssa.ffc.storage.invalidated_by_record >= 1

    def test_modify_acl_invalidates_use_file_decisions(self, mssa):
        """A delegated UseFile certificate does not depend on the ACL
        version record, so its cached decision stores the version
        instead — modify_acl must force it back onto the full path."""
        meta = mssa.ffc.create_acl(Acl.parse("dm=+rw", alphabet="rwad"))
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"),
                                  protecting_acl_id=meta)
        fid = mssa.ffc.create(acl, b"x")
        dclient, dlogin = mssa.login_user("dm")
        dcert = mssa.ffc.enter_use_acl(dclient, acl, dlogin)
        deleg, _ = mssa.ffc.delegate_use_file(dcert, fid, frozenset("r"))
        sclient, slogin = mssa.login_user("student1")
        scert = mssa.ffc.accept_use_file(sclient, deleg, slogin)
        mssa.ffc.read(scert, fid)                      # warm the UseFile decision
        mssa.ffc.read(scert, fid)
        assert mssa.ffc.storage.decision_hits >= 1
        dmeta = mssa.ffc.enter_use_acl(dclient, meta, dlogin)
        mssa.ffc.modify_acl(dmeta, acl, Acl.parse("dm=+rwad", alphabet="rwad"))
        misses_before = mssa.ffc.storage.decision_misses
        mssa.ffc.read(scert, fid)                      # re-derived, not served stale
        assert mssa.ffc.storage.decision_misses == misses_before + 1

    def test_regroup_kills_cached_decision(self, mssa):
        acl_a = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        acl_b = mssa.ffc.create_acl(Acl.parse("jmb=+r", alphabet="rwad"))
        fid = mssa.ffc.create(acl_a, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl_a, login)
        mssa.ffc.read(cert, fid)                       # warm
        mssa.ffc.set_acl_of(cert, fid, acl_b)
        misses_before = mssa.ffc.storage.decision_misses
        with pytest.raises(AccessDenied):
            mssa.ffc.read(cert, fid)
        # the decision stored the old ACL: a miss, not a stale hit
        assert mssa.ffc.storage.decision_misses == misses_before + 1

    def test_group_membership_change_kills_cached_decision(self, mssa):
        root = mssa.login.parsename("userid", "root")
        mssa.ffc.add_admin(root)
        acl = mssa.ffc.create_acl(Acl.parse("dm=+r", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x")
        client, login = mssa.login_user("root")
        cert = mssa.ffc.enter_use_acl(client, acl, login)   # via the admin statement
        mssa.ffc.write(cert, fid, b"warm")
        mssa.ffc.write(cert, fid, b"warm again")
        assert mssa.ffc.storage.decision_hits >= 1
        mssa.ffc.service.groups.remove_member("admins", root)
        with pytest.raises(RevokedError):
            mssa.ffc.write(cert, fid, b"stale")

    def test_removed_rolefile_stops_granting(self, mssa):
        """Withdrawing an ACL's policy (its rolefile) must deny the next
        read, even though no credential record changed."""
        acl = mssa.bsc.create_acl(Acl.parse("dm=+rw", alphabet="rw"))
        fid = mssa.bsc.create_segment(acl, b"payload")
        client, login = mssa.login_user("dm")
        cert = mssa.bsc.enter_use_acl(client, acl, login)
        assert mssa.bsc.read_segment(cert, fid) == b"payload"   # warm
        assert mssa.bsc.read_segment(cert, fid) == b"payload"
        mssa.bsc.service.remove_rolefile(str(acl))
        with pytest.raises(MisuseError, match="unknown rolefile"):
            mssa.bsc.read_segment(cert, fid)

    def test_revocation_kills_cached_decision(self, mssa):
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        mssa.ffc.read(cert, fid)                       # warm
        mssa.ffc.service.exit_role(cert)
        with pytest.raises(RevokedError):
            mssa.ffc.read(cert, fid)

    def test_eviction_keeps_invalidation_indexes_clean(self, mssa):
        custode = mssa.make_custode(ByteSegmentCustode, "tiny",
                                    decision_cache_size=2)
        acl = custode.create_acl(Acl.parse("dm=+rw", alphabet="rw"))
        fids = [custode.create_segment(acl, b"x") for _ in range(6)]
        client, login = mssa.login_user("dm")
        cert = custode.enter_use_acl(client, acl, login)
        for fid in fids:
            custode.read_segment(cert, fid)
        assert custode.storage.decision_evictions >= 4
        # evicted keys must have left the record index too
        decisions = custode._decisions
        indexed = sum(len(decisions._keys_of(pin)) for pin in decisions._pinned)
        assert indexed == len(custode._decisions) <= 2
        # and the survivors still invalidate correctly
        custode.service.exit_role(cert)
        with pytest.raises(RevokedError):
            custode.read_segment(cert, fids[-1])


class TestRemoteAclSurrogates:
    def _remote_world(self, mssa):
        """An FFC file protected by an ACL stored on the BSC; dm may
        modify that ACL through its protecting meta-ACL."""
        meta = mssa.bsc.create_acl(
            Acl.parse("custode:ffc=+r dm=+rw", alphabet="rw"))
        remote_acl = mssa.bsc.create_acl(
            Acl.parse("dm=+rwad jmb=+r", alphabet="rwad"), protecting_acl_id=meta)
        fid = mssa.ffc.create(remote_acl, b"x")
        return meta, remote_acl, fid

    def test_repeated_checks_hit_the_surrogate_store(self, mssa):
        meta, remote_acl, fid = self._remote_world(mssa)
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, remote_acl, login)
        assert mssa.ffc.remote_acl_reads == 1
        for _ in range(5):
            mssa.ffc.enter_use_acl(client, remote_acl, login)
        assert mssa.ffc.remote_acl_reads == 1          # cold-path counter only
        assert mssa.ffc.storage.surrogate_hits >= 5

    def test_remote_modify_acl_reaches_surrogate_readers(self, mssa):
        """A remote modify_acl must deny existing certificate holders on
        their next access, via the Modified event on the version record —
        with the synchronous LocalLinkage there is no stale-grant window
        at all (one delivery under a delayed linkage)."""
        meta, remote_acl, fid = self._remote_world(mssa)
        jclient, jlogin = mssa.login_user("jmb")
        jcert = mssa.ffc.enter_use_acl(jclient, remote_acl, jlogin)
        mssa.ffc.read(jcert, fid)                      # warm decision + store
        dclient, dlogin = mssa.login_user("dm")
        dmeta = mssa.bsc.enter_use_acl(dclient, meta, dlogin)
        mssa.bsc.modify_acl(dmeta, remote_acl,
                            Acl.parse("dm=+rwad", alphabet="rwad"))
        with pytest.raises(RevokedError):
            mssa.ffc.read(jcert, fid)
        assert mssa.ffc.storage.surrogate_flushes >= 1
        # jmb re-applies against the new contents: one fresh remote read,
        # and the new ACL grants nothing
        reads_before = mssa.ffc.remote_acl_reads
        fresh = mssa.ffc.enter_use_acl(jclient, remote_acl, jlogin)
        assert mssa.ffc.remote_acl_reads == reads_before + 1
        with pytest.raises(AccessDenied):
            mssa.ffc.read(fresh, fid)

    def test_link_suspicion_flushes_store_and_fails_closed(self, mssa):
        meta, remote_acl, fid = self._remote_world(mssa)
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, remote_acl, login)
        mssa.ffc.read(cert, fid)                       # warm
        flushes_before = mssa.ffc.storage.surrogate_flushes
        mssa.ffc.service.credentials.mark_service_unknown("bsc")
        assert mssa.ffc.storage.surrogate_flushes == flushes_before + 1
        with pytest.raises(RevokedError) as exc:
            mssa.ffc.read(cert, fid)                   # fail closed, uncertain
        assert exc.value.uncertain


class TestChargingAfterAuthorisation:
    def test_denied_operations_are_not_billed(self, mssa):
        """Section 4.13 charges *authorised* operations: a denied request
        must not bill the file's container."""
        acl = mssa.ffc.create_acl(Acl.parse("dm=+r", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x", container="project-x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        mssa.ffc.read(cert, fid)
        charged = mssa.ffc.accounting.usage_report()["project-x"]["operations"]
        for _ in range(5):
            with pytest.raises(AccessDenied):
                mssa.ffc.write(cert, fid, b"nope")
        assert (mssa.ffc.accounting.usage_report()["project-x"]["operations"]
                == charged)

    def test_authorised_operations_still_billed_on_warm_path(self, mssa):
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x", container="project-x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        for _ in range(4):
            mssa.ffc.read(cert, fid)
        assert (mssa.ffc.accounting.usage_report()["project-x"]["operations"]
                >= 4)


class TestProtectedByIndex:
    def test_index_tracks_create_regroup_delete(self, mssa):
        acl_a = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        acl_b = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        fids = [mssa.ffc.create(acl_a, b"x") for _ in range(4)]
        assert set(mssa.ffc.files_protected_by(acl_a)) == set(fids)
        assert mssa.ffc.files_protected_by(acl_b) == []
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl_a, login)
        mssa.ffc.set_acl_of(cert, fids[0], acl_b)
        assert set(mssa.ffc.files_protected_by(acl_a)) == set(fids[1:])
        assert mssa.ffc.files_protected_by(acl_b) == [fids[0]]
        mssa.ffc.delete(cert, fids[1])
        assert set(mssa.ffc.files_protected_by(acl_a)) == set(fids[2:])

    def test_index_includes_protected_acl_files(self, mssa):
        meta = mssa.ffc.create_acl(Acl.parse("dm=+rw", alphabet="rwad"))
        acl = mssa.ffc.create_acl(Acl.parse("jmb=+r", alphabet="rwad"),
                                  protecting_acl_id=meta)
        assert mssa.ffc.files_protected_by(meta) == [acl]


class TestCompiledAclRegressions:
    def test_entry_normalises_rights_once(self):
        """The standalone regression for the micro-fix: construction-time
        normalisation, no per-call set rebuilding."""
        entry = AclEntry("@students", "rw", negative=True)
        assert isinstance(entry.rights, frozenset)
        assert entry.matches("bob", {"students"})
        assert entry.matches("bob", ["students", "staff"])
        assert not entry.matches("bob", set())
        assert not AclEntry("bob", frozenset("r")).matches("alice", set())

    def test_evaluate_is_memoised_per_user_and_groups(self):
        acl = Acl.parse("@students=-w *=+rw")
        first = acl.evaluate("bob", {"students"})
        assert first == frozenset("r")
        hits_before = acl.evaluations_memoised
        assert acl.evaluate("bob", {"students"}) is first   # served from memo
        assert acl.evaluations_memoised == hits_before + 1
        # different group sets are distinct decisions
        assert acl.evaluate("bob", set()) == frozenset("rw")
        assert acl.evaluate("bob", ["students"]) == frozenset("r")

    def test_compiled_buckets_preserve_entry_order(self):
        """The split user/group/star indexes must replay entries in their
        authored order — order carries the policy (section 5.4.4)."""
        acl = Acl.parse("bob=-w @students=+rw *=+d")
        assert acl.evaluate("bob", {"students"}) == frozenset("rd")
        acl2 = Acl.parse("@students=+rw bob=-w *=+d")
        assert acl2.evaluate("bob", {"students"}) == frozenset("rwd")


class TestBypassStats:
    def test_bypass_checks_counted(self, mssa):
        ifc = mssa.make_custode(IndexedFlatFileCustode, "ifc")
        ifc.wire_below(mssa.ffc, mssa.login_cert_for_custode(ifc))
        acl = ifc.create_acl(Acl.parse("dm=+rwadl", alphabet="rwadl"))
        fid = ifc.create(acl)
        client, login = mssa.login_user("dm")
        cert = ifc.enter_use_acl(client, acl, login)
        ifc.write_record(cert, fid, "k", b"hello")
        route = BypassRoute.resolve(ifc, "read")
        route.read(cert, fid)
        assert route.stats()["ifc"].bypass_checks == 1
        assert "ffc" in route.stats()                  # the whole stack reports


class TestEpochFlush:
    """A service restart is a new boot epoch: the decision cache and the
    remote-ACL surrogate store are process memory and must not survive
    it (ISSUE 5) — only the durable credential table does."""

    def test_restart_flushes_decision_cache(self, mssa):
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
        fid = mssa.ffc.create(acl, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, acl, login)
        mssa.ffc.read(cert, fid)                       # prime
        mssa.ffc.read(cert, fid)
        assert mssa.ffc.storage.decision_hits >= 1
        assert len(mssa.ffc._decisions) >= 1
        epoch = mssa.ffc.service.restart()
        assert epoch == 2
        assert mssa.ffc.storage.epoch_flushes == 1
        assert len(mssa.ffc._decisions) == 0
        # the certificate itself is durable: the next read re-derives the
        # decision from scratch rather than serving the dead epoch's cache
        hits_before = mssa.ffc.storage.decision_hits
        misses_before = mssa.ffc.storage.decision_misses
        mssa.ffc.read(cert, fid)
        assert mssa.ffc.storage.decision_hits == hits_before
        assert mssa.ffc.storage.decision_misses == misses_before + 1

    def test_restart_flushes_remote_acl_store(self, mssa):
        meta = mssa.bsc.create_acl(
            Acl.parse("custode:ffc=+r dm=+rw", alphabet="rw"))
        remote_acl = mssa.bsc.create_acl(
            Acl.parse("dm=+rwad", alphabet="rwad"), protecting_acl_id=meta)
        fid = mssa.ffc.create(remote_acl, b"x")
        client, login = mssa.login_user("dm")
        cert = mssa.ffc.enter_use_acl(client, remote_acl, login)
        assert mssa.ffc.remote_acl_reads == 1
        assert len(mssa.ffc._remote_acls) == 1
        mssa.ffc.service.restart()
        assert len(mssa.ffc._remote_acls) == 0
        # next entry goes back to the peer for a fresh copy
        mssa.ffc.enter_use_acl(client, remote_acl, login)
        assert mssa.ffc.remote_acl_reads == 2

    def test_no_stale_authorisation_across_epoch_change(self, mssa):
        """The sharpest form of the acceptance criterion: an ACL change
        concurrent with the restart must be honoured by the very first
        post-restart access."""
        meta = mssa.ffc.create_acl(Acl.parse("dm=+rw", alphabet="rwad"))
        acl = mssa.ffc.create_acl(Acl.parse("dm=+rwad jmb=+r", alphabet="rwad"),
                                  protecting_acl_id=meta)
        fid = mssa.ffc.create(acl, b"x")
        jclient, jlogin = mssa.login_user("jmb")
        jcert = mssa.ffc.enter_use_acl(jclient, acl, jlogin)
        mssa.ffc.read(jcert, fid)                      # warm decision
        dclient, dlogin = mssa.login_user("dm")
        dmeta = mssa.ffc.enter_use_acl(dclient, meta, dlogin)
        mssa.ffc.modify_acl(dmeta, acl, Acl.parse("dm=+rwad", alphabet="rwad"))
        mssa.ffc.service.restart()
        with pytest.raises(RevokedError):
            mssa.ffc.read(jcert, fid)


class TestGracefulDegradation:
    """The degradation tier (ISSUE 6): while the issuer is merely
    *suspected* (records UNKNOWN, not FALSE), a previously-proven grant
    keeps being served from the decision cache within an explicit
    staleness bound — never beyond it, and a known revocation is always
    denied."""

    def _world(self, mssa, max_staleness=5.0):
        from repro.mssa.custode import DegradationPolicy

        custode = mssa.make_custode(
            ByteSegmentCustode,
            "bsc-degraded",
            degradation=DegradationPolicy(max_staleness=max_staleness),
        )
        acl = custode.create_acl(Acl.parse("dm=+rw", alphabet="rw"))
        fid = custode.create_segment(acl, b"payload")
        client, login = mssa.login_user("dm")
        cert = custode.enter_use_acl(client, acl, login)
        assert custode.read_segment(cert, fid) == b"payload"   # prime the cache
        return custode, cert, fid, login

    def test_degraded_serve_within_staleness_bound(self, mssa):
        custode, cert, fid, _login = self._world(mssa, max_staleness=5.0)
        custode.service.credentials.mark_service_unknown("Login")
        mssa.clock.advance(2.0)
        assert custode.read_segment(cert, fid) == b"payload"
        assert custode.storage.degraded_hits == 1
        assert 0.0 < custode.storage.degraded_max_staleness <= 5.0

    def test_degraded_serve_refused_beyond_bound(self, mssa):
        custode, cert, fid, _login = self._world(mssa, max_staleness=5.0)
        custode.service.credentials.mark_service_unknown("Login")
        mssa.clock.advance(5.1)
        with pytest.raises(RevokedError) as exc:
            custode.read_segment(cert, fid)
        assert exc.value.uncertain
        assert custode.storage.degraded_hits == 0
        assert custode.storage.degraded_expired == 1
        # the expired decision is gone: a later in-bound moment cannot
        # resurrect it
        assert custode.storage.degraded_max_staleness == 0.0

    def test_known_revocation_denied_despite_degradation(self, mssa):
        """FALSE is authoritative: degradation extends suspicion windows,
        never revocations."""
        custode, cert, fid, login = self._world(mssa, max_staleness=1e9)
        mssa.login.credentials.revoke(login.crr)
        with pytest.raises(RevokedError):
            custode.read_segment(cert, fid)
        assert custode.storage.degraded_hits == 0

    def test_revocation_mid_window_is_honoured(self, mssa):
        """A revocation that resolves the suspicion (UNKNOWN -> FALSE)
        closes the degradation window immediately."""
        custode, cert, fid, login = self._world(mssa, max_staleness=1e9)
        custode.service.credentials.mark_service_unknown("Login")
        assert custode.read_segment(cert, fid) == b"payload"   # degraded serve
        mssa.login.credentials.revoke(login.crr)   # LocalLinkage: synchronous
        with pytest.raises(RevokedError):
            custode.read_segment(cert, fid)

    def test_restore_to_true_resumes_normal_service(self, mssa):
        custode, cert, fid, _login = self._world(mssa, max_staleness=5.0)
        custode.service.credentials.mark_service_unknown("Login")
        assert custode.read_segment(cert, fid) == b"payload"
        restored = [
            (record.ref, RecordState.TRUE)
            for record in custode.service.credentials.externals_of("Login")
        ]
        custode.service.credentials.set_states(restored)
        degraded_before = custode.storage.degraded_hits
        mssa.clock.advance(100.0)   # well past the bound: must not matter
        assert custode.read_segment(cert, fid) == b"payload"
        assert custode.storage.degraded_hits == degraded_before

    def test_without_policy_unknown_fails_closed_immediately(self, mssa):
        custode = mssa.make_custode(ByteSegmentCustode, "bsc-strict")
        acl = custode.create_acl(Acl.parse("dm=+rw", alphabet="rw"))
        fid = custode.create_segment(acl, b"payload")
        client, login = mssa.login_user("dm")
        cert = custode.enter_use_acl(client, acl, login)
        custode.read_segment(cert, fid)
        custode.service.credentials.mark_service_unknown("Login")
        with pytest.raises(RevokedError) as exc:
            custode.read_segment(cert, fid)
        assert exc.value.uncertain
        assert custode.storage.degraded_hits == 0

    def test_restart_clears_degradation_stamps(self, mssa):
        custode, cert, fid, _login = self._world(mssa, max_staleness=1e9)
        custode.service.credentials.mark_service_unknown("Login")
        assert custode.read_segment(cert, fid) == b"payload"
        assert custode._decisions._unknown_since
        custode.service.restart()
        assert not custode._decisions._unknown_since
        # post-restart the window cannot be dated: fail closed, not serve
        with pytest.raises(RevokedError):
            custode.read_segment(cert, fid)
