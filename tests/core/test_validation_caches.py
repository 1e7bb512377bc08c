"""Validation caches must never outlive the facts they summarise.

Section 4.2 allows "the integrity of the certificate" to be cached, but
the paper's whole point is *immediate* revocation: a cascade that turns
a credential record FALSE must be visible on the very next validate(),
and the cache layer must not reintroduce the soft-state staleness the
architecture was designed to remove.  Each test warms the caches first
so the failure would be a stale hit, not a cold-path error.
"""

import pytest

from repro.core import HostOS, OasisService
from repro.errors import FraudError, MisuseError, RevokedError
from repro.runtime.clock import ManualClock

ROLEFILE = "def Anon(n)  n: integer\nAnon(n) <- "


def make_service(**kwargs):
    clock = ManualClock()
    svc = OasisService("S", clock=clock, **kwargs)
    svc.add_rolefile("main", ROLEFILE)
    client = HostOS("h").create_domain().client_id
    return clock, svc, client


def warm(svc, cert):
    """Validate twice; the second call must come from the fast path."""
    svc.validate(cert)
    before = svc.stats.validity_cache_hits
    svc.validate(cert)
    assert svc.stats.validity_cache_hits == before + 1
    return svc.stats.validity_cache_hits


class TestCascadeInvalidation:
    def test_exit_role_fails_validation_on_next_call(self):
        clock, svc, client = make_service()
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        invalidations = svc.stats.validity_cache_invalidations
        svc.exit_role(cert)
        assert svc.stats.validity_cache_invalidations == invalidations + 1
        with pytest.raises(RevokedError):
            svc.validate(cert)

    def test_cascade_through_parent_record_invalidates_dependant(self):
        """Revoking an upstream record must flush the *downstream*
        certificate's cache entry via the cascade, not just the record
        that was revoked directly."""
        clock, svc, client = make_service()
        svc.add_rolefile("chain", """
def Login(u)   u: string
def Member(u)  u: string
Login(u)  <-
Member(u) <- Login(u)*
""")
        login = svc.enter_role(client, "Login", ("u1",), rolefile_id="chain")
        member = svc.enter_role(
            client, "Member", ("u1",), credentials=(login,), rolefile_id="chain"
        )
        warm(svc, member)
        svc.exit_role(login)
        with pytest.raises(RevokedError):
            svc.validate(member)


class TestModifiedCertificates:
    """A warm cache vouches for one certificate, not for anything that
    shares its record reference and signature."""

    def test_stolen_certificate_renamed_to_thief_is_fraud_when_warm(self):
        import dataclasses

        clock, svc, owner = make_service()
        thief = HostOS("h2").create_domain().client_id
        cert = svc.enter_role(owner, "Anon", (1,))
        warm(svc, cert)
        stolen = dataclasses.replace(cert, client=thief)
        with pytest.raises(FraudError):
            svc.validate(stolen, claimed_client=thief)
        assert svc.validate(cert, claimed_client=owner) is cert

    def test_tampered_args_are_fraud_when_warm(self):
        """``args`` is the unsigned convenience form of the signed wire
        arguments: neither cache may let a tampered copy skip the check."""
        import dataclasses

        clock, svc, client = make_service()
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        for _ in range(2):
            with pytest.raises(FraudError):
                svc.validate(dataclasses.replace(cert, args=(99,)))
        assert svc.validate(cert) is cert


class TestSecretRoll:
    def test_secret_death_defeats_warm_caches(self):
        """Rolling past a secret's lifetime must fail validation even
        though both the signature and validity caches are warm — no
        manual cache clearing by the caller."""
        clock, svc, client = make_service(secret_lifetime=100.0)
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        svc.secrets.roll()
        clock.advance(101.0)
        with pytest.raises(FraudError):
            svc.validate(cert)

    def test_invalidate_all_defeats_warm_caches(self):
        clock, svc, client = make_service()
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        svc.secrets.invalidate_all()
        with pytest.raises(FraudError):
            svc.validate(cert)


class TestRolefileReload:
    def test_reload_clears_validation_caches(self):
        clock, svc, client = make_service()
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        assert len(svc._validity_cache) > 0
        svc.add_rolefile("main", ROLEFILE)
        assert len(svc._validity_cache) == 0
        assert len(svc._signature_cache) == 0

    def test_remove_rolefile_clears_validation_caches(self):
        clock, svc, client = make_service()
        cert = svc.enter_role(client, "Anon", (1,))
        warm(svc, cert)
        svc.remove_rolefile("main")
        assert len(svc._validity_cache) == 0
        with pytest.raises(MisuseError):
            svc.validate(cert)


class TestBounds:
    def test_validity_cache_is_lru_bounded(self):
        clock, svc, client = make_service(
            signature_cache_size=4, validity_cache_size=4
        )
        certs = [svc.enter_role(client, "Anon", (i,)) for i in range(10)]
        for cert in certs:
            svc.validate(cert)
        assert len(svc._validity_cache) <= 4
        assert len(svc._signature_cache) <= 4
        assert svc.stats.validity_cache_evictions >= 6
        assert svc.stats.signature_cache_evictions >= 6

    def test_evicted_entry_revalidates_correctly(self):
        """Eviction is a performance event, not a correctness one: a
        certificate whose cache entries were evicted still validates."""
        clock, svc, client = make_service(
            signature_cache_size=2, validity_cache_size=2
        )
        certs = [svc.enter_role(client, "Anon", (i,)) for i in range(5)]
        for cert in certs:
            svc.validate(cert)
        svc.validate(certs[0])   # long since evicted
        svc.exit_role(certs[0])
        with pytest.raises(RevokedError):
            svc.validate(certs[0])
