"""Ablations of the design choices DESIGN.md calls out.

A1 — signature-check caching (section 4.2): turn the cache off and
     measure the per-validation cost of recomputing the HMAC.
A2 — compound certificates (section 4.3): Chair+Member in one request /
     one record vs two separate entries.
A3 — credential-record garbage collection (section 4.8): table size
     under issue/revoke churn with and without periodic sweeps.
A4 — the conjunction record (fig 4.6): one AND gate per entry vs the
     naive one-record-per-membership-rule layout, by validation cost.
"""

import pytest

from benchmarks.conftest import BenchWorld, Counted, record
from repro.core import HostOS, OasisService
from repro.core.credentials import CredentialRecordTable, RecordState


# ------------------------------------------------------------ A1: caching


def test_a1_validation_with_cache(benchmark, bench_world):
    client, cert = bench_world.user("dm")
    bench_world.login.validate(cert)
    benchmark(bench_world.login.validate, cert)
    record(benchmark, ablation="cache-on")


def test_a1_validation_without_cache(benchmark, bench_world):
    client, cert = bench_world.user("dm")
    login = bench_world.login

    def validate_uncached():
        login.clear_validation_caches()
        return login.validate(cert)

    benchmark(validate_uncached)
    record(benchmark, ablation="cache-off")


# --------------------------------------------------- A2: compound certificates


MEETING_RDL = """
def Person(p)  p: string
Person(p) <-
Chair(p) <- Person(p)
Member(p) <- Person(p)
"""


def _meeting(bench_world, name):
    svc = OasisService(name, registry=bench_world.registry,
                       linkage=bench_world.linkage, clock=bench_world.clock)
    svc.add_rolefile("main", MEETING_RDL)
    client = bench_world.host.create_domain().client_id
    person = svc.enter_role(client, "Person", ("fred",))
    return svc, client, person


def test_a2_compound_certificate(benchmark, bench_world):
    svc, client, person = _meeting(bench_world, "MeetA")
    before = svc.credentials.records_created

    @Counted
    def enter():
        return svc.enter_roles(client, ["Chair", "Member"], ("fred",),
                               credentials=(person,))

    cert = benchmark(enter)
    assert cert.roles == frozenset({"Chair", "Member"})
    per = (svc.credentials.records_created - before) / enter.calls
    record(benchmark, ablation="compound", records_per_request=round(per, 2),
           certificates=1)


def test_a2_separate_certificates(benchmark, bench_world):
    svc, client, person = _meeting(bench_world, "MeetB")
    before = svc.credentials.records_created

    @Counted
    def enter():
        chair = svc.enter_role(client, "Chair", ("fred",), credentials=(person,))
        member = svc.enter_role(client, "Member", ("fred",), credentials=(person,))
        return chair, member

    benchmark(enter)
    per = (svc.credentials.records_created - before) / enter.calls
    record(benchmark, ablation="separate", records_per_request=round(per, 2),
           certificates=2)


# ------------------------------------------------------- A3: garbage collection


@pytest.mark.parametrize("sweep", [True, False])
def test_a3_table_size_under_churn(benchmark, sweep):
    """Issue and revoke 5k certificates; with sweeps the table stays
    near-empty and rows are reused (magic increments)."""
    n = 5_000

    def run():
        table = CredentialRecordTable()
        for i in range(n):
            rec = table.create_source(state=RecordState.TRUE, direct_use=True)
            table.revoke(rec.ref)
            if sweep and i % 100 == 99:
                table.sweep()
        if sweep:
            table.sweep()
        return table.live_count(), len(table._rows)

    live, rows = benchmark(run)
    record(benchmark, sweep=sweep, live_records=live, table_rows=rows)
    if sweep:
        assert rows <= 200       # rows recycled
    else:
        assert rows == n         # every revoked record still occupies a row


# -------------------------------------------- A4: the fig 4.6 conjunction record


@pytest.mark.parametrize("rules", [4, 16])
def test_a4_single_conjunction_record(benchmark, rules):
    """Certificate embeds one AND gate over all membership rules —
    validation is one lookup."""
    table = CredentialRecordTable()
    sources = [table.create_source(state=RecordState.TRUE) for _ in range(rules)]
    gate = table.create_and([s.ref for s in sources], direct_use=True)

    def validate():
        return table.state_of(gate.ref)

    assert benchmark(validate) is RecordState.TRUE
    record(benchmark, layout="conjunction", rules=rules, lookups=1)


@pytest.mark.parametrize("rules", [4, 16])
def test_a4_per_rule_records(benchmark, rules):
    """The naive layout: the certificate carries one reference per rule,
    all consulted at validation."""
    table = CredentialRecordTable()
    refs = [table.create_source(state=RecordState.TRUE, direct_use=True).ref
            for _ in range(rules)]

    def validate():
        return all(table.state_of(r) is RecordState.TRUE for r in refs)

    assert benchmark(validate)
    record(benchmark, layout="per-rule", rules=rules, lookups=rules)
