"""E3 (fig 4.6): role entry builds exactly one conjunction record.

The paper: "In general one new credential record is required for each
(revokable) delegation, and one for each entry to a role with multiple
membership rules."  We measure role entry latency as the number of
membership rules grows, and assert the record count stays at one new
conjunction record per entry (plus at most one external surrogate per
distinct foreign credential).
"""

import pytest

from benchmarks.conftest import BenchWorld, Counted, record
from repro.core import GroupService, OasisService


def build_service(world, n_group_rules):
    """A role whose entry has 1 certificate rule + n starred group tests."""
    groups = GroupService()
    conjuncts = []
    for i in range(n_group_rules):
        groups.create_group(f"g{i}", {world.login.parsename("userid", "user")})
        conjuncts.append(f"(u in g{i})*")
    constraint = " and ".join(conjuncts)
    tail = f" : {constraint}" if constraint else ""
    service = OasisService(
        f"Svc{n_group_rules}", registry=world.registry,
        linkage=world.linkage, clock=world.clock, groups=groups,
    )
    service.add_rolefile("main", f"Member(u) <- Login.LoggedOn(u, h)*{tail}\n")
    return service


@pytest.mark.parametrize("rules", [0, 1, 4, 8])
def test_e3_role_entry_latency(benchmark, bench_world, rules):
    service = build_service(bench_world, rules)
    client, login_cert = bench_world.user("user")

    def enter():
        return service.enter_role(client, "Member", credentials=(login_cert,))

    cert = benchmark(enter)
    assert cert.names_role("Member")
    record(benchmark, membership_rules=rules + 1)


@pytest.mark.parametrize("rules", [1, 4, 8])
def test_e3_records_created_per_entry(benchmark, bench_world, rules):
    """One conjunction record per entry, independent of rule count
    (group records and the external login surrogate are shared)."""
    service = build_service(bench_world, rules)
    client, login_cert = bench_world.user("user")
    # warm up: materialise the shared group records and the surrogate
    service.enter_role(client, "Member", credentials=(login_cert,))
    before = service.credentials.records_created

    @Counted
    def enter():
        return service.enter_role(client, "Member", credentials=(login_cert,))

    benchmark(enter)
    created = service.credentials.records_created - before
    per_entry = created / enter.calls
    record(benchmark, membership_rules=rules + 1,
           records_per_entry=round(per_entry, 2))
    # exactly one conjunction record per entry (every call is counted,
    # warm-up runs included)
    assert 1.0 <= per_entry < 1.05
