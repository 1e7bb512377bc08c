"""E6 (fig 5.2) and E7 (figs 5.4/5.5): shared ACLs and placement.

E6 — shared ACLs vs per-file ACLs: stored ACL state shrinks by the
grouping factor, and certificate (capability) count shrinks with it,
enabling "more effective capability caching" (section 5.7).

E7 — the placement constraint bounds meta-ACL checks to at most one
remote call, and terminates where unconstrained cyclic ACLs would
recurse forever (figs 5.4/5.5).
"""

import pytest

from benchmarks.conftest import BenchWorld, Counted, record
from repro.errors import StorageError
from repro.mssa.acl import Acl
from repro.mssa.flat_file import FlatFileCustode
from repro.mssa.byte_segment import ByteSegmentCustode


def make_custode(world, name, cls=FlatFileCustode, **kwargs):
    custode = cls(name, registry=world.registry, linkage=world.linkage,
                  clock=world.clock, **kwargs)
    if isinstance(custode, FlatFileCustode):
        bsc = ByteSegmentCustode(f"{name}.bsc", registry=world.registry,
                                 linkage=world.linkage, clock=world.clock)
        custode_login = world.login.enter_role(
            custode.identity, "LoggedOn",
            (f"custode:{name}", custode.identity.host),
        )
        custode.wire_below(bsc, custode_login)
    return custode


N_FILES = 1000


@pytest.mark.parametrize("n_groups", [1, 10, 100, N_FILES])
def test_e6_shared_acl_state_and_certificates(benchmark, bench_world, n_groups):
    """1000 files in n_groups access-control groups: ACL state stored and
    certificates needed for full access scale with n_groups, not files."""
    ffc = make_custode(bench_world, f"ffc{n_groups}")
    client, login_cert = bench_world.user("dm")

    def build():
        acls = [
            ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
            for _ in range(n_groups)
        ]
        fids = [
            ffc.create(acls[i % n_groups], b"x") for i in range(N_FILES)
        ]
        certs = [ffc.enter_use_acl(client, acl, login_cert) for acl in acls]
        # read every file with its group certificate
        for i, fid in enumerate(fids):
            ffc.read(certs[i % n_groups], fid)
        return len(acls), len(certs)

    acl_count, cert_count = benchmark.pedantic(build, rounds=3)
    record(benchmark, files=N_FILES, acl_files_stored=acl_count,
           certificates_needed=cert_count)
    assert acl_count == n_groups and cert_count == n_groups


def test_e6_validation_cache_effectiveness(benchmark, bench_world):
    """One shared certificate re-used across a group's files hits the
    signature cache on every access after the first."""
    ffc = make_custode(bench_world, "ffc-cache")
    client, login_cert = bench_world.user("dm")
    acl = ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
    fids = [ffc.create(acl, b"x") for i in range(100)]
    cert = ffc.enter_use_acl(client, acl, login_cert)
    ffc.read(cert, fids[0])   # prime

    def sweep():
        for fid in fids:
            ffc.read(cert, fid)

    benchmark(sweep)
    stats = ffc.service.stats
    hit_rate = stats.signature_cache_hits / max(1, stats.validations)
    record(benchmark, cache_hit_rate=round(hit_rate, 4))
    assert hit_rate > 0.95


def test_e7_remote_acl_costs_one_call(benchmark, bench_world):
    """Fig 5.5: a file protected by a remote ACL needs exactly one
    remote call per (uncached) entry; the meta-check stays local."""
    bsc = make_custode(bench_world, "bsc7", cls=ByteSegmentCustode)
    ffc = make_custode(bench_world, "ffc7")
    meta = bsc.create_acl(Acl.parse("custode:ffc7=+r", alphabet="rw"))
    remote_acl = bsc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"),
                                protecting_acl_id=meta)
    fid = ffc.create_file(b"x", remote_acl)
    client, login_cert = bench_world.user("dm")

    @Counted
    def enter():
        return ffc.enter_use_acl(client, remote_acl, login_cert)

    before = ffc.remote_acl_reads
    cert = benchmark(enter)
    calls_per_entry = (ffc.remote_acl_reads - before) / enter.calls
    record(benchmark, remote_calls_per_entry=round(calls_per_entry, 2))
    assert calls_per_entry <= 1.1


def test_e7_cycle_terminates_with_placement(benchmark, bench_world):
    """Fig 5.5: a logical cycle between local ACLs terminates quickly."""
    ffc = make_custode(bench_world, "ffc-cyc")
    # two ACLs protecting each other (legal: both local)
    acl_a = ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"))
    acl_b = ffc.create_acl(Acl.parse("dm=+rwad", alphabet="rwad"),
                           protecting_acl_id=acl_a)
    # close the cycle
    record_a = ffc._acl_record(acl_a)
    record_a.acl_id = acl_b
    fid = ffc.create(acl_a, b"x")
    client, login_cert = bench_world.user("dm")

    def enter_and_read():
        cert = ffc.enter_use_acl(client, acl_a, login_cert)
        return ffc.read(cert, fid)

    data = benchmark(enter_and_read)
    assert data == b"x"
    record(benchmark, cyclic_acls="terminates")


def test_e7_cycle_without_placement_detected(bench_world):
    """Fig 5.4: without the constraint, a cross-custode ACL cycle would
    recurse forever; the guard surfaces it as an error instead."""
    c1 = make_custode(bench_world, "cyc1", enforce_placement=False)
    c2 = make_custode(bench_world, "cyc2", cls=FlatFileCustode,
                      enforce_placement=False)
    acl_1 = c1.create_acl(Acl.parse("custode:cyc2=+r dm=+rwad", alphabet="rwad"))
    acl_2 = c2.create_acl(Acl.parse("custode:cyc1=+r dm=+rwad", alphabet="rwad"),
                          protecting_acl_id=acl_1)
    # close the cross-custode cycle
    c1._acl_record(acl_1).acl_id = acl_2
    fid = c2.create_file(b"x", acl_1)
    client, login_cert = bench_world.user("dm")
    with pytest.raises(StorageError, match="recursion limit"):
        c2.enter_use_acl(client, acl_1, login_cert)
