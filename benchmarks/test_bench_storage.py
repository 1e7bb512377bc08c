"""Hot-path scaling of the storage fast path (chapter 5).

Repeated operations against the same file with the same certificate are
the common case for a custode; after the first full check they should
pay one decision-cache lookup, not a re-validation — while revocation,
ACL modification and link suspicion still take effect on the very next
call.  Cross-custode checks against a remote ACL should read the ACL
over the wire once, then stay coherent through the external-record
notifications instead of re-reading.

Counter assertions are exact; timing ratios are generous for CI noise.
Raw numbers go to BENCH_hotpath.json.
"""

import time

import pytest

from benchmarks.conftest import bench_quick, record_bench
from repro.errors import RevokedError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from benchmarks.test_bench_mssa_acl import make_custode

ACL_ENTRIES = 50
ROUNDS = 100 if bench_quick() else 400
REMOTE_CHECKS = 50


def _wide_acl(alphabet="rw"):
    """A 50-entry ACL where the hot user matches on the last entry."""
    decoys = " ".join(f"u{i}=+{alphabet}" for i in range(ACL_ENTRIES - 1))
    return Acl.parse(f"{decoys} dm=+{alphabet}", alphabet=alphabet)


def test_warm_read_segment_speedup(bench_world):
    """The acceptance gate: repeated read_segment against a 50-entry ACL
    is >= 5x faster warm (decision cache) than cold (full validation)."""
    bsc = make_custode(bench_world, "bsc-hot", cls=ByteSegmentCustode)
    acl = bsc.create_acl(_wide_acl())
    fid = bsc.create_segment(acl, b"payload" * 64)
    client, login_cert = bench_world.user("dm")
    cert = bsc.enter_use_acl(client, acl, login_cert)
    bsc.read_segment(cert, fid)   # prime once outside both timers

    start = time.perf_counter()
    for _ in range(ROUNDS):
        bsc.clear_storage_caches()
        bsc.service.clear_validation_caches()
        bsc.read_segment(cert, fid)
    t_cold = time.perf_counter() - start

    bsc.read_segment(cert, fid)   # re-prime
    hits_before = bsc.storage.decision_hits
    start = time.perf_counter()
    for _ in range(ROUNDS):
        bsc.read_segment(cert, fid)
    t_warm = time.perf_counter() - start

    # exact: every warm read was served from the decision cache
    assert bsc.storage.decision_hits == hits_before + ROUNDS
    assert t_cold > 5 * t_warm, (
        f"warm path not fast enough: cold {t_cold:.4f}s vs warm {t_warm:.4f}s "
        f"({t_cold / t_warm:.1f}x) over {ROUNDS} reads"
    )
    record_bench(
        "hotpath", "storage_warm_read",
        acl_entries=ACL_ENTRIES,
        rounds=ROUNDS,
        seconds_cold=t_cold,
        seconds_warm=t_warm,
        speedup=round(t_cold / t_warm, 1) if t_warm else None,
        decision_hits=ROUNDS,
    )


def test_remote_acl_check_reduction(bench_world):
    """The acceptance gate: repeated cross-custode checks re-read the
    remote ACL >= 10x less often than one read per check."""
    bsc = make_custode(bench_world, "bsc-rem", cls=ByteSegmentCustode)
    ffc = make_custode(bench_world, "ffc-rem")
    meta = bsc.create_acl(Acl.parse("custode:ffc-rem=+r", alphabet="rw"))
    remote_acl = bsc.create_acl(_wide_acl("rwad"), protecting_acl_id=meta)
    ffc.create(remote_acl, b"x")   # the remote ACL governs a local file
    client, login_cert = bench_world.user("dm")

    for _ in range(REMOTE_CHECKS):
        ffc.enter_use_acl(client, remote_acl, login_cert)

    reads = ffc.remote_acl_reads
    reduction = REMOTE_CHECKS / max(1, reads)
    # exact: the surrogate store went to the wire exactly once
    assert reads == 1
    assert ffc.storage.surrogate_hits == REMOTE_CHECKS - 1
    assert reduction >= 10
    record_bench(
        "hotpath", "storage_remote_checks",
        checks=REMOTE_CHECKS,
        remote_acl_reads=reads,
        reduction=round(reduction, 1),
        surrogate_hits=ffc.storage.surrogate_hits,
    )


def test_revocation_visible_next_call(bench_world):
    """The acceptance gate: a revoked certificate and a modified ACL are
    both denied on the access immediately after the change, despite a
    fully warm cache."""
    bsc = make_custode(bench_world, "bsc-rev", cls=ByteSegmentCustode)
    meta = bsc.create_acl(Acl.parse("dm=+rw", alphabet="rw"))
    acl = bsc.create_acl(_wide_acl(), protecting_acl_id=meta)
    fid = bsc.create_segment(acl, b"x")
    client, login_cert = bench_world.user("dm")

    cert = bsc.enter_use_acl(client, acl, login_cert)
    for _ in range(10):
        bsc.read_segment(cert, fid)   # fully warm
    bsc.service.exit_role(cert)
    with pytest.raises(RevokedError):
        bsc.read_segment(cert, fid)

    cert = bsc.enter_use_acl(client, acl, login_cert)
    for _ in range(10):
        bsc.read_segment(cert, fid)   # warm again
    admin = bsc.enter_use_acl(client, meta, login_cert)
    bsc.modify_acl(admin, acl, Acl.parse("u0=+rw", alphabet="rw"))
    with pytest.raises(RevokedError):
        bsc.read_segment(cert, fid)

    record_bench(
        "hotpath", "storage_revocation",
        revocation_visible_next_call=True,
        acl_modify_visible_next_call=True,
        invalidated_by_record=bsc.storage.invalidated_by_record,
    )
