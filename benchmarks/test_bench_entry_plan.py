"""Hot-path scaling of role entry and validation (sections 3.2, 4.2).

A service's rolefile grows with its policy, but a single role-entry
request should pay for the statements that can contribute to the
requested role, not for the whole file.  Likewise a warm validate()
must avoid recomputing the HMAC — while revocation (the architecture's
reason to exist) still takes effect on the very next call.

Counter assertions are exact; timing ratios are generous for CI noise.
Raw numbers go to BENCH_hotpath.json.
"""

import time

import pytest

from benchmarks.conftest import bench_quick, record, record_bench
from repro.core import HostOS, OasisService
from repro.errors import RevokedError
from repro.runtime.clock import ManualClock

SMALL = 100
LARGE = 300 if bench_quick() else 1_000
ENTRIES = 50


def _wide_rolefile(n_statements):
    """One hot role plus ``n_statements - 1`` unrelated ground statements."""
    lines = ["def Hot(n)  n: integer", "Hot(n) <- "]
    for i in range(n_statements - 1):
        lines.append(f"def Decoy{i}(n)  n: integer")
        lines.append(f"Decoy{i}(n) <- ")
    return "\n".join(lines)


def _service(n_statements):
    svc = OasisService("S", clock=ManualClock())
    svc.add_rolefile("main", _wide_rolefile(n_statements))
    client = HostOS("h").create_domain().client_id
    return svc, client


def _time_entries(svc, client):
    svc.enter_role(client, "Hot", (0,))   # compile the plan outside the timer
    start = time.perf_counter()
    for i in range(1, ENTRIES + 1):
        svc.enter_role(client, "Hot", (i,))
    return time.perf_counter() - start


def test_entry_plan_flat_under_wide_rolefile():
    """The acceptance gate: role entry roughly flat as the rolefile grows
    from 100 to 1000 statements."""
    svc_small, client_small = _service(SMALL)
    svc_large, client_large = _service(LARGE)
    t_small = _time_entries(svc_small, client_small)
    t_large = _time_entries(svc_large, client_large)

    engine = svc_large._rolefiles["main"].engine
    # exact: each evaluation considered only Hot's one candidate statement
    assert engine.stats.statements_considered == engine.stats.evaluations
    assert engine.stats.statements_skipped == engine.stats.evaluations * (LARGE - 1)
    assert engine.stats.plans_compiled == 1
    # generous: a full scan would be ~LARGE/SMALL worse
    assert t_large < 8 * t_small, (
        f"role entry not flat: {t_small:.4f}s @ {SMALL} statements vs "
        f"{t_large:.4f}s @ {LARGE} statements"
    )
    record_bench(
        "hotpath", "entry_plan",
        statements_small=SMALL,
        statements_large=LARGE,
        entries=ENTRIES,
        seconds_small=t_small,
        seconds_large=t_large,
        ratio=t_large / t_small if t_small else None,
        statements_skipped_per_entry=LARGE - 1,
    )


def test_warm_validate_avoids_hmac_until_revoked():
    """The acceptance gate: a warm validate() computes no HMAC, and a
    cascade revocation still fails validation on the very next call."""
    svc, client = _service(SMALL)
    cert = svc.enter_role(client, "Hot", (1,))
    svc.validate(cert)                        # cold: computes the HMAC

    computed = svc.signer.signatures_computed
    rounds = 100
    start = time.perf_counter()
    for _ in range(rounds):
        svc.validate(cert)
    elapsed = time.perf_counter() - start
    assert svc.signer.signatures_computed == computed, (
        "warm validate() recomputed the HMAC"
    )
    hits = svc.stats.validity_cache_hits

    svc.exit_role(cert)
    with pytest.raises(RevokedError):
        svc.validate(cert)

    record_bench(
        "hotpath", "warm_validate",
        warm_rounds=rounds,
        seconds=elapsed,
        hmacs_recomputed=0,
        validity_cache_hits=hits,
        revocation_visible_next_call=True,
    )


def test_entry_timed_wide_rolefile(benchmark):
    """Per-request latency of role entry against a wide rolefile."""
    svc, client = _service(LARGE)
    counter = iter(range(10_000_000))
    benchmark(lambda: svc.enter_role(client, "Hot", (next(counter),)))
    engine = svc._rolefiles["main"].engine
    record(
        benchmark,
        statements=LARGE,
        plan_hits=engine.stats.plan_hits,
        statements_skipped=engine.stats.statements_skipped,
    )
