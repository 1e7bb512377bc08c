"""E1 (fig 4.4/4.5) and E2 (section 4.5): revocation scheme comparison.

E1 — validation cost vs delegation depth: capability chaining validates
O(depth) with a signature check per link; OASIS credential records
validate O(1) (one record lookup after the cached signature check),
regardless of how deep the delegation tree is.

E2 — background cost: with no revocation, OASIS does *no* background
work, while refresh-based schemes re-sign every live credential each
period; with heavy revocation, I-Cap's revoked-set grows without bound
while OASIS deletes permanent records at the next sweep.
"""

import pytest

from benchmarks.conftest import Counted, record
from repro.baselines import ChainedCapabilityScheme, ICapScheme, RefreshScheme
from repro.core.credentials import CredentialRecordTable, RecordState

DEPTHS = [1, 4, 16, 64]


def build_chain(depth):
    scheme = ChainedCapabilityScheme()
    chain = scheme.issue("root", frozenset("rw"))
    for i in range(depth):
        chain = chain.delegate(f"holder{i}")
    return scheme, chain


def build_records(depth):
    """The equivalent delegation tree in credential records: a chain of
    AND gates; the *certificate* embeds only the leaf record."""
    table = CredentialRecordTable()
    record_ = table.create_source(state=RecordState.TRUE)
    for _ in range(depth):
        record_ = table.create_and([record_.ref])
    return table, record_.ref


@pytest.mark.parametrize("depth", DEPTHS)
def test_e1_validate_chaining(benchmark, depth):
    scheme, chain = build_chain(depth)
    validate = Counted(chain.validate)
    benchmark(validate)
    checks_per_validation = scheme.signature_checks / validate.calls
    # one signature check per link: O(depth)
    assert checks_per_validation == depth + 1
    record(benchmark, depth=depth,
           signature_checks_per_validation=round(checks_per_validation, 1))


@pytest.mark.parametrize("depth", DEPTHS)
def test_e1_validate_credential_records(benchmark, depth):
    table, leaf_ref = build_records(depth)
    result = benchmark(table.state_of, leaf_ref)
    assert result is RecordState.TRUE
    record(benchmark, depth=depth, lookups_per_validation=1)


@pytest.mark.parametrize("depth", DEPTHS)
def test_e1_revoke_cascade_credential_records(benchmark, depth):
    """Revocation through a deep tree is one propagation pass."""

    def setup():
        table, leaf_ref = build_records(depth)
        root_ref = 0  # the source record is always index 0, magic 0
        return (table, table._rows[0].ref, leaf_ref), {}

    def revoke(table, root_ref, leaf_ref):
        table.revoke(root_ref)
        return table.state_of(leaf_ref)

    result = benchmark.pedantic(revoke, setup=setup, rounds=50)
    assert result is RecordState.FALSE
    record(benchmark, depth=depth)


def test_e2_background_cost_no_revocation(benchmark):
    """10k live credentials, zero revocations, 100 periods: OASIS does
    nothing; the refresh scheme re-signs everything every period."""
    n, periods = 10_000, 100

    def run_refresh_background():
        refresh = RefreshScheme(lifetime=2.0)
        for i in range(n):
            refresh.issue(f"u{i}", frozenset("r"), now=0.0)
        count = 0
        for period in range(periods):
            count += refresh.background_tick(now=float(period))
        return count

    refreshes = benchmark(run_refresh_background)
    oasis_background_ops = 0   # event-driven: nothing changed, nothing runs
    record(
        benchmark,
        refresh_signatures_per_100_periods=refreshes,
        oasis_background_ops=oasis_background_ops,
    )
    assert refreshes > 0 and oasis_background_ops == 0


@pytest.mark.parametrize("revoke_fraction", [0.0, 0.1, 0.5])
def test_e2_state_growth_icap_vs_oasis(benchmark, revoke_fraction):
    """Issue 10k capabilities, revoke a fraction: I-Cap's revoked-set
    keeps every dead id forever; OASIS's sweep reclaims permanent
    records."""
    n = 10_000

    def run():
        icap = ICapScheme()
        caps = [icap.issue(f"u{i}", frozenset("r")) for i in range(n)]
        table = CredentialRecordTable()
        records = [
            table.create_source(state=RecordState.TRUE, direct_use=True)
            for _ in range(n)
        ]
        k = int(n * revoke_fraction)
        for cap, rec in zip(caps[:k], records[:k]):
            icap.revoke(cap)
            table.revoke(rec.ref)
        table.sweep()
        return icap.revoked_state_size, table.live_count()

    icap_state, oasis_live = benchmark(run)
    record(
        benchmark,
        revoke_fraction=revoke_fraction,
        icap_revoked_state=icap_state,
        oasis_live_records=oasis_live,
    )
    # OASIS stores state per *valid* capability; I-Cap per *revoked* one.
    assert oasis_live == n - int(n * revoke_fraction)
    assert icap_state == int(n * revoke_fraction)
