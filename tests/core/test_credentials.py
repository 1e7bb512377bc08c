"""Unit + property tests for credential records (sections 4.6-4.9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.credentials import (
    CredentialRecordTable,
    RecordOp,
    RecordState,
    pack_ref,
    unpack_ref,
)
from repro.errors import OasisError

T, F, U = RecordState.TRUE, RecordState.FALSE, RecordState.UNKNOWN


def test_pack_unpack_ref_roundtrip():
    assert unpack_ref(pack_ref(12345, 678)) == (12345, 678)


class TestSources:
    def test_create_and_read(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T)
        assert table.state_of(record.ref) is T

    def test_set_state(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T)
        table.set_state(record.ref, F)
        assert table.state_of(record.ref) is F

    def test_set_on_gate_rejected(self):
        table = CredentialRecordTable()
        src = table.create_source()
        gate = table.create_and([src.ref])
        with pytest.raises(OasisError):
            table.set_state(gate.ref, F)

    def test_permanent_blocks_changes(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T)
        table.set_state(record.ref, F, permanent=True)
        table.set_state(record.ref, T)
        assert table.state_of(record.ref) is F

    def test_missing_record_reads_false(self):
        table = CredentialRecordTable()
        assert table.state_of(pack_ref(99, 0)) is F


class TestGates:
    def test_and_truth_table(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        b = table.create_source(state=T)
        gate = table.create_and([a.ref, b.ref])
        assert gate.state is T
        table.set_state(b.ref, F)
        assert table.state_of(gate.ref) is F
        table.set_state(b.ref, T)
        assert table.state_of(gate.ref) is T

    def test_or_gate(self):
        table = CredentialRecordTable()
        a = table.create_source(state=F)
        b = table.create_source(state=F)
        gate = table.create_gate(RecordOp.OR, [(a.ref, False), (b.ref, False)])
        assert gate.state is F
        table.set_state(a.ref, T)
        assert table.state_of(gate.ref) is T

    def test_nand_nor(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        nand = table.create_gate(RecordOp.NAND, [(a.ref, False)])
        nor = table.create_gate(RecordOp.NOR, [(a.ref, False)])
        assert nand.state is F
        assert nor.state is F
        table.set_state(a.ref, F)
        assert table.state_of(nand.ref) is T
        assert table.state_of(nor.ref) is T

    def test_negated_edge(self):
        """'not' as a distinguished parent->child reference (section 4.7)."""
        table = CredentialRecordTable()
        a = table.create_source(state=F)
        gate = table.create_gate(RecordOp.AND, [(a.ref, True)])
        assert gate.state is T
        table.set_state(a.ref, T)
        assert table.state_of(gate.ref) is F

    def test_unknown_propagates_through_and(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        b = table.create_source(state=T)
        gate = table.create_and([a.ref, b.ref])
        table.set_state(a.ref, U)
        assert table.state_of(gate.ref) is U
        table.set_state(b.ref, F)  # false dominates unknown in AND
        assert table.state_of(gate.ref) is F

    def test_unknown_in_or(self):
        table = CredentialRecordTable()
        a = table.create_source(state=U)
        b = table.create_source(state=F)
        gate = table.create_gate(RecordOp.OR, [(a.ref, False), (b.ref, False)])
        assert gate.state is U
        table.set_state(b.ref, T)  # true dominates unknown in OR
        assert table.state_of(gate.ref) is T

    def test_deep_cascade(self):
        """Fig 4.5: revoking one record kills an entire delegation tree."""
        table = CredentialRecordTable()
        root = table.create_source(state=T)
        layer = [root.ref]
        leaves = []
        for _depth in range(5):
            nxt = []
            for parent in layer:
                for _ in range(2):
                    gate = table.create_and([parent])
                    nxt.append(gate.ref)
            layer = nxt
            leaves = nxt
        assert all(table.state_of(ref) is T for ref in leaves)
        table.revoke(root.ref)
        assert all(table.state_of(ref) is F for ref in leaves)

    def test_missing_parent_counts_permanently_false(self):
        table = CredentialRecordTable()
        gate = table.create_and([pack_ref(404, 0)])
        assert gate.state is F
        assert gate.permanent

    def test_revoke_gate_directly(self):
        """Fig 4.6 optimisation: the conjunction record is itself the
        delegation record and may be revoked directly."""
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        gate = table.create_and([a.ref])
        assert table.revoke(gate.ref)
        assert table.state_of(gate.ref) is F
        table.set_state(a.ref, F)
        table.set_state(a.ref, T)
        assert table.state_of(gate.ref) is F  # still revoked

    def test_revoke_missing_returns_false(self):
        table = CredentialRecordTable()
        assert table.revoke(pack_ref(7, 3)) is False


class TestPermanence:
    def test_permanent_false_parent_fixes_and_gate(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        b = table.create_source(state=T)
        gate = table.create_and([a.ref, b.ref])
        table.set_state(a.ref, F, permanent=True)
        assert table.get(gate.ref).permanent
        assert table.state_of(gate.ref) is F

    def test_true_gates_never_auto_permanent(self):
        """A TRUE gate can always still be revoked, so parent permanence
        must not freeze it (the fig 4.6 conjunction record stays
        revocable)."""
        table = CredentialRecordTable()
        a = table.create_source(state=T, permanent=True)
        b = table.create_source(state=T, permanent=True)
        gate = table.create_and([a.ref, b.ref])
        assert gate.state is T
        assert not gate.permanent
        assert table.revoke(gate.ref)
        assert table.state_of(gate.ref) is F

    def test_all_false_parents_fix_or_gate(self):
        table = CredentialRecordTable()
        a = table.create_source(state=F, permanent=True)
        b = table.create_source(state=F, permanent=True)
        gate = table.create_gate(RecordOp.OR, [(a.ref, False), (b.ref, False)])
        assert gate.state is F
        assert gate.permanent

    def test_revocation_cascades_through_true_gate_chain(self):
        """Regression: an empty AND gate (no membership rules) must still
        propagate a forced revocation to its children."""
        table = CredentialRecordTable()
        top = table.create_gate(RecordOp.AND, [], direct_use=True)
        mid = table.create_and([top.ref])
        leaf = table.create_and([mid.ref])
        assert leaf.state is T
        table.revoke(top.ref)
        assert table.state_of(mid.ref) is F
        assert table.state_of(leaf.ref) is F


class TestWatches:
    def test_watch_fires_on_change(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T)
        events = []
        table.watch(record.ref, lambda r, old, new: events.append((old, new)))
        table.set_state(record.ref, F)
        assert events == [(T, F)]

    def test_watch_fires_in_cascade_order(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        gate = table.create_and([a.ref])
        order = []
        table.watch(a.ref, lambda r, o, n: order.append("src"))
        table.watch(gate.ref, lambda r, o, n: order.append("gate"))
        table.set_state(a.ref, F)
        assert order == ["gate", "src"]  # children settle before source fires

    def test_watch_all(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        changes = []
        table.watch_all(lambda batch: changes.extend(r.ref for r, o, n in batch))
        table.set_state(a.ref, F)
        assert changes == [a.ref]


class TestExternals:
    def test_surrogate_starts_unknown(self):
        """Sections 4.9/4.10: before the first Modified notification we
        have no evidence about the remote fact — fail closed, not open."""
        table = CredentialRecordTable()
        ext = table.create_external("Login", 1234)
        assert table.state_of(ext.ref) is U

    def test_external_surrogate_updates(self):
        table = CredentialRecordTable()
        ext = table.create_external("Login", 1234)
        table.update_external("Login", 1234, F)
        assert table.state_of(ext.ref) is F

    def test_external_reuse(self):
        table = CredentialRecordTable()
        a = table.create_external("Login", 1)
        b = table.create_external("Login", 1)
        assert a.ref == b.ref

    def test_mark_service_unknown(self):
        """Section 4.10: a missed heartbeat marks external records
        Unknown, which propagates to children."""
        table = CredentialRecordTable()
        ext = table.create_external("Login", 1)
        table.update_external("Login", 1, T)
        gate = table.create_and([ext.ref])
        assert gate.state is T
        changed = table.mark_service_unknown("Login")
        assert changed == 1
        assert table.state_of(gate.ref) is U

    def test_restore_after_unknown(self):
        table = CredentialRecordTable()
        ext = table.create_external("Login", 1)
        table.mark_service_unknown("Login")
        table.update_external("Login", 1, T)
        assert table.state_of(ext.ref) is T


class TestGarbageCollection:
    def test_revoked_leaf_collected(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T, direct_use=True)
        table.revoke(record.ref)
        deleted = table.sweep()
        assert deleted == 1
        assert table.get(record.ref) is None
        assert table.state_of(record.ref) is F  # still reads revoked

    def test_live_direct_use_kept(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T, permanent=True, direct_use=True)
        assert table.sweep() == 0
        assert table.get(record.ref) is not None

    def test_uninteresting_permanent_true_collected(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T, permanent=True)
        assert table.sweep() == 1

    def test_subscribed_record_kept(self):
        table = CredentialRecordTable()
        record = table.create_source(state=T)
        table.revoke(record.ref)
        table_record = table.get(record.ref)
        table_record.subscribers.add("peer")
        assert table.sweep() == 0

    def test_magic_prevents_stale_refs(self):
        """(table index, Magic) is unique over the service lifetime."""
        table = CredentialRecordTable()
        old = table.create_source(state=T, direct_use=True)
        old_ref = old.ref
        table.revoke(old_ref)
        table.sweep()
        fresh = table.create_source(state=T)   # reuses the row
        assert fresh.index == old.index
        assert fresh.magic == old.magic + 1
        assert table.get(old_ref) is None      # stale ref does not resolve
        assert table.state_of(old_ref) is F
        assert table.get(fresh.ref) is fresh

    def test_permanent_parents_unlinked(self):
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        gate = table.create_and([a.ref], direct_use=True)
        table.set_state(a.ref, T, permanent=True)
        table.sweep()
        assert table.get(a.ref) is None        # collected
        assert table.state_of(gate.ref) is T   # child unaffected

    def test_live_parent_never_reaches_a_recycled_row(self):
        """A live parent's edge into a revoked child must not outlive the
        child: once sweep() recycles the row, the parent's flips would
        corrupt the counters of the row's next, unrelated occupant."""
        table = CredentialRecordTable()
        src = table.create_source(state=F)
        other = table.create_source(state=F)
        gate = table.create_and([src.ref])
        table.revoke(gate.ref)
        table.sweep()
        unrelated = table.create_and([other.ref])
        assert unrelated.index == gate.index   # the row was recycled
        table.set_state(src.ref, T)
        assert table.state_of(unrelated.ref) is F   # its only parent is FALSE
        assert (unrelated.n_true, unrelated.n_false) == (0, 1)
        assert src.children == []


class TestCascadeBatching:
    def test_set_states_batch_is_one_cascade(self):
        table = CredentialRecordTable()
        sources = [table.create_source(state=T) for _ in range(3)]
        gate = table.create_and([s.ref for s in sources])
        fired = []
        table.watch(gate.ref, lambda r, old, new: fired.append((old, new)))
        before = table.propagations
        table.set_states([(s.ref, F) for s in sources])
        assert table.propagations == before + 1
        assert fired == [(T, F)]  # gate notified once, not once per source

    def test_flip_flop_fires_nothing(self):
        """A record that changes and changes back while the cascade settles
        has no *net* change, so its watches stay silent."""
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        c = table.create_and([a.ref])
        # b = a̅ AND c: starts FALSE; a's revocation flips the negated edge
        # true first (b transiently TRUE), then c's fall flips b back
        b = table.create_gate(RecordOp.AND, [(a.ref, True), (c.ref, False)])
        assert b.state is F
        fired = []
        table.watch_all(lambda batch: fired.extend(r.index for r, old, new in batch))
        table.revoke(a.ref)
        assert b.state is F and b.permanent      # settled back, absorbed
        assert fired == [c.index, a.index]       # b never reported

    def test_callback_mutation_joins_active_cascade(self):
        """A revoke issued from inside a watch callback (e.g. the service
        latching a dependent credential) extends the running cascade
        instead of nesting a second one."""
        table = CredentialRecordTable()
        a = table.create_source(state=T)
        x = table.create_source(state=T)
        gate = table.create_and([a.ref])
        x_fired = []
        table.watch(gate.ref, lambda r, old, new: table.revoke(x.ref))
        table.watch(x.ref, lambda r, old, new: x_fired.append((old, new)))
        before = table.propagations
        table.revoke(a.ref)
        assert table.propagations == before + 1
        assert table.state_of(x.ref) is F and x_fired == [(T, F)]


# ---------------------------------------------------------------- properties


@st.composite
def _graph_ops(draw):
    """A random sequence of graph-building and state-flipping operations."""
    n_sources = draw(st.integers(min_value=1, max_value=6))
    n_gates = draw(st.integers(min_value=0, max_value=8))
    gates = []
    for _ in range(n_gates):
        op = draw(st.sampled_from([RecordOp.AND, RecordOp.OR, RecordOp.NAND, RecordOp.NOR]))
        arity = draw(st.integers(min_value=1, max_value=3))
        parents = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_sources + len(gates) - 1),
                    st.booleans(),
                ),
                min_size=arity,
                max_size=arity,
            )
        )
        gates.append((op, parents))
    flips = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_sources - 1),
                st.sampled_from([T, F, U]),
            ),
            max_size=10,
        )
    )
    return n_sources, gates, flips


def _model_eval(op, parent_states, edges):
    effective = []
    for state, negate in zip(parent_states, edges):
        if negate and state is not U:
            state = F if state is T else T
        effective.append(state)
    if op in (RecordOp.AND, RecordOp.NAND):
        if F in effective:
            base = F
        elif U in effective:
            base = U
        else:
            base = T
        flip = op is RecordOp.NAND
    else:
        if T in effective:
            base = T
        elif U in effective:
            base = U
        else:
            base = F
        flip = op in (RecordOp.NOR,)
    if flip and base is not U:
        base = F if base is T else T
    return base


@given(_graph_ops())
@settings(max_examples=200, deadline=None)
def test_incremental_propagation_matches_model(ops):
    """INVARIANT: after any sequence of source flips, every gate's state
    equals a from-scratch evaluation of the DAG (the counter-based
    incremental scheme of section 4.8 is exact)."""
    n_sources, gate_specs, flips = ops
    table = CredentialRecordTable()
    sources = [table.create_source(state=T) for _ in range(n_sources)]
    nodes = list(sources)
    specs = []  # (op, [(node_idx, negate)])
    for op, parents in gate_specs:
        refs = [(nodes[i].ref, neg) for i, neg in parents]
        gate = table.create_gate(op, refs)
        specs.append((op, parents))
        nodes.append(gate)

    source_states = [T] * n_sources
    for idx, new_state in flips:
        table.set_state(sources[idx].ref, new_state)
        source_states[idx] = new_state

    # from-scratch model evaluation in creation order (a DAG by construction)
    model = list(source_states)
    for op, parents in specs:
        parent_states = [model[i] for i, _ in parents]
        edges = [neg for _, neg in parents]
        model.append(_model_eval(op, parent_states, edges))

    for node, expected in zip(nodes, model):
        assert table.state_of(node.ref) is expected


@given(st.lists(st.sampled_from(["flip", "revoke", "sweep"]), max_size=20))
@settings(max_examples=100, deadline=None)
def test_sweep_never_resurrects_revoked(ops):
    """INVARIANT: once revoked, a ref reads FALSE forever, across any
    interleaving of flips, revocations and sweeps (name-space reuse is
    protected by the magic field)."""
    table = CredentialRecordTable()
    source = table.create_source(state=T)
    gate = table.create_and([source.ref], direct_use=True)
    revoked_refs = []
    state = T
    for op in ops:
        if op == "flip":
            state = F if state is T else T
            table.set_state(source.ref, state)
        elif op == "revoke":
            table.revoke(gate.ref)
            revoked_refs.append(gate.ref)
            gate = table.create_and([source.ref], direct_use=True)
        else:
            table.sweep()
        for ref in revoked_refs:
            assert table.state_of(ref) is F


@st.composite
def _surrogate_ops(draw):
    """Interleaved surrogate creation, Modified batches (duplicate refs,
    refs never created, mixed states), heartbeat misses, gates over
    surrogates, revocations and sweeps, over 2-3 issuers."""
    issuers = ["Login", "Bank", "Files"][: draw(st.integers(min_value=2, max_value=3))]
    issuer = st.sampled_from(issuers)
    ref = st.integers(min_value=0, max_value=3)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("create"), issuer, ref),
                st.tuples(
                    st.just("update"),
                    issuer,
                    st.lists(
                        st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from([T, F, U])),
                        max_size=6,
                    ),
                ),
                st.tuples(st.just("unknown"), issuer),
                st.tuples(st.just("gate"), st.lists(st.tuples(issuer, ref), min_size=1, max_size=3)),
                st.tuples(st.just("revoke"), issuer, ref),
                st.tuples(st.just("sweep")),
            ),
            max_size=40,
        )
    )
    return issuers, ops


@given(_surrogate_ops())
@settings(max_examples=200, deadline=None)
def test_surrogate_index_matches_brute_force(case):
    """INVARIANT: the (issuer, remote CRR) surrogate index always equals
    a brute-force scan of every row by (external_service, external_ref),
    and each surrogate's state — and every gate over surrogates — equals
    a model fed the same operations."""
    issuers, ops = case
    table = CredentialRecordTable()
    live = {}    # (issuer, remote ref) -> model surrogate {"ref", "state", "perm"}
    gates = []   # (gate ref, [model surrogates it was built over])
    for op in ops:
        kind = op[0]
        if kind == "create":
            key = op[1:]
            record = table.create_external(*key)
            if key in live:
                assert record.ref == live[key]["ref"]   # reused, not duplicated
            else:
                assert record.state is U
                live[key] = {"ref": record.ref, "state": U, "perm": False}
        elif kind == "update":
            _, issuer, batch = op
            table.update_external_many(issuer, batch)
            for remote_ref, state in dict(batch).items():   # later entries win
                entry = live.get((issuer, remote_ref))
                if entry is not None and not entry["perm"]:
                    entry["state"] = state
        elif kind == "unknown":
            expected = 0
            for (issuer, _), entry in live.items():
                if issuer == op[1] and not entry["perm"] and entry["state"] is not U:
                    entry["state"] = U
                    expected += 1
            assert table.mark_service_unknown(op[1]) == expected
        elif kind == "gate":
            parents = [live[key] for key in op[1] if key in live]
            if parents:
                gate = table.create_and([entry["ref"] for entry in parents])
                gates.append((gate.ref, parents))
        elif kind == "revoke":
            entry = live.get(op[1:])
            if entry is not None:
                table.revoke(entry["ref"])
                entry["state"], entry["perm"] = F, True
        else:
            table.sweep()
            # a revoked surrogate has no subscribers and its edges are
            # dead, so the sweep collects it
            live = {key: entry for key, entry in live.items() if not entry["perm"]}

        surrogates = [r for r in table.all_records() if r.is_external]
        brute = {(r.external_service, r.external_ref): r for r in surrogates}
        assert len(brute) == len(surrogates)
        assert brute.keys() == live.keys()
        for issuer in issuers:
            assert {r.ref for r in table.externals_of(issuer)} == {
                r.ref for (i, _), r in brute.items() if i == issuer
            }
            for remote_ref in range(6):
                assert table.external(issuer, remote_ref) is brute.get((issuer, remote_ref))
        assert table.external_services() == sorted({issuer for issuer, _ in brute})
        for key, entry in live.items():
            assert brute[key].ref == entry["ref"]
            assert brute[key].state is entry["state"]
        for gate_ref, parents in gates:
            assert table.state_of(gate_ref) is _model_eval(
                RecordOp.AND, [entry["state"] for entry in parents], [False] * len(parents)
            )


def _model_perm(op, parent_states, parent_perms, edges, state):
    """From-scratch permanence, mirroring compute_permanent on a gate."""
    if state is not F:
        return False
    eff = []
    for s, neg in zip(parent_states, edges):
        if neg and s is not U:
            s = F if s is T else T
        eff.append(s)
    p_false = sum(1 for s, p in zip(eff, parent_perms) if p and s is F)
    p_true = sum(1 for s, p in zip(eff, parent_perms) if p and s is T)
    n = len(edges)
    if op is RecordOp.AND:
        return p_false > 0
    if op is RecordOp.NAND:
        return p_true == n
    if op is RecordOp.OR:
        return p_false == n
    return p_true > 0  # NOR


@st.composite
def _dag_with_revokes(draw):
    n_sources = draw(st.integers(min_value=1, max_value=5))
    n_gates = draw(st.integers(min_value=0, max_value=7))
    gates = []
    for _ in range(n_gates):
        op = draw(st.sampled_from([RecordOp.AND, RecordOp.OR, RecordOp.NAND, RecordOp.NOR]))
        arity = draw(st.integers(min_value=1, max_value=3))
        parents = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_sources + len(gates) - 1),
                    st.booleans(),
                ),
                min_size=arity,
                max_size=arity,
            )
        )
        gates.append((op, parents))
    n_nodes = n_sources + n_gates
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("flip"),
                    st.integers(min_value=0, max_value=n_sources - 1),
                    st.sampled_from([T, F, U]),
                ),
                st.tuples(st.just("revoke"), st.integers(min_value=0, max_value=n_nodes - 1)),
                st.tuples(
                    st.just("revoke_many"),
                    st.lists(
                        st.integers(min_value=0, max_value=n_nodes - 1), max_size=4
                    ),
                ),
            ),
            max_size=12,
        )
    )
    return n_sources, gates, actions


@given(_dag_with_revokes())
@settings(max_examples=200, deadline=None)
def test_cascade_matches_brute_force_with_revokes(ops):
    """INVARIANT: after any interleaving of flips, single revokes and
    batched revokes, every record's (state, permanent) pair equals a
    from-scratch evaluation of the DAG — with revoked records pinned
    permanently FALSE — and each cascade's watch callbacks report exactly
    the net-changed records with the correct (old, new) transitions."""
    n_sources, gate_specs, actions = ops
    table = CredentialRecordTable()
    sources = [table.create_source(state=T) for _ in range(n_sources)]
    nodes = list(sources)
    for op, parents in gate_specs:
        nodes.append(table.create_gate(op, [(nodes[i].ref, neg) for i, neg in parents]))

    fired = []
    table.watch_all(lambda batch: fired.extend((r.index, old, new) for r, old, new in batch))

    source_state = [T] * n_sources
    revoked = [False] * len(nodes)
    for action in actions:
        snapshot = {n.index: n.state for n in nodes}
        fired.clear()
        if action[0] == "flip":
            _, idx, new_state = action
            table.set_state(sources[idx].ref, new_state)
            if not revoked[idx]:
                source_state[idx] = new_state
        elif action[0] == "revoke":
            _, idx = action
            table.revoke(nodes[idx].ref)
            revoked[idx] = True
        else:
            _, idxs = action
            table.revoke_many([nodes[i].ref for i in idxs])
            for i in idxs:
                revoked[i] = True
        # each action is one cascade: callbacks == exact net state changes
        expected = {
            (n.index, snapshot[n.index], n.state)
            for n in nodes
            if n.state is not snapshot[n.index]
        }
        assert set(fired) == expected
        assert len(fired) == len(expected)  # and each fires exactly once

    states, perms = _model_states(n_sources, gate_specs, source_state, revoked)
    for node, state, perm in zip(nodes, states, perms):
        assert node.state is state
        assert node.permanent is perm


def _model_states(n_sources, gate_specs, source_state, revoked):
    """From-scratch (state, permanent) of every node, recomputed in
    creation order (a DAG by construction), revoked nodes pinned
    permanently FALSE."""
    states, perms = [], []
    for i in range(n_sources):
        states.append(F if revoked[i] else source_state[i])
        perms.append(revoked[i])
    for j, (op, parents) in enumerate(gate_specs):
        if revoked[n_sources + j]:
            states.append(F)
            perms.append(True)
            continue
        parent_states = [states[i] for i, _ in parents]
        edges = [neg for _, neg in parents]
        state = _model_eval(op, parent_states, edges)
        states.append(state)
        perms.append(_model_perm(op, parent_states, [perms[i] for i, _ in parents], edges, state))
    return states, perms


@given(
    _dag_with_revokes(),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_watch_all_gets_one_batch_per_settle_round(ops, latch_pairs):
    """INVARIANT (the batch contract): a ``watch_all`` callback is called
    once per settle round that changed anything, with exactly that
    round's net changes against the end of the previous round, in the
    order the per-record watches fired.  Revocations it issues (here: a
    drawn "when i falls, revoke j" latch map) join the running cascade
    and arrive in the next round; ``records_changed`` counts exactly the
    records delivered, and the end state matches a from-scratch model
    with the latched records revoked."""
    n_sources, gate_specs, actions = ops
    table = CredentialRecordTable()
    sources = [table.create_source(state=T) for _ in range(n_sources)]
    nodes = list(sources)
    for op, parents in gate_specs:
        nodes.append(table.create_gate(op, [(nodes[i].ref, neg) for i, neg in parents]))
    latches = [(i % len(nodes), j % len(nodes)) for i, j in latch_pairs]
    source_state = [T] * n_sources
    revoked = [False] * len(nodes)

    per_record = []
    for node in nodes:
        table.watch(node.ref, lambda r, old, new: per_record.append((r.index, old, new)))
    delivered = []      # the first callback's batches, in call order
    mirrored = []       # the second callback's batches
    snapshot = {node.index: node.state for node in nodes}
    expect_next: set = set()   # latched changes the next round must carry

    def latching(changes):
        batch = [(r.index, old, new) for r, old, new in changes]
        assert batch   # a round with no net change calls nothing
        # this round's per-record watches fired first, in batch order
        assert per_record[sum(len(b) for b in delivered):] == batch
        # exactly the net changes since the previous round ended
        states = {node.index: node.state for node in nodes}
        assert set(batch) == {
            (index, snapshot[index], state)
            for index, state in states.items() if state is not snapshot[index]
        }
        assert len(set(batch)) == len(batch)
        assert expect_next <= set(batch)
        expect_next.clear()
        snapshot.update(states)
        delivered.append(batch)
        fell = {index for index, _old, new in batch if new is F}
        targets = [j for i, j in latches if nodes[i].index in fell]
        for j in targets:
            if not nodes[j].permanent and nodes[j].state is not F:
                expect_next.add((nodes[j].index, nodes[j].state, F))
            revoked[j] = True
        if targets:
            table.revoke_many([nodes[j].ref for j in targets])

    table.watch_all(latching)
    table.watch_all(lambda changes: mirrored.append([(r.index, o, n) for r, o, n in changes]))

    for action in actions:
        before = table.cascade_totals.records_changed
        cascades = table.propagations
        rounds = len(delivered)
        if action[0] == "flip":
            _, idx, new_state = action
            if not revoked[idx]:
                source_state[idx] = new_state
            table.set_state(sources[idx].ref, new_state)
        elif action[0] == "revoke":
            revoked[action[1]] = True
            table.revoke(nodes[action[1]].ref)
        else:
            for i in action[1]:
                revoked[i] = True
            table.revoke_many([nodes[i].ref for i in action[1]])
        assert not expect_next   # every latched change arrived
        assert table.propagations - cascades <= 1   # latches joined it
        assert table.cascade_totals.records_changed - before == sum(
            len(batch) for batch in delivered[rounds:]
        )
        assert mirrored == delivered
        # nothing changed without being reported
        assert all(node.state is snapshot[node.index] for node in nodes)

    states, perms = _model_states(n_sources, gate_specs, source_state, revoked)
    for node, state, perm in zip(nodes, states, perms):
        assert node.state is state
        assert node.permanent is perm


@st.composite
def _random_tree(draw):
    n_gates = draw(st.integers(min_value=1, max_value=10))
    gates = []
    for i in range(n_gates):
        op = draw(st.sampled_from([RecordOp.AND, RecordOp.OR, RecordOp.NAND, RecordOp.NOR]))
        parent = draw(st.integers(min_value=0, max_value=i))  # any earlier node
        gates.append((op, parent))
    target = draw(st.integers(min_value=0, max_value=n_gates))
    return gates, target


@given(_random_tree())
@settings(max_examples=200, deadline=None)
def test_tree_cascade_fires_descendants_before_ancestors(ops):
    """INVARIANT (callback order): on a tree — where every record has one
    parent, so settling depth equals distance from the revoked node — a
    record's watch always fires before its ancestors'. The service layer
    relies on this: dependents are torn down before the credential that
    doomed them reports its own change."""
    gate_specs, target = ops
    table = CredentialRecordTable()
    nodes = [table.create_source(state=T)]
    parent_of = {0: None}
    for op, parent in gate_specs:
        gate = table.create_gate(op, [(nodes[parent].ref, False)])
        parent_of[len(nodes)] = parent
        nodes.append(gate)

    fired = []
    table.watch_all(lambda batch: fired.extend(r.index for r, old, new in batch))
    table.revoke(nodes[target].ref)

    index_to_pos = {nodes[i].index: i for i in range(len(nodes))}
    position = {idx: pos for pos, idx in enumerate(fired)}
    for idx in fired:
        node_pos = index_to_pos[idx]
        ancestor = parent_of[node_pos]
        while ancestor is not None:
            anc_index = nodes[ancestor].index
            if anc_index in position:
                assert position[idx] < position[anc_index]
            ancestor = parent_of[ancestor]


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_recycled_rows_never_serve_stale_refs(batch_sizes):
    """INVARIANT: sweep() recycles table rows, but the magic field keeps
    every pre-sweep CRR dead forever — a stale ref never resolves to the
    new occupant of its row, even as rows are reused round after round."""
    table = CredentialRecordTable()
    dead_refs = []
    reused = False
    for n in batch_sizes:
        live = [table.create_source(state=T, direct_use=True) for _ in range(n)]
        dead_indices = {unpack_ref(d)[0] for d in dead_refs}
        reused = reused or any(r.index in dead_indices for r in live)
        # the new occupants answer for themselves...
        for record in live:
            assert table.get(record.ref) is record
            assert table.state_of(record.ref) is T
        # ...while every stale ref stays dead
        for ref in dead_refs:
            assert table.get(ref) is None
            assert table.state_of(ref) is F
        table.revoke_many([r.ref for r in live])
        table.sweep()
        dead_refs.extend(r.ref for r in live)
    assert reused  # the free list actually recycled rows under us
    for ref in dead_refs:
        assert table.get(ref) is None
        assert table.state_of(ref) is F
