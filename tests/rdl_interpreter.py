"""The interpreting role-entry engine, kept as the tests' reference.

This is the engine as it was before entry plans compiled to closures:
per request it walks each candidate statement's AST
(``_try_apply`` -> ``_prebind_head``, ``_solve_conditions``,
``_term_value``) and interprets constraints node by node
(``eval_constraint``, ``eval_term``).  Its plan compilation only
pre-resolves signatures and pre-coerces literals.  The code is the
original, moved here unchanged; only the class is renamed and the
shared types (memberships, dependencies, stats, the constraint context)
are imported from :mod:`repro.core.engine` and
:mod:`repro.core.rdl.constraints`.

``tests/core/test_engine_differential.py`` checks that
:class:`~repro.core.engine.RoleEntryEngine` grants, records and raises
exactly what :class:`InterpretedEngine` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.cache import CacheCounters
from repro.core.certificates import DelegationCertificate
from repro.core.engine import (
    CertDep,
    DelegationDep,
    Dep,
    EngineStats,
    EntryResult,
    Membership,
    RevokerDep,
    SignatureLookup,
    _args_match,
    _statement_of,
)
from repro.core.rdl.ast import (
    BoolFunc,
    Comparison,
    Constraint,
    EntryStatement,
    FuncCall,
    GroupTest,
    Literal,
    LogicOp,
    NotOp,
    Rolefile,
    Term,
    Variable,
)
from repro.core.rdl.constraints import (
    ConstraintContext,
    FuncDep,
    GroupDep,
    UnboundVariable,
)
from repro.core.rdl.typecheck import coerce_literal
from repro.core.types import RdlType
from repro.errors import EntryDenied, RDLError

__all__ = ["InterpretedEngine", "eval_constraint", "eval_term"]


# ------------------------------------------------------------ compiled plans

class _NotLiteral:
    """Sentinel: this argument position holds a variable or function call."""


class _Never:
    """Sentinel: this literal can never coerce to the signature type, so
    the condition can never match."""


_NOT_LITERAL = _NotLiteral()
_NEVER = _Never()


@dataclass
class _DeferredCoercion:
    """A literal whose compile-time coercion raised; the error is replayed
    only if evaluation actually reaches the position (matching the lazy
    failure point of the uncompiled engine)."""

    exc: Exception


@dataclass
class _CompiledStatement:
    """One rolefile statement with every per-request-invariant lookup done
    once: the head signature, per-condition signatures, and pre-coerced
    literal arguments (``coerce_literal`` of a source literal against a
    fixed signature always yields the same value)."""

    stmt: EntryStatement
    head_sig: Optional[list[RdlType]]
    # per head-arg position: coerced literal value, _NOT_LITERAL, _NEVER
    # or a _DeferredCoercion
    head_literals: tuple
    # per condition: its signature and the same literal pre-coercion
    cond_sigs: tuple
    cond_literals: tuple
    elector_sig: Optional[list[RdlType]] = None


@dataclass
class EntryPlan:
    """The compiled hot path for one requested role: the subset of
    statements that can contribute to it (directly or through an
    intermediate membership), in rolefile order, plus the request's own
    argument signature."""

    role: str
    candidates: list[_CompiledStatement]
    request_sig: Optional[list[RdlType]]


class InterpretedEngine:
    """Evaluates role-entry requests against one rolefile by interpreting
    its statements (the reference for the compiled engine)."""

    def __init__(
        self,
        rolefile: Rolefile,
        service_name: str,
        signatures: SignatureLookup,
        group_lookup: Optional[Callable[[Any, str], bool]] = None,
        functions: Optional[dict[str, Callable[..., Any]]] = None,
        watchable: Optional[dict[str, Callable[..., tuple[Any, Any]]]] = None,
        object_parser: Optional[Callable[[str, str], Any]] = None,
    ):
        self.rolefile = rolefile
        self.service_name = service_name
        self.signatures = signatures
        self.group_lookup = group_lookup
        self.functions = functions or {}
        self.watchable = watchable or {}
        self.object_parser = object_parser
        self.stats = EngineStats()
        # compiled-plan caches; see invalidate_plans()
        self._sig_cache: dict[tuple[Optional[str], str], Optional[list[RdlType]]] = {}
        self._compiled_all: Optional[list[_CompiledStatement]] = None
        self._plans: dict[str, EntryPlan] = {}

    # -- public -----------------------------------------------------------------

    def evaluate(
        self,
        requested_role: str,
        requested_args: Optional[tuple] = None,
        credentials: Optional[list[Membership]] = None,
        delegation: Optional[DelegationCertificate] = None,
    ) -> EntryResult:
        """Apply every candidate statement in rolefile order and return
        the first membership matching the request, or raise
        :class:`EntryDenied`.

        Standard-form requests run against the compiled per-role plan:
        only statements that can contribute to the requested role are
        applied.  Election-form requests (a delegation certificate is
        supplied) run against the full statement list, because the
        delegation's ``required_roles`` may reference any local role.
        """
        self.stats.evaluations += 1
        compiled_all = self._compile_all()
        if delegation is None:
            plan = self._plan_for(requested_role)
            candidates = plan.candidates
            request_sig = plan.request_sig
        else:
            candidates = compiled_all
            request_sig = self._sig(None, requested_role)
        self.stats.statements_considered += len(candidates)
        self.stats.statements_skipped += len(compiled_all) - len(candidates)
        if requested_args is not None:
            requested_args = self._coerce_request(request_sig, requested_args)
        memberships: list[Membership] = list(credentials or [])
        applied: list[EntryStatement] = []
        for compiled in candidates:
            produced = self._try_apply(
                compiled, memberships, requested_role, requested_args, delegation
            )
            if produced is not None:
                memberships.append(produced)
                applied.append(compiled.stmt)
        for membership in memberships:
            if membership.service != self.service_name:
                continue
            if requested_role not in membership.roles:
                continue
            if requested_args is not None and not _args_match(requested_args, membership.args):
                continue
            return EntryResult(membership, _statement_of(applied, membership, self.rolefile),
                               memberships, applied)
        raise EntryDenied(
            f"no statement grants {requested_role!r} "
            f"{'' if requested_args is None else requested_args} "
            f"to the supplied credentials"
        )

    # -- plan compilation ---------------------------------------------------------

    def cache_counters(self) -> CacheCounters:
        """Uniform snapshot of this engine's compiled-plan cache."""
        return self.stats.cache_counters(size=len(self._plans))

    def invalidate_plans(self) -> None:
        """Drop every compiled plan and cached signature lookup.  Called
        when anything a plan was compiled against may have changed (the
        service reloading a rolefile builds a fresh engine, which is the
        same thing)."""
        self._sig_cache.clear()
        self._compiled_all = None
        self._plans.clear()

    def _sig(self, service: Optional[str], role: str) -> Optional[list[RdlType]]:
        key = (service, role)
        if key not in self._sig_cache:
            self._sig_cache[key] = self.signatures(service, role)
        return self._sig_cache[key]

    def _compile_all(self) -> list[_CompiledStatement]:
        if self._compiled_all is None:
            self._compiled_all = [
                self._compile_statement(stmt) for stmt in self.rolefile.statements
            ]
        return self._compiled_all

    def _compile_statement(self, stmt: EntryStatement) -> _CompiledStatement:
        head_sig = self._sig(None, stmt.head.name)
        elector_sig = None
        if stmt.elector is not None and stmt.elector.args:
            elector_sig = self._sig(stmt.elector.service, stmt.elector.name)
        return _CompiledStatement(
            stmt=stmt,
            head_sig=head_sig,
            head_literals=_precoerce(stmt.head.args, head_sig),
            cond_sigs=tuple(
                self._sig(ref.service, ref.name) for ref in stmt.conditions
            ),
            cond_literals=tuple(
                _precoerce(ref.args, self._sig(ref.service, ref.name),
                           never_on_error=True)
                for ref in stmt.conditions
            ),
            elector_sig=elector_sig,
        )

    def _plan_for(self, role: str) -> EntryPlan:
        plan = self._plans.get(role)
        if plan is not None:
            self.stats.plan_hits += 1
            return plan
        compiled_all = self._compile_all()
        # fixpoint over the local role-dependency graph: a statement is a
        # candidate if its head is the requested role or a (transitive)
        # local condition of a candidate statement
        relevant = {role}
        changed = True
        while changed:
            changed = False
            for compiled in compiled_all:
                if compiled.stmt.head.name not in relevant:
                    continue
                for ref in compiled.stmt.conditions:
                    if ref.service is not None and ref.service != self.service_name:
                        continue  # only supplied credentials can match
                    if ref.name not in relevant:
                        relevant.add(ref.name)
                        changed = True
        plan = EntryPlan(
            role=role,
            candidates=[c for c in compiled_all if c.stmt.head.name in relevant],
            request_sig=self._sig(None, role),
        )
        self._plans[role] = plan
        self.stats.plans_compiled += 1
        return plan

    def _coerce_request(
        self, sig: Optional[list[RdlType]], args: tuple
    ) -> tuple:
        """Coerce request argument literals to the role's signature types
        (e.g. a userid string becomes the service's ObjectRef)."""
        if sig is None:
            return args
        coerced = []
        for i, value in enumerate(args):
            if value is not None and i < len(sig):
                value = coerce_literal(value, sig[i])
            coerced.append(value)
        return tuple(coerced)

    # -- statement application ---------------------------------------------------

    def _try_apply(
        self,
        compiled: _CompiledStatement,
        memberships: list[Membership],
        requested_role: str,
        requested_args: Optional[tuple],
        delegation: Optional[DelegationCertificate],
    ) -> Optional[Membership]:
        stmt = compiled.stmt
        env: dict[str, Any] = {}
        deps: list[Dep] = []

        # Pre-bind head variables from the request so statements such as
        # ``Login(0, u) <-`` (no conditions) can be satisfied, and so an
        # explicit parameter request selects the right rule.
        if stmt.head.name == requested_role and requested_args is not None:
            if not self._prebind_head(compiled, requested_args, env):
                return None

        # Election-form statements only apply when a matching delegation
        # certificate is supplied (section 3.2.2, election form).
        if stmt.is_election:
            if delegation is None:
                return None
            if not self._delegation_matches(compiled, delegation, memberships, env, deps):
                return None

        # Match candidate conditions against held memberships.  Matching
        # proceeds in list order ("the first suitable one found will be
        # used") but backtracks when a later condition or the constraint
        # cannot be satisfied — required for quorum policies such as the
        # golf club's two-distinct-recommenders rule (sec 3.4.5, e1 != e2).
        solution = self._solve_conditions(compiled, memberships, env)
        if solution is None:
            return None
        env, condition_deps = solution
        deps.extend(condition_deps)

        # Head arguments must now all be bound
        head_args = []
        head_sig = compiled.head_sig
        for i, term in enumerate(stmt.head.args):
            try:
                value = self._term_value(term, env)
            except UnboundVariable:
                return None
            if head_sig is not None and i < len(head_sig):
                value = coerce_literal(value, head_sig[i])
            head_args.append(value)

        if stmt.revoker is not None:
            deps.append(RevokerDep(stmt.head.name, tuple(head_args), stmt.revoker.name))

        return Membership(
            service=self.service_name,
            roles=frozenset([stmt.head.name]),
            args=tuple(head_args),
            deps=tuple(deps),
        )

    def _prebind_head(
        self, compiled: _CompiledStatement, requested_args: tuple, env: dict
    ) -> bool:
        head = compiled.stmt.head
        if len(requested_args) != len(head.args):
            return False
        sig = compiled.head_sig
        for i, (term, wanted) in enumerate(zip(head.args, requested_args)):
            if wanted is None:
                continue
            if sig is not None and i < len(sig):
                wanted = coerce_literal(wanted, sig[i])
            pre = compiled.head_literals[i]
            if pre is not _NOT_LITERAL:
                if isinstance(pre, _DeferredCoercion):
                    raise pre.exc
                if pre != wanted:
                    return False
            elif isinstance(term, Variable):
                if term.name in env and env[term.name] != wanted:
                    return False
                env[term.name] = wanted
        return True

    def _delegation_matches(
        self,
        compiled: _CompiledStatement,
        delegation: DelegationCertificate,
        memberships: list[Membership],
        env: dict,
        deps: list[Dep],
    ) -> bool:
        stmt = compiled.stmt
        assert stmt.elector is not None
        if delegation.role != stmt.head.name:
            return False
        if delegation.elector_role != stmt.elector.name:
            return False
        # the delegator may fix head arguments in the certificate
        if delegation.role_args:
            if not self._prebind_head(compiled, delegation.role_args, env):
                return False
        # unify the elector reference's arguments with the delegator's;
        # an argument-less elector reference matches any instance
        if stmt.elector.args:
            if not _unify_args(stmt.elector.args, delegation.elector_args, env,
                               compiled.elector_sig):
                return False
        # the delegator's extra "required roles" must be held by the candidate
        for template in delegation.required_roles:
            if not any(
                template.matches(m.service, m.roles, m.args) for m in memberships
            ):
                return False
        if stmt.delegation_starred:
            deps.append(DelegationDep(delegation.delegation_crr))
        if stmt.elector.starred:
            deps.append(CertDep(self.service_name, delegation.elector_crr))
        return True

    def _solve_conditions(
        self,
        compiled: _CompiledStatement,
        memberships: list[Membership],
        env: dict,
    ) -> Optional[tuple[dict, list[Dep]]]:
        """Depth-first search over condition matches: each condition tries
        memberships in list order; on failure of a later condition or the
        constraint, earlier choices are revisited."""
        stmt = compiled.stmt
        conditions = stmt.conditions

        def check_constraint(bound_env: dict) -> Optional[tuple[dict, list[Dep]]]:
            if stmt.constraint is None:
                return bound_env, []
            ctx = ConstraintContext(
                env=bound_env,
                group_lookup=self.group_lookup,
                functions=self.functions,
                watchable=self.watchable,
                object_parser=self.object_parser,
            )
            try:
                if not eval_constraint(stmt.constraint, ctx):
                    return None
            except UnboundVariable:
                return None
            return ctx.env, list(ctx.deps)

        def search(index: int, bound_env: dict, deps: list[Dep]) -> Optional[tuple[dict, list[Dep]]]:
            if index == len(conditions):
                result = check_constraint(dict(bound_env))
                if result is None:
                    return None
                final_env, constraint_deps = result
                return final_env, deps + constraint_deps
            ref = conditions[index]
            target_service = ref.service or self.service_name
            precoerced = compiled.cond_literals[index]
            for membership in memberships:
                if membership.service != target_service:
                    continue
                if ref.name not in membership.roles:
                    continue
                if len(ref.args) != len(membership.args):
                    continue
                trial = dict(bound_env)
                if not _unify_precoerced(ref.args, precoerced, membership.args, trial):
                    continue
                next_deps = deps + (list(_validity_deps(membership)) if ref.starred else [])
                result = search(index + 1, trial, next_deps)
                if result is not None:
                    return result
            return None

        return search(0, dict(env), [])

    def _term_value(self, term: Term, env: dict) -> Any:
        ctx = ConstraintContext(
            env=env,
            functions=self.functions,
            watchable=self.watchable,
            object_parser=self.object_parser,
        )
        return eval_term(term, ctx)


def _precoerce(
    terms: tuple[Term, ...],
    sig: Optional[list[RdlType]],
    never_on_error: bool = False,
) -> tuple:
    """Coerce the literal terms of an argument list against a fixed
    signature once, at plan-compile time.

    Returns one entry per position: the coerced value for a literal,
    ``_NOT_LITERAL`` otherwise.  A failing coercion becomes ``_NEVER``
    (the position can never match) when ``never_on_error`` is set, or a
    :class:`_DeferredCoercion` that re-raises at the same point the
    uncompiled engine would have."""
    out = []
    for i, term in enumerate(terms):
        if not isinstance(term, Literal):
            out.append(_NOT_LITERAL)
            continue
        value = term.value
        if sig is not None and i < len(sig):
            try:
                value = coerce_literal(value, sig[i])
            except RDLError as exc:
                out.append(_NEVER if never_on_error else _DeferredCoercion(exc))
                continue
        out.append(value)
    return tuple(out)


def _unify_precoerced(
    terms: tuple[Term, ...],
    precoerced: tuple,
    values: tuple,
    env: dict,
) -> bool:
    """:func:`_unify_args` with the literal coercions already done."""
    if len(terms) != len(values):
        return False
    for term, pre, value in zip(terms, precoerced, values):
        if pre is not _NOT_LITERAL:
            if pre is _NEVER or isinstance(pre, _DeferredCoercion) or pre != value:
                return False
        elif isinstance(term, Variable):
            if term.name in env:
                if env[term.name] != value:
                    return False
            else:
                env[term.name] = value
        elif isinstance(term, FuncCall):
            return False  # function calls are not patterns
    return True


def _unify_args(
    terms: tuple[Term, ...],
    values: tuple,
    env: dict,
    sig: Optional[list[RdlType]],
) -> bool:
    """Unify reference argument terms against concrete values, updating env."""
    if len(terms) != len(values):
        return False
    for i, (term, value) in enumerate(zip(terms, values)):
        if isinstance(term, Literal):
            literal = term.value
            if sig is not None and i < len(sig):
                try:
                    literal = coerce_literal(literal, sig[i])
                except RDLError:
                    return False
            if literal != value:
                return False
        elif isinstance(term, Variable):
            if term.name in env:
                if env[term.name] != value:
                    return False
            else:
                env[term.name] = value
        elif isinstance(term, FuncCall):
            return False  # function calls are not patterns
    return True


def _validity_deps(membership: Membership) -> tuple:
    """Dependencies asserting a matched membership stays valid.

    For a certificate-backed membership this is its CRR; for an
    intermediate membership it is the union of its own dependencies (no
    certificate is ever issued for an intermediate role)."""
    return membership.deps


# ----------------------------------------------------- constraint evaluation


def eval_term(term: Term, ctx: ConstraintContext, starred: bool = False) -> Any:
    """Evaluate a term to a value; may record FuncDeps for watchables."""
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, Variable):
        if term.name not in ctx.env:
            raise UnboundVariable(term.name)
        return ctx.env[term.name]
    if isinstance(term, FuncCall):
        args = [eval_term(a, ctx, starred) for a in term.args]
        if starred and term.name in ctx.watchable:
            value, token = ctx.watchable[term.name](*args)
            ctx.deps.append(FuncDep(term.name, token))
            return value
        fn = ctx.functions.get(term.name) or ctx.watchable.get(term.name)
        if fn is None:
            raise RDLError(f"unknown function {term.name!r} in constraint")
        result = fn(*args)
        # watchable functions always return (value, token); discard token
        if term.name in ctx.watchable and isinstance(result, tuple) and len(result) == 2:
            return result[0]
        return result
    raise RDLError(f"cannot evaluate term {term!r}")


def eval_constraint(
    constraint: Constraint,
    ctx: ConstraintContext,
    star_context: bool = False,
    negated: bool = False,
) -> bool:
    """Evaluate a constraint, recording membership-rule dependencies.

    ``star_context`` is True inside a starred subexpression; ``negated``
    tracks enclosing ``not`` so recorded group dependencies carry the
    right polarity.
    """
    if isinstance(constraint, Comparison):
        return _eval_comparison(constraint, ctx, star_context)
    if isinstance(constraint, GroupTest):
        live = star_context or constraint.starred
        principal = eval_term(constraint.term, ctx, starred=live)
        member = ctx.lookup_group(principal, constraint.group)
        if live:
            ctx.deps.append(GroupDep(principal, constraint.group, negate=negated))
        return member
    if isinstance(constraint, BoolFunc):
        live = star_context or constraint.starred
        return bool(eval_term(constraint.call, ctx, starred=live))
    if isinstance(constraint, NotOp):
        inner = eval_constraint(
            constraint.operand,
            ctx,
            star_context=star_context or constraint.starred,
            negated=not negated,
        )
        return not inner
    if isinstance(constraint, LogicOp):
        live = star_context or constraint.starred
        if constraint.op == "and":
            result = True
            for operand in constraint.operands:
                if not eval_constraint(operand, ctx, star_context=live, negated=negated):
                    result = False
                    break
            return result
        # 'or': short-circuit; only the succeeding branch's dependencies are
        # frozen into the membership rule ("substituting in the value of all
        # the other subexpressions at the time of role entry")
        for operand in constraint.operands:
            mark = len(ctx.deps)
            try:
                if eval_constraint(operand, ctx, star_context=live, negated=negated):
                    return True
            except UnboundVariable:
                pass
            del ctx.deps[mark:]
        return False
    raise RDLError(f"cannot evaluate constraint {constraint!r}")


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval_comparison(comparison: Comparison, ctx: ConstraintContext, star_context: bool) -> bool:
    live = star_context or comparison.starred
    if comparison.op == "=":
        right = eval_term(comparison.right, ctx, starred=live)
        left = comparison.left
        if isinstance(left, Variable) and left.name not in ctx.env:
            ctx.env[left.name] = right
            return True
        return ctx.values_equal(eval_term(left, ctx, starred=live), right)
    left_value = eval_term(comparison.left, ctx, starred=live)
    right_value = eval_term(comparison.right, ctx, starred=live)
    if comparison.op == "==":
        return ctx.values_equal(left_value, right_value)
    if comparison.op == "!=":
        return not ctx.values_equal(left_value, right_value)
    op = _COMPARATORS[comparison.op]
    if comparison.op in ("<", "<=", ">", ">="):
        # sets compare by inclusion; mixed-type ordering is a policy error
        if isinstance(left_value, frozenset) != isinstance(right_value, frozenset):
            raise RDLError(
                f"cannot order {left_value!r} against {right_value!r}"
            )
    return op(left_value, right_value)
