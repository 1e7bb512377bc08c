"""The role-entry engine: applying RDL statements to a request.

Implements the precedence algorithm of section 3.2.2 / fig 3.2:

    For each request, a list of role memberships is created, initially
    containing the roles the requesting client already holds.  Each
    statement in the rolefile is applied in turn, and if a membership
    results, it is appended to the tail of the list.  When applying each
    statement, any of the memberships in the list may be used as a
    credential, and the first suitable one found will be used.
    Ultimately, all but the requested membership is discarded.

Intermediate roles are therefore entered automatically — "without the
need to modify each client application" — and only the final membership
is certified.

The engine also computes the *dependency set* of the resulting membership:
one entry per membership rule (starred condition), per section 4.7.  The
service converts these into credential-record parents.

Statements do not change between rolefile reloads (section 3.2), so the
engine compiles each one, once, into a single closure: its head
prebinding, a matcher per condition over literals already coerced to
the condition's signature, its constraint as nested closures
(:func:`~repro.core.rdl.constraints.compile_constraint`) and a builder
per head argument with its coercion.  A per-role *entry plan* lists the
closures of the statements that can contribute to the role, and
:meth:`RoleEntryEngine.evaluate` runs them in rolefile order.  A
rolefile reload builds a new engine, so nothing compiled outlives the
policy it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.cache import CacheCounters
from repro.core.certificates import DelegationCertificate, RoleMembershipCertificate
from repro.core.rdl.ast import (
    EntryStatement,
    FuncCall,
    Literal,
    RoleRef,
    Rolefile,
    Term,
    Variable,
    walk_terms,
)
from repro.core.rdl.constraints import (
    ConstraintContext,
    UnboundVariable,
    compile_constraint,
    compile_term,
)
from repro.core.rdl.typecheck import coerce_literal
from repro.core.types import RdlType
from repro.errors import EntryDenied, RDLError


# ------------------------------------------------------------- dependencies


@dataclass(frozen=True)
class CertDep:
    """Validity of a certificate (or intermediate membership) must persist.
    ``service`` identifies the issuer; ``crr`` the backing record."""

    service: str
    crr: int


@dataclass(frozen=True)
class DelegationDep:
    """The delegation must not be revoked (the ``<|*`` star)."""

    crr: int


@dataclass(frozen=True)
class RevokerDep:
    """Role-based revocation (``|>``): the service must create a
    revocation record for this role instance and index it by the revoker
    role (fig 4.9)."""

    role: str
    args: tuple
    revoker_role: str


Dep = Any  # CertDep | DelegationDep | RevokerDep | GroupDep | FuncDep


@dataclass
class Membership:
    """A role membership held during evaluation.

    The initial entries wrap supplied (already validated) certificates;
    entries appended by statement application are intermediate or final
    memberships of the local service."""

    service: str
    roles: frozenset[str]
    args: tuple
    deps: tuple = ()
    cert: Optional[RoleMembershipCertificate] = None

    @classmethod
    def from_certificate(cls, cert: RoleMembershipCertificate) -> "Membership":
        return cls(
            service=cert.issuer,
            roles=cert.roles,
            args=cert.args,
            deps=(CertDep(cert.issuer, cert.crr),),
            cert=cert,
        )

    def __str__(self) -> str:
        roles = "+".join(sorted(self.roles))
        return f"{self.service}.{roles}{self.args!r}"


@dataclass
class EntryResult:
    """Outcome of evaluating a role-entry request."""

    membership: Membership
    statement: EntryStatement
    all_memberships: list[Membership]
    applied: list[EntryStatement]


# signature lookup: (service or None for local, role) -> arg types or None
SignatureLookup = Callable[[Optional[str], str], Optional[list[RdlType]]]

# a compiled statement: apply(memberships, wanted, delegation) -> the
# membership it grants, or None when it does not apply.  ``wanted`` is
# the request's (already coerced) arguments when the statement's head is
# the requested role, else None.
Apply = Callable[
    [list[Membership], Optional[tuple], Optional[DelegationCertificate]],
    Optional[Membership],
]


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
    only if evaluation actually reaches the position (the lazy failure
    point of interpreting the statement)."""

    exc: Exception


@dataclass
class _CompiledStatement:
    """One rolefile statement and the closure that applies it."""

    stmt: EntryStatement
    apply: Apply


@dataclass
class EntryPlan:
    """The compiled hot path for one requested role: the statements that
    can contribute to it (directly or through an intermediate
    membership), in rolefile order, each as ``(apply, statement,
    prebinds)`` where ``prebinds`` says whether the request's arguments
    prebind its head; plus the request's own argument signature.
    ``_plan_for`` compiles a plan on a cache miss."""

    role: str
    steps: tuple
    request_sig: Optional[list[RdlType]]
    skipped: int   # rolefile statements the plan leaves out


@dataclass
class EngineStats:
    """Counters for the compiled-plan cache (one engine per rolefile;
    the cache dies with the engine on rolefile reload)."""

    plans_compiled: int = 0
    plan_hits: int = 0
    evaluations: int = 0
    statements_considered: int = 0
    statements_skipped: int = 0

    def cache_counters(self, size: int = 0) -> CacheCounters:
        """The plan cache in the uniform :class:`CacheCounters` shape.
        Every compile is a miss; the cache is population-bounded by the
        rolefile's role count, so ``maxsize`` is None and evictions only
        happen via :meth:`RoleEntryEngine.invalidate_plans`."""
        return CacheCounters(
            hits=self.plan_hits,
            misses=self.plans_compiled,
            evictions=0,
            size=size,
            maxsize=None,
        )


class RoleEntryEngine:
    """Evaluates role-entry requests against one rolefile."""

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
        # the lookups compiled constraints and head terms call through
        self._context = ConstraintContext(
            group_lookup=group_lookup,
            functions=self.functions,
            watchable=self.watchable,
            object_parser=object_parser,
        )
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
        stats = self.stats
        stats.evaluations += 1
        if delegation is None:
            plan = self._plans.get(requested_role)
            if plan is None:
                plan = self._plan_for(requested_role)
            else:
                stats.plan_hits += 1
            steps = plan.steps
            request_sig = plan.request_sig
            stats.statements_skipped += plan.skipped
        else:
            steps = [
                (c.apply, c.stmt, c.stmt.head.name == requested_role)
                for c in self._compile_all()
            ]
            request_sig = self._sig(None, requested_role)
        stats.statements_considered += len(steps)
        if requested_args is not None:
            requested_args = self._coerce_request(request_sig, requested_args)
        memberships: list[Membership] = list(credentials or [])
        applied: list[EntryStatement] = []
        for apply, stmt, prebinds in steps:
            produced = apply(memberships, requested_args if prebinds else None, delegation)
            if produced is not None:
                memberships.append(produced)
                applied.append(stmt)
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
                _CompiledStatement(stmt, self._compile_statement(stmt))
                for stmt in self.rolefile.statements
            ]
        return self._compiled_all

    def _plan_for(self, role: str) -> EntryPlan:
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
        steps = tuple(
            (c.apply, c.stmt, c.stmt.head.name == role)
            for c in compiled_all if c.stmt.head.name in relevant
        )
        plan = EntryPlan(
            role=role,
            steps=steps,
            request_sig=self._sig(None, role),
            skipped=len(compiled_all) - len(steps),
        )
        self._plans[role] = plan
        self.stats.plans_compiled += 1
        return plan

    def _coerce_request(
        self, sig: Optional[list[RdlType]], args: tuple
    ) -> tuple:
        """Coerce request argument literals to the role's signature types
        (e.g. a userid string becomes the service's ObjectRef).  This is
        the only coercion the request's arguments get: they prebind
        statement heads as they are."""
        if sig is None:
            return args
        coerced = []
        for i, value in enumerate(args):
            if value is not None and i < len(sig):
                value = coerce_literal(value, sig[i])
            coerced.append(value)
        return tuple(coerced)

    # -- statement compilation ---------------------------------------------------

    def _compile_statement(self, stmt: EntryStatement) -> Apply:
        head = stmt.head
        head_sig = self._sig(None, head.name)
        head_literals = _precoerce(head.args, head_sig)
        prebind = _compile_prebind(head.args, head_sig, head_literals, coerce=False)
        election = None
        if stmt.is_election:
            election = self._compile_election(
                stmt, _compile_prebind(head.args, head_sig, head_literals, coerce=True)
            )
        solve = self._compile_conditions(stmt)
        build_args = self._compile_head_args(
            head.args, head_sig, head_literals, _lone_head_variables(stmt)
        )
        service, name = self.service_name, head.name
        roles = frozenset([name])
        revoker = None if stmt.revoker is None else stmt.revoker.name

        def apply(
            memberships: list[Membership],
            wanted: Optional[tuple],
            delegation: Optional[DelegationCertificate],
        ) -> Optional[Membership]:
            env: dict[str, Any] = {}
            deps: list[Dep] = []
            # Pre-bind head variables from the request so statements such
            # as ``Login(0, u) <-`` (no conditions) can be satisfied, and
            # so an explicit parameter request selects the right rule.
            if wanted is not None and not prebind(wanted, env):
                return None
            # Election-form statements only apply when a matching
            # delegation certificate is supplied (section 3.2.2).
            if election is not None:
                if delegation is None or not election(delegation, memberships, env, deps):
                    return None
            solution = solve(memberships, env, ())
            if solution is None:
                return None
            env, condition_deps = solution
            args = build_args(env)
            if args is None:
                return None
            deps += condition_deps
            if revoker is not None:
                deps.append(RevokerDep(name, args, revoker))
            return Membership(service, roles, args, tuple(deps))

        return apply

    def _compile_election(
        self, stmt: EntryStatement, prebind_fixed: Callable[[tuple, dict], bool]
    ) -> Callable[[DelegationCertificate, list[Membership], dict, list], bool]:
        """The delegation check of an election-form statement; binds the
        delegator's fixed head arguments (``prebind_fixed``) and the
        elector reference's variables into the statement's environment."""
        elector = stmt.elector
        assert elector is not None
        unify = None
        if elector.args:
            elector_sig = self._sig(elector.service, elector.name)
            unify = _unify_ops(
                elector.args, _precoerce(elector.args, elector_sig, never_on_error=True)
            )
        arity = len(elector.args)
        role, elector_role = stmt.head.name, elector.name
        delegation_starred, elector_starred = stmt.delegation_starred, elector.starred
        service = self.service_name

        def election(
            delegation: DelegationCertificate,
            memberships: list[Membership],
            env: dict,
            deps: list,
        ) -> bool:
            if delegation.role != role:
                return False
            if delegation.elector_role != elector_role:
                return False
            # the delegator may fix head arguments in the certificate
            if delegation.role_args and not prebind_fixed(delegation.role_args, env):
                return False
            # unify the elector reference's arguments with the delegator's;
            # an argument-less elector reference matches any instance
            if arity:
                if unify is None or len(delegation.elector_args) != arity:
                    return False
                if not _unify_into(unify, delegation.elector_args, env):
                    return False
            # the delegator's extra "required roles" must be held by the candidate
            for template in delegation.required_roles:
                if not any(
                    template.matches(m.service, m.roles, m.args) for m in memberships
                ):
                    return False
            if delegation_starred:
                deps.append(DelegationDep(delegation.delegation_crr))
            if elector_starred:
                deps.append(CertDep(service, delegation.elector_crr))
            return True

        return election

    def _compile_conditions(
        self, stmt: EntryStatement
    ) -> Callable[[list[Membership], dict, tuple], Optional[tuple[dict, tuple]]]:
        """Depth-first search over condition matches, compiled as one
        closure per condition chained to the constraint check: each
        condition tries memberships in list order ("the first suitable
        one found will be used") and backtracks when a later condition
        or the constraint cannot be satisfied — required for quorum
        policies such as the golf club's two-distinct-recommenders rule
        (sec 3.4.5, e1 != e2).  Each closure binds into its own copy of
        the environment, so a failed choice leaves no binding behind.
        Called as ``search(memberships, env, ())``; returns the final
        bindings and the dependencies of the starred conditions and the
        constraint, or None."""
        search = self._compile_check(stmt)
        for ref in reversed(stmt.conditions):
            search = self._compile_condition(ref, search)
        return search

    def _compile_check(self, stmt: EntryStatement) -> Callable:
        """The last search step: the constraint, over a copy of the
        bindings (``=`` may add to them)."""
        if stmt.constraint is None:
            return lambda memberships, env, deps: (env, deps)
        constraint = compile_constraint(stmt.constraint, self._context)

        def check(memberships: list[Membership], env: dict, deps: tuple):
            env = dict(env)
            found: list[Dep] = []
            try:
                if not constraint(env, found):
                    return None
            except UnboundVariable:
                return None
            return env, (*deps, *found)

        return check

    def _compile_condition(self, ref: RoleRef, after: Callable) -> Callable:
        service = ref.service or self.service_name
        name = ref.name
        arity = len(ref.args)
        starred = ref.starred
        ops = _unify_ops(
            ref.args,
            _precoerce(ref.args, self._sig(ref.service, ref.name), never_on_error=True),
        )
        if ops is None:
            # a literal that can never coerce, or a function call: no
            # membership can match this condition
            return lambda memberships, env, deps: None

        def condition(memberships: list[Membership], env: dict, deps: tuple):
            for membership in memberships:
                if membership.service != service:
                    continue
                if name not in membership.roles:
                    continue
                if len(membership.args) != arity:
                    continue
                trial = dict(env)
                if not _unify_into(ops, membership.args, trial):
                    continue
                result = after(
                    memberships, trial, (*deps, *membership.deps) if starred else deps
                )
                if result is not None:
                    return result
            return None

        return condition

    def _compile_head_args(
        self,
        terms: tuple[Term, ...],
        sig: Optional[list[RdlType]],
        literals: tuple,
        lone: set[str],
    ) -> Callable[[dict], Optional[tuple]]:
        """Head arguments from the final bindings, each coerced to the
        head's signature unless it is a ``lone`` variable (already
        coerced when bound); None when a variable is still unbound (the
        statement does not apply)."""
        builders = []
        for i, term in enumerate(terms):
            typed = sig is not None and i < len(sig) and not (
                isinstance(term, Variable) and term.name in lone
            )
            builders.append(_head_arg(
                term, literals[i], sig[i] if typed else None, typed, self._context
            ))

        def build_args(env: dict) -> Optional[tuple]:
            try:
                return tuple([build(env) for build in builders])
            except UnboundVariable:
                return None

        return build_args


def _lone_head_variables(stmt: EntryStatement) -> set[str]:
    """The head variables that occur nowhere else in ``stmt``.  Only the
    request or a delegation's fixed arguments can bind one, and both
    arrive coerced to the head's signature, so building the head need
    not coerce it again."""
    counts: dict[str, int] = {}

    def visit(term: Term) -> None:
        if isinstance(term, Variable):
            counts[term.name] = counts.get(term.name, 0) + 1
        elif isinstance(term, FuncCall):
            for arg in term.args:
                visit(arg)

    for ref in (stmt.head, *stmt.conditions, stmt.elector, stmt.revoker):
        if ref is not None:
            for term in ref.args:
                visit(term)
    if stmt.constraint is not None:
        for term in walk_terms(stmt.constraint):
            visit(term)
    return {
        term.name for term in stmt.head.args
        if isinstance(term, Variable) and counts[term.name] == 1
    }


def _head_arg(
    term: Term, literal: Any, rdl_type: Any, typed: bool, context: ConstraintContext
) -> Callable[[dict], Any]:
    """One head argument's builder: ``build(env) -> value``, raising
    :class:`UnboundVariable` when it needs an unbound variable."""
    if literal is not _NOT_LITERAL:
        if isinstance(literal, _DeferredCoercion):
            exc = literal.exc

            def deferred(env: dict) -> Any:
                raise exc
            return deferred
        return lambda env: literal
    if isinstance(term, Variable):
        name = term.name

        def variable(env: dict) -> Any:
            try:
                value = env[name]
            except KeyError:
                raise UnboundVariable(name) from None
            return coerce_literal(value, rdl_type) if typed else value
        return variable
    # head terms are evaluated outside any starred context, so they
    # record no dependencies
    value_of = compile_term(term, context)
    if not typed:
        return lambda env: value_of(env, [])
    return lambda env: coerce_literal(value_of(env, []), rdl_type)


def _compile_prebind(
    terms: tuple[Term, ...],
    sig: Optional[list[RdlType]],
    literals: tuple,
    coerce: bool,
) -> Callable[[tuple, dict], bool]:
    """Bind head variables from wanted argument values (None entries are
    wild cards) and check head literals against them.  Request arguments
    arrive coerced; a delegation's fixed arguments are coerced here
    (``coerce``)."""
    arity = len(terms)
    positions = []
    for i, (term, literal) in enumerate(zip(terms, literals)):
        typed = coerce and sig is not None and i < len(sig)
        name = term.name if isinstance(term, Variable) else None
        if typed or name is not None or literal is not _NOT_LITERAL:
            positions.append((i, typed, sig[i] if typed else None, name, literal))

    def prebind(wanted: tuple, env: dict) -> bool:
        if len(wanted) != arity:
            return False
        for i, typed, rdl_type, name, literal in positions:
            value = wanted[i]
            if value is None:
                continue
            if typed:
                value = coerce_literal(value, rdl_type)
            if name is not None:
                if name in env and env[name] != value:
                    return False
                env[name] = value
            elif literal is not _NOT_LITERAL:
                if isinstance(literal, _DeferredCoercion):
                    raise literal.exc
                if literal != value:
                    return False
        return True

    return prebind


def _precoerce(
    terms: tuple[Term, ...],
    sig: Optional[list[RdlType]],
    never_on_error: bool = False,
) -> tuple:
    """Coerce the literal terms of an argument list against a fixed
    signature once, at compile time.

    Returns one entry per position: the coerced value for a literal,
    ``_NOT_LITERAL`` otherwise.  A failing coercion becomes ``_NEVER``
    (the position can never match) when ``never_on_error`` is set, or a
    :class:`_DeferredCoercion` that re-raises at the point evaluation
    reaches it."""
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


def _unify_ops(terms: tuple[Term, ...], precoerced: tuple) -> Optional[tuple]:
    """Compile argument patterns to ``(index, is_variable, literal or
    name)`` steps for :func:`_unify_into`; None when no value list can
    match (a literal that never coerces, or a function call, which is
    not a pattern)."""
    ops = []
    for i, (term, pre) in enumerate(zip(terms, precoerced)):
        if pre is not _NOT_LITERAL:
            if pre is _NEVER:
                return None
            ops.append((i, False, pre))
        elif isinstance(term, Variable):
            ops.append((i, True, term.name))
        elif isinstance(term, FuncCall):
            return None
    return tuple(ops)


def _unify_into(ops: tuple, values: tuple, env: dict) -> bool:
    """Match ``values`` against compiled patterns, binding unbound
    variables into ``env``."""
    for i, is_variable, x in ops:
        value = values[i]
        if is_variable:
            if x in env:
                if env[x] != value:
                    return False
            else:
                env[x] = value
        elif x != value:
            return False
    return True


def _args_match(requested: tuple, actual: tuple) -> bool:
    """Requested arguments match, with None as a wild card."""
    if len(requested) != len(actual):
        return False
    return all(want is None or want == got for want, got in zip(requested, actual))


def _statement_of(
    applied: list[EntryStatement], membership: Membership, rolefile: Rolefile
) -> EntryStatement:
    for stmt in applied:
        if stmt.head.name in membership.roles:
            return stmt
    # the request was satisfied by an already-held membership
    for stmt in rolefile.statements:
        if stmt.head.name in membership.roles:
            return stmt
    raise EntryDenied("membership does not correspond to any statement")
