"""Constraint expressions compiled to closures (section 3.2.4, fig 3.3).

A constraint is evaluated at role entry in an *environment* binding the
statement's variables.  Starred subexpressions become membership rules:
group tests and watchable server functions inside them yield *dependency
specifications* which the service later converts into credential-record
parents (section 4.7), so that a later change (e.g. ``dm`` removed from
group ``staff``) revokes the membership.

The ``=`` operator is binding-or-equality: with an unbound variable on the
left it binds (``r = unixacl("...", u)``); otherwise it tests equality.

A rolefile does not change between reloads (section 3.2), so each
constraint is compiled once into nested closures, each called as
``fn(env, deps)``: ``env`` is the statement's variable bindings (``=``
may add to it) and ``deps`` the list that membership rules are appended
to.  What the AST fixes is decided at compile time: the node kinds, the
star context of every subexpression and the polarity an enclosing
``not`` gives a group rule.  Everything else is looked up as the closure
runs: variable bindings, the functions (an unknown one raises only when
evaluation reaches it) and group membership.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.rdl.ast import (
    BoolFunc,
    Comparison,
    Constraint,
    FuncCall,
    GroupTest,
    Literal,
    LogicOp,
    NotOp,
    Term,
    Variable,
)
from repro.core.types import ObjectRef
from repro.errors import RDLError


class UnboundVariable(RDLError):
    """A term referenced a variable with no binding; the enclosing
    statement simply does not apply."""


@dataclass(frozen=True)
class GroupDep:
    """Membership rule: ``principal`` must remain (not) a member of
    ``group``.  ``negate`` True encodes a ``not (x in g)*`` condition."""

    principal: Any
    group: str
    negate: bool = False


@dataclass(frozen=True)
class FuncDep:
    """Membership rule from a watchable server function (section 3.3.1).
    ``token`` is an opaque handle the service resolves to a credential
    record."""

    function: str
    token: Any
    negate: bool = False


# group_lookup(principal, group) -> bool
GroupLookup = Callable[[Any, str], bool]

# a compiled term or constraint: fn(env, deps)
Compiled = Callable[[dict, list], Any]


@dataclass
class ConstraintContext:
    """Everything needed to evaluate a constraint.

    ``functions`` maps names to plain callables; ``watchable`` maps names
    to callables returning ``(value, token)`` where the token identifies a
    credential the service can watch (attribute-based access control).
    ``object_parser(type_name, text)`` parses a string literal as an
    object type, so ``u == "jmb"`` works when ``u`` is a userid.

    Compiled closures read the lookups from the context they were
    compiled against; ``env`` and ``deps`` are a caller's own
    environment and dependency list, for callers that keep them here."""

    env: dict[str, Any] = field(default_factory=dict)
    group_lookup: Optional[GroupLookup] = None
    functions: dict[str, Callable[..., Any]] = field(default_factory=dict)
    watchable: dict[str, Callable[..., tuple[Any, Any]]] = field(default_factory=dict)
    object_parser: Optional[Callable[[str, str], Any]] = None
    deps: list[Any] = field(default_factory=list)

    def lookup_group(self, principal: Any, group: str) -> bool:
        if self.group_lookup is None:
            raise RDLError(f"no group service available for 'in {group}' test")
        return self.group_lookup(principal, group)

    def values_equal(self, a: Any, b: Any) -> bool:
        """Equality with string->object coercion: comparing an ObjectRef
        against a source string parses the string as that object type."""
        if isinstance(a, ObjectRef) and isinstance(b, str):
            b = self._parse(a.type_name, b)
        elif isinstance(b, ObjectRef) and isinstance(a, str):
            a = self._parse(b.type_name, a)
        return a == b

    def _parse(self, type_name: str, text: str) -> Any:
        if self.object_parser is not None:
            try:
                return self.object_parser(type_name, text)
            except Exception:
                pass
        return ObjectRef(type_name, text.encode("utf-8"))


def compile_term(term: Term, ctx: ConstraintContext, starred: bool = False) -> Compiled:
    """Compile a term to ``fn(env, deps) -> value``.  In a starred
    context a watchable function records a :class:`FuncDep`."""
    if isinstance(term, Literal):
        value = term.value
        return lambda env, deps: value
    if isinstance(term, Variable):
        name = term.name

        def variable(env: dict, deps: list) -> Any:
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return variable
    if isinstance(term, FuncCall):
        return _compile_call(term, ctx, starred)
    raise RDLError(f"cannot evaluate term {term!r}")


def _compile_call(term: FuncCall, ctx: ConstraintContext, starred: bool) -> Compiled:
    name = term.name
    arg_fns = tuple(compile_term(a, ctx, starred) for a in term.args)
    functions, watchable = ctx.functions, ctx.watchable

    def call(env: dict, deps: list) -> Any:
        args = [fn(env, deps) for fn in arg_fns]
        if starred and name in watchable:
            value, token = watchable[name](*args)
            deps.append(FuncDep(name, token))
            return value
        fn = functions.get(name) or watchable.get(name)
        if fn is None:
            raise RDLError(f"unknown function {name!r} in constraint")
        result = fn(*args)
        # watchable functions always return (value, token); discard token
        if name in watchable and isinstance(result, tuple) and len(result) == 2:
            return result[0]
        return result
    return call


def compile_constraint(
    constraint: Constraint,
    ctx: ConstraintContext,
    star_context: bool = False,
    negated: bool = False,
) -> Compiled:
    """Compile a constraint to ``fn(env, deps) -> bool``, recording
    membership-rule dependencies into ``deps`` as it runs.

    ``star_context`` is True inside a starred subexpression; ``negated``
    tracks enclosing ``not`` so recorded group dependencies carry the
    right polarity.  Both are fixed here, once per subexpression.
    """
    if isinstance(constraint, Comparison):
        return _compile_comparison(constraint, ctx, star_context)
    if isinstance(constraint, GroupTest):
        live = star_context or constraint.starred
        principal_of = compile_term(constraint.term, ctx, starred=live)
        group = constraint.group
        lookup = ctx.lookup_group
        if not live:
            return lambda env, deps: lookup(principal_of(env, deps), group)

        def group_rule(env: dict, deps: list) -> bool:
            principal = principal_of(env, deps)
            member = lookup(principal, group)
            deps.append(GroupDep(principal, group, negate=negated))
            return member
        return group_rule
    if isinstance(constraint, BoolFunc):
        call = compile_term(
            constraint.call, ctx, starred=star_context or constraint.starred
        )
        return lambda env, deps: bool(call(env, deps))
    if isinstance(constraint, NotOp):
        inner = compile_constraint(
            constraint.operand,
            ctx,
            star_context=star_context or constraint.starred,
            negated=not negated,
        )
        return lambda env, deps: not inner(env, deps)
    if isinstance(constraint, LogicOp):
        live = star_context or constraint.starred
        operands = tuple(
            compile_constraint(operand, ctx, star_context=live, negated=negated)
            for operand in constraint.operands
        )
        if constraint.op == "and":
            def conjunction(env: dict, deps: list) -> bool:
                for operand in operands:
                    if not operand(env, deps):
                        return False
                return True
            return conjunction

        # 'or': short-circuit; only the succeeding branch's dependencies are
        # frozen into the membership rule ("substituting in the value of all
        # the other subexpressions at the time of role entry").  A failed
        # branch's bindings stay.
        def disjunction(env: dict, deps: list) -> bool:
            for operand in operands:
                mark = len(deps)
                try:
                    if operand(env, deps):
                        return True
                except UnboundVariable:
                    pass
                del deps[mark:]
            return False
        return disjunction
    raise RDLError(f"cannot evaluate constraint {constraint!r}")


_ORDERINGS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_comparison(
    comparison: Comparison, ctx: ConstraintContext, star_context: bool
) -> Compiled:
    live = star_context or comparison.starred
    op = comparison.op
    right = compile_term(comparison.right, ctx, starred=live)
    equal = ctx.values_equal
    if op == "=":
        if isinstance(comparison.left, Variable):
            name = comparison.left.name

            def bind_or_test(env: dict, deps: list) -> bool:
                value = right(env, deps)
                if name not in env:
                    env[name] = value
                    return True
                return equal(env[name], value)
            return bind_or_test
        left = compile_term(comparison.left, ctx, starred=live)

        def test(env: dict, deps: list) -> bool:
            value = right(env, deps)
            return equal(left(env, deps), value)
        return test
    left = compile_term(comparison.left, ctx, starred=live)
    if op == "==":
        return lambda env, deps: equal(left(env, deps), right(env, deps))
    if op == "!=":
        return lambda env, deps: not equal(left(env, deps), right(env, deps))
    ordered = _ORDERINGS[op]

    def ordering(env: dict, deps: list) -> bool:
        a = left(env, deps)
        b = right(env, deps)
        # sets compare by inclusion; mixed-type ordering is a policy error
        if isinstance(a, frozenset) != isinstance(b, frozenset):
            raise RDLError(f"cannot order {a!r} against {b!r}")
        return ordered(a, b)
    return ordering
