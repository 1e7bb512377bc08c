"""The compiled role-entry engine against the interpreting reference.

:class:`~repro.core.engine.RoleEntryEngine` runs each rolefile statement
as one compiled closure; :class:`tests.rdl_interpreter.InterpretedEngine`
is the engine that walked the statement AST per request.  A Hypothesis
property builds rolefile ASTs and requests over a small universe of
roles, types and values, evaluates each request on both engines, and
requires the same outcome: the granted membership (service, roles,
arguments, dependencies in order), every membership the evaluation
produced, the statements applied and the plan counters, or the same
error type and message.

The universe is small on purpose, so the cases that matter come up
often: literals whose coercion fails (in heads, conditions and elector
references), variables shared between conditions, starred and unstarred
function calls and watchables, ``=`` binding and testing, orderings over
mixed set/int values, group tests under ``not`` and inside starred
``and``/``or``, ``or`` branches that fail on an unbound variable,
starred conditions, revoker clauses, election-form requests, wildcard
request arguments and backtracking over several matching memberships.
A second property compares constraints alone, so every example reaches
the constraint.  Explicit examples pin the cases a mistake in the
compiled code shows on first: the polarity ``not`` gives a group rule,
the rules of a failed ``or`` branch, the star context operands inherit
and a literal whose coercion fails.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.certificates import DelegationCertificate, RoleTemplate
from repro.core.engine import CertDep, Membership, RoleEntryEngine
from repro.core.rdl.ast import (
    BoolFunc,
    Comparison,
    EntryStatement,
    FuncCall,
    GroupTest,
    Literal,
    LogicOp,
    NotOp,
    RoleRef,
    Rolefile,
    Variable,
)
from repro.core.rdl.constraints import ConstraintContext, compile_constraint
from repro.core.rdl.parser import parse_rolefile
from repro.core.types import INTEGER, STRING, ObjectRef, ObjectType, SetType
from tests.rdl_interpreter import InterpretedEngine, eval_constraint

SERVICE = "S"
FOREIGN = "T"
UID = ObjectType("T.uid")
RW = SetType("rw")

# (service, role) -> signature; "E" has none, so nothing coerces there
SIGNATURES = {
    (None, "A"): [INTEGER],
    (None, "B"): [INTEGER, STRING],
    (None, "C"): [RW],
    (None, "D"): [],
    (None, "E"): None,
    (FOREIGN, "U"): [UID, INTEGER],
}
ARITY = {"A": 1, "B": 2, "C": 1, "D": 0, "E": 1, "U": 2}
LOCAL_ROLES = ("A", "B", "C", "D", "E")

UID_A = ObjectRef("T.uid", b"a")
UID_B = ObjectRef("T.uid", b"b")
# the values each type holds, and source literals that coerce to them
VALUES = {
    INTEGER: (0, 1, 2),
    STRING: ("a", "b"),
    RW: (frozenset("r"), frozenset("rw"), frozenset()),
    UID: (UID_A, UID_B),
    None: (0, 1, "a", frozenset("r"), UID_A),
}
GOOD_LITERALS = {
    INTEGER: (0, 1, 2),
    STRING: ("a", "b"),
    RW: (frozenset("r"), frozenset("rw")),
    UID: ("a", "b"),
    None: (1, "a", frozenset("w")),
}
# literals whose coercion to the type fails
BAD_LITERALS = {
    INTEGER: ("zz",),
    STRING: (7,),
    RW: (frozenset("x"),),
    UID: (3,),
    None: (),
}
POOL = (0, 1, 2, "a", "b", frozenset("r"), frozenset("rw"), frozenset(), UID_A, UID_B)
TOKENS = {value: 100 + index for index, value in enumerate(POOL)}
GROUPS = {"g1": {1, "a", UID_A, frozenset("r")}, "g2": {2, "b", UID_B}}
VARIABLES = ("x", "y", "z")

FUNCTIONS = {"ident": lambda value: value, "truthy": lambda value: bool(value)}
WATCHABLE = {"owner": lambda value: (value, TOKENS.get(value, 99))}


def signatures(service, role):
    if service == SERVICE:
        service = None
    return SIGNATURES.get((service, role))


def group_lookup(principal, group):
    return principal in GROUPS[group]


def object_parser(type_name, text):
    if type_name != "T.uid":
        raise KeyError(type_name)
    return ObjectRef(type_name, text.encode())


def arg_types(service, role):
    sig = signatures(service, role)
    return [None] * ARITY[role] if sig is None else sig


# ------------------------------------------------------------------ strategies

variables = st.sampled_from(VARIABLES).map(Variable)


def pattern(rdl_type):
    """An argument term of a head, condition or elector reference."""
    return st.one_of(
        variables,
        variables,
        variables,
        st.sampled_from(GOOD_LITERALS[rdl_type]).map(Literal),
        st.sampled_from(BAD_LITERALS[rdl_type] or GOOD_LITERALS[rdl_type]).map(Literal),
        st.builds(lambda v: FuncCall("ident", (v,)), variables),
    )


constraint_terms = st.recursive(
    st.one_of(
        variables,
        st.sampled_from(POOL).map(Literal),
        st.sampled_from(POOL + ("zz",)).map(Literal),
    ),
    lambda inner: st.one_of(
        st.builds(lambda t: FuncCall("ident", (t,)), inner),
        st.builds(lambda t: FuncCall("owner", (t,)), inner),
        st.just(FuncCall("nope", ())),
    ),
    max_leaves=2,
)

group_tests = st.builds(
    GroupTest,
    term=constraint_terms,
    group=st.sampled_from(sorted(GROUPS)),
    starred=st.booleans(),
)

constraint_leaves = st.one_of(
    group_tests,
    group_tests,
    st.builds(
        Comparison,
        op=st.sampled_from(["=", "=", "==", "!=", "<", "<=", ">", ">="]),
        left=constraint_terms,
        right=constraint_terms,
        starred=st.booleans(),
    ),
    st.builds(
        BoolFunc,
        call=st.builds(
            lambda name, t: FuncCall(name, (t,)),
            st.sampled_from(["truthy", "owner"]),
            constraint_terms,
        ),
        starred=st.booleans(),
    ),
)

constraints = st.recursive(
    constraint_leaves,
    lambda inner: st.one_of(
        st.builds(NotOp, operand=inner, starred=st.booleans()),
        st.builds(
            LogicOp,
            op=st.sampled_from(["and", "or"]),
            operands=st.lists(inner, min_size=2, max_size=3).map(tuple),
            starred=st.booleans(),
        ),
    ),
    max_leaves=5,
)


@st.composite
def role_refs(draw, local_only=False):
    if local_only or draw(st.integers(0, 3)):
        service = draw(st.sampled_from([None, None, SERVICE]))
        role = draw(st.sampled_from(LOCAL_ROLES))
    else:
        service, role = FOREIGN, "U"
    args = tuple(draw(pattern(t)) for t in arg_types(service, role))
    if draw(st.integers(0, 19)) == 0:
        args += (draw(variables),)   # wrong arity: matches nothing
    return RoleRef(service, role, args, starred=draw(st.booleans()))


@st.composite
def statements(draw):
    role = draw(st.sampled_from(LOCAL_ROLES))
    head = RoleRef(None, role, tuple(draw(pattern(t)) for t in arg_types(None, role)))
    conditions = tuple(draw(st.lists(role_refs(), max_size=3)))
    elector = None
    delegation_starred = False
    if draw(st.integers(0, 3)) == 0:
        elector = draw(role_refs(local_only=True))
        elector = RoleRef(None, elector.name, elector.args, elector.starred)
        delegation_starred = draw(st.booleans())
    revoker = None
    if draw(st.integers(0, 4)) == 0:
        revoker = RoleRef(None, draw(st.sampled_from(LOCAL_ROLES)))
    constraint = draw(st.one_of(st.none(), constraints))
    return EntryStatement(
        head=head,
        conditions=conditions,
        elector=elector,
        delegation_starred=delegation_starred,
        revoker=revoker,
        constraint=constraint,
    )


@st.composite
def memberships(draw, crr):
    if draw(st.integers(0, 3)):
        service, role = SERVICE, draw(st.sampled_from(LOCAL_ROLES))
    else:
        service, role = FOREIGN, "U"
    args = tuple(draw(st.sampled_from(VALUES[t])) for t in arg_types(service, role))
    roles = {role}
    if service == SERVICE and draw(st.integers(0, 4)) == 0:
        # a compound certificate: the same arguments, another role
        roles.add(draw(st.sampled_from(LOCAL_ROLES)))
    return Membership(service, frozenset(roles), args, (CertDep(service, crr),))


@st.composite
def requests(draw, rolefile):
    heads = [s.head.name for s in rolefile.statements] or list(LOCAL_ROLES)
    role = draw(st.sampled_from(heads + ["D"]))
    args = None
    if draw(st.integers(0, 2)):
        args = tuple(
            draw(st.one_of(st.none(), st.sampled_from(VALUES[t])))
            for t in arg_types(None, role)
        )
    credentials = [
        draw(memberships(crr))
        for crr in range(1, 1 + draw(st.integers(0, 4)))
    ]
    delegation = None
    if draw(st.integers(0, 3)) == 0:
        electors = [s.elector.name for s in rolefile.statements if s.elector] or ["A"]
        template_role = draw(st.sampled_from(LOCAL_ROLES))
        delegation = DelegationCertificate(
            issuer=SERVICE,
            rolefile_id="main",
            role=role,
            role_args=draw(st.one_of(
                st.just(()),
                st.tuples(*(st.sampled_from(GOOD_LITERALS[t] + BAD_LITERALS[t])
                            for t in arg_types(None, role))),
            )),
            required_roles=draw(st.one_of(
                st.just(()),
                st.just((RoleTemplate(SERVICE, template_role),)),
            )),
            delegation_crr=900,
            elector_crr=901,
            elector_role=draw(st.sampled_from(electors)),
            expires_at=None,
            revoke_on_exit=False,
            elector_args=tuple(draw(st.lists(st.sampled_from(POOL), max_size=2))),
        )
    return role, args, credentials, delegation


def outcome(engine, role, args, credentials, delegation):
    try:
        result = engine.evaluate(role, args, list(credentials), delegation)
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc))

    def shape(m):
        return (m.service, m.roles, m.args, m.deps)

    return (
        "granted",
        shape(result.membership),
        result.statement,
        [shape(m) for m in result.all_memberships],
        result.applied,
    )


def build(engine_class, rolefile, groups):
    return engine_class(
        rolefile,
        SERVICE,
        signatures,
        group_lookup=group_lookup if groups else None,
        functions=FUNCTIONS,
        watchable=WATCHABLE,
        object_parser=object_parser,
    )


@st.composite
def cases(draw):
    """A rolefile, whether a group service is present, and three requests."""
    rolefile = Rolefile(statements=draw(st.lists(statements(), min_size=1, max_size=4)))
    groups = draw(st.integers(0, 7)) > 0
    return rolefile, groups, [draw(requests(rolefile)) for _ in range(3)]


def parsed(source):
    """A rolefile as the parser builds it, for the explicit examples."""
    return parse_rolefile(source)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
# a head literal that never coerces: raised when the head is built, and
# when the request's argument prebinds it
@example(case=(parsed('A("zz") <-'), True, [("A", None, [], None), ("A", (1,), [], None)]))
# a group rule under ``not`` records the negated polarity; an ``or``
# keeps only the succeeding branch's rule, and its operands inherit
# the star
@example(case=(
    parsed("A(x) <- : not (x in g1)*\nE(y) <- A(y) : (y in g1 or y in g2)*"),
    True,
    [("A", (2,), [], None), ("E", None, [Membership(SERVICE, frozenset("A"), (2,))], None)],
))
# head variables that occur nowhere else are built from the request as
# it was coerced, not coerced again; a wild card leaves one unbound
@example(case=(
    parsed("B(x, y) <-"),
    False,
    [("B", (None, "a"), [], None), ("B", (1, None), [], None), ("B", (2, "b"), [], None)],
))
def test_compiled_engine_matches_interpreter(case):
    rolefile, groups, requests_ = case
    compiled = build(RoleEntryEngine, rolefile, groups)
    reference = build(InterpretedEngine, rolefile, groups)
    for request in requests_:
        assert outcome(compiled, *request) == outcome(reference, *request)
    assert compiled.stats == reference.stats


def run_constraint(evaluate, constraint, env, groups):
    ctx = ConstraintContext(
        env=dict(env),
        group_lookup=group_lookup if groups else None,
        functions=FUNCTIONS,
        watchable=WATCHABLE,
        object_parser=object_parser,
    )
    try:
        result = ("returned", evaluate(constraint, ctx))
    except Exception as exc:  # the error itself is what is compared
        result = ("raised", type(exc), str(exc))
    return result, ctx.env, ctx.deps


def compiled_constraint(constraint, ctx):
    return compile_constraint(constraint, ctx)(ctx.env, ctx.deps)


def constraint_of(source):
    return parse_rolefile(f"D <- : {source}").statements[0].constraint


@settings(max_examples=400, deadline=None)
@given(
    constraint=constraints,
    env=st.dictionaries(st.sampled_from(VARIABLES), st.sampled_from(POOL), max_size=3),
    groups=st.integers(0, 7).map(bool),
)
@example(constraint=constraint_of("not (x in g1)*"), env={"x": 2}, groups=True)
@example(constraint=constraint_of("(x in g1 or x in g2)*"), env={"x": 2}, groups=True)
@example(constraint=constraint_of("(x in g2 and not (y in g1))*"), env={"x": 2, "y": 2}, groups=True)
def test_compiled_constraint_matches_interpreter(constraint, env, groups):
    """The result or error, the bindings ``=`` added and the membership
    rules recorded, dependencies in order, for constraints alone: every
    example reaches the constraint, granted or not."""
    assert run_constraint(compiled_constraint, constraint, env, groups) == run_constraint(
        eval_constraint, constraint, env, groups
    )
