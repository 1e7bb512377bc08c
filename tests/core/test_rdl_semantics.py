"""Tests for RDL type inference and constraint evaluation (constraints
and terms run compiled, as the engine runs them)."""

import pytest

from repro.core.rdl.constraints import (
    ConstraintContext,
    FuncDep,
    GroupDep,
    UnboundVariable,
    compile_constraint,
    compile_term,
)
from repro.core.rdl.ast import Variable
from repro.core.rdl.parser import parse_rolefile
from repro.core.rdl.typecheck import TypeChecker, coerce_literal
from repro.core.types import INTEGER, STRING, ObjectRef, ObjectType, SetType, TypeTable
from repro.errors import RDLTypeError


def check(source, resolver=None, types=None, function_types=None):
    rf = parse_rolefile(source)
    checker = TypeChecker(
        rf, types=types, resolver=resolver, function_types=function_types
    )
    return checker.check()


class TestTypeInference:
    def test_declared_types(self):
        sigs = check("def A(x, y)  x: integer  y: string\nA(x, y) <- ")
        assert sigs["A"] == [INTEGER, STRING]

    def test_inferred_from_external_role(self):
        def resolver(service, role):
            if (service, role) == ("Login", "LoggedOn"):
                return [STRING, STRING]
            return None

        sigs = check("Member(u) <- Login.LoggedOn(u, h)", resolver=resolver)
        assert sigs["Member"] == [STRING]

    def test_inferred_from_literal(self):
        sigs = check('A(x) <- \nB <- A(5)\nC <- A(x) : x == 1\n')
        assert sigs["A"] == [INTEGER]

    def test_inferred_transitively(self):
        def resolver(service, role):
            return [INTEGER] if role == "Ext" else None

        sigs = check("Mid(x) <- S.Ext(x)\nTop(x) <- Mid(x)", resolver=resolver)
        assert sigs["Top"] == [INTEGER]
        assert sigs["Mid"] == [INTEGER]

    def test_inference_failure_reported(self):
        with pytest.raises(RDLTypeError, match="could not infer"):
            check("A(x) <- ")

    def test_conflicting_types_rejected(self):
        def resolver(service, role):
            return {"I": [INTEGER], "S": [STRING]}.get(role)

        with pytest.raises(RDLTypeError):
            check("A(x) <- Svc.I(x) & Svc.S(x)", resolver=resolver)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(RDLTypeError):
            check("def A(x)  x: integer\nB <- A(1, 2)")

    def test_external_arity_mismatch_rejected(self):
        def resolver(service, role):
            return [INTEGER, INTEGER]

        with pytest.raises(RDLTypeError):
            check("A <- S.Two(x)", resolver=resolver)

    def test_function_type_hint_used(self):
        sigs = check(
            'def LoggedOn(u)  u: string\n'
            'LoggedOn(u) <- \n'
            'UseFile(r) <- LoggedOn(u) : r = unixacl("rjh21=rwx", u)\n',
            function_types={"unixacl": SetType("rwx")},
        )
        assert sigs["UseFile"] == [SetType("rwx")]

    def test_binding_from_function_type(self):
        sigs = check(
            'def LoggedOn(u)  u: string\n'
            'LoggedOn(u) <- \n'
            'UseFile(r) <- LoggedOn(u) : r = unixacl("acl", u)\n',
            function_types={"unixacl": SetType("rwx")},
        )
        assert sigs["UseFile"] == [SetType("rwx")]

    def test_redundant_declaration_can_be_omitted(self):
        """Section 3.2.1: fully inferable declarations may be omitted."""
        def resolver(service, role):
            return [STRING, STRING] if role == "LoggedOn" else None

        sigs = check("Member(u) <- Login.LoggedOn(u, h)", resolver=resolver)
        assert sigs["Member"] == [STRING]


class TestCoercion:
    def test_string_to_object_ref(self):
        uid = ObjectType("Login.userid")
        assert coerce_literal("jmb", uid) == ObjectRef("Login.userid", b"jmb")

    def test_set_validated(self):
        assert coerce_literal(frozenset("rw"), SetType("rwx")) == frozenset("rw")
        with pytest.raises(RDLTypeError):
            coerce_literal(frozenset("z"), SetType("rwx"))

    def test_int_passthrough(self):
        assert coerce_literal(3, INTEGER) == 3


class TestConstraintEvaluation:
    def parse_constraint(self, text):
        rf = parse_rolefile(f"A <- B : {text}")
        return rf.statements[0].constraint

    def eval(self, text, env=None, groups=None, functions=None, watchable=None):
        ctx = ConstraintContext(
            env=env or {},
            group_lookup=(lambda p, g: p in groups.get(g, set())) if groups is not None else None,
            functions=functions or {},
            watchable=watchable or {},
        )
        compiled = compile_constraint(self.parse_constraint(text), ctx)
        result = compiled(ctx.env, ctx.deps)
        return result, ctx

    def test_comparisons(self):
        assert self.eval("x == 3", {"x": 3})[0]
        assert not self.eval("x == 3", {"x": 4})[0]
        assert self.eval("x != y", {"x": 1, "y": 2})[0]
        assert self.eval("x < y", {"x": 1, "y": 2})[0]
        assert self.eval("x >= 1", {"x": 1})[0]

    def test_binding_equals(self):
        result, ctx = self.eval("x = 7", {})
        assert result
        assert ctx.env["x"] == 7

    def test_bound_equals_tests(self):
        assert self.eval("x = 7", {"x": 7})[0]
        assert not self.eval("x = 7", {"x": 8})[0]

    def test_group_test(self):
        groups = {"staff": {"dm"}}
        assert self.eval("u in staff", {"u": "dm"}, groups)[0]
        assert not self.eval("u in staff", {"u": "xx"}, groups)[0]

    def test_starred_group_records_dep(self):
        groups = {"staff": {"dm"}}
        result, ctx = self.eval("(u in staff)*", {"u": "dm"}, groups)
        assert result
        assert ctx.deps == [GroupDep("dm", "staff", negate=False)]

    def test_unstarred_group_records_nothing(self):
        groups = {"staff": {"dm"}}
        _, ctx = self.eval("u in staff", {"u": "dm"}, groups)
        assert ctx.deps == []

    def test_negated_star_group(self):
        groups = {"banned": set()}
        result, ctx = self.eval("not (u in banned)*", {"u": "dm"}, groups)
        assert result
        assert ctx.deps == [GroupDep("dm", "banned", negate=True)]

    def test_and_or_logic(self):
        groups = {"g": {"a"}}
        assert self.eval("x == 1 and u in g", {"x": 1, "u": "a"}, groups)[0]
        assert not self.eval("x == 1 and u in g", {"x": 2, "u": "a"}, groups)[0]
        assert self.eval("x == 2 or u in g", {"x": 1, "u": "a"}, groups)[0]

    def test_or_freezes_only_taken_branch(self):
        groups = {"g1": set(), "g2": {"a"}}
        _, ctx = self.eval("(u in g1 or u in g2)*", {"u": "a"}, groups)
        assert ctx.deps == [GroupDep("a", "g2", negate=False)]

    def test_function_call(self):
        result, ctx = self.eval(
            'r = unixacl("acl", u)',
            {"u": "rjh21"},
            functions={"unixacl": lambda acl, u: frozenset("rwx")},
        )
        assert result
        assert ctx.env["r"] == frozenset("rwx")

    def test_watchable_function_records_dep(self):
        def creator(doc):
            return "dm", 12345   # value, token

        result, ctx = self.eval(
            '(u = creator("DOC"))*', {}, watchable={"creator": creator}
        )
        assert result
        assert ctx.env["u"] == "dm"
        assert ctx.deps == [FuncDep("creator", 12345)]

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariable):
            self.eval("x == 3", {})

    def test_set_ordering_mixed_types_rejected(self):
        from repro.errors import RDLError
        with pytest.raises(RDLError):
            self.eval("x < y", {"x": frozenset("a"), "y": 3})

    def test_set_subset_comparison(self):
        assert self.eval("x <= y", {"x": frozenset("r"), "y": frozenset("rw")})[0]

    def test_eval_term_unknown_function(self):
        from repro.errors import RDLError
        ctx = ConstraintContext()
        term = compile_term(
            parse_rolefile("A <- B : f(1) == 2").statements[0].constraint.left,
            ctx,
        )
        with pytest.raises(RDLError):
            term(ctx.env, ctx.deps)
