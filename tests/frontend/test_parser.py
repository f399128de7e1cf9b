"""Tests for the MiniC parser."""

import pytest

from repro.errors import CompileError
from repro.frontend import parse
from repro.frontend import ast
from repro.frontend.parser import MAX_NESTING


class TestDeclarations:
    def test_global_scalar(self):
        unit = parse("int x = 5;")
        assert len(unit.globals) == 1
        g = unit.globals[0]
        assert g.name == "x"
        assert g.ctype == ast.CINT
        assert isinstance(g.init, ast.IntLit)

    def test_global_array_dims_outermost_first(self):
        unit = parse("int grid[2][3];")
        ctype = unit.globals[0].ctype
        assert isinstance(ctype, ast.CArray) and ctype.count == 2
        assert isinstance(ctype.element, ast.CArray) and ctype.element.count == 3

    def test_size_less_extern_array(self):
        unit = parse("extern int data[];")
        g = unit.globals[0]
        assert g.extern
        assert isinstance(g.ctype, ast.CArray)
        assert g.ctype.count is None

    def test_multiple_declarators(self):
        unit = parse("int a, *b, c[4];")
        types = [g.ctype for g in unit.globals]
        assert types[0] == ast.CINT
        assert isinstance(types[1], ast.CPointer)
        assert isinstance(types[2], ast.CArray)

    def test_struct_definition(self):
        unit = parse("struct point { int x; int y; double w[3]; };")
        s = unit.structs[0]
        assert s.tag == "point"
        assert [name for _, name in s.members] == ["x", "y", "w"]

    def test_function_with_params(self):
        unit = parse("long f(int a, char *b, double c) { return 0; }")
        fn = unit.functions[0]
        assert fn.name == "f"
        assert fn.return_type == ast.CLONG
        assert len(fn.params) == 3
        assert isinstance(fn.params[1][0], ast.CPointer)

    def test_array_param_decays(self):
        unit = parse("int f(int a[]) { return a[0]; }")
        pty = unit.functions[0].params[0][0]
        assert isinstance(pty, ast.CPointer)

    def test_function_declaration_only(self):
        unit = parse("int f(int a);")
        assert unit.functions[0].body is None

    def test_void_param_list(self):
        unit = parse("int f(void) { return 1; }")
        assert unit.functions[0].params == []


class TestExpressions:
    def _expr(self, text):
        unit = parse(f"int main() {{ return {text}; }}")
        stmt = unit.functions[0].body.statements[0]
        return stmt.value

    def test_precedence(self):
        e = self._expr("1 + 2 * 3")
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.rhs, ast.Binary) and e.rhs.op == "*"

    def test_comparison_chains_under_logic(self):
        e = self._expr("a < b && c > d")
        assert e.op == "&&"
        assert e.lhs.op == "<" and e.rhs.op == ">"

    def test_ternary(self):
        e = self._expr("a ? b : c")
        assert isinstance(e, ast.Conditional)

    def test_cast_vs_parenthesised_expr(self):
        cast = self._expr("(int) x")
        assert isinstance(cast, ast.CastExpr)
        grouped = self._expr("(x) + 1")
        assert isinstance(grouped, ast.Binary)

    def test_sizeof(self):
        e = self._expr("sizeof(struct point)")
        assert isinstance(e, ast.SizeofExpr)
        assert isinstance(e.target, ast.CStruct)

    def test_postfix_chain(self):
        e = self._expr("a.b[2]")
        assert isinstance(e, ast.Index)
        assert isinstance(e.base, ast.Member)

    def test_arrow(self):
        e = self._expr("p->next")
        assert isinstance(e, ast.Member) and e.arrow

    def test_prefix_increment_desugars(self):
        e = self._expr("++x")
        assert isinstance(e, ast.Assign) and e.op == "+="

    def test_unary_chain(self):
        e = self._expr("-*p")
        assert isinstance(e, ast.Unary) and e.op == "-"
        assert isinstance(e.operand, ast.Unary) and e.operand.op == "*"

    def test_call_arguments(self):
        e = self._expr("f(1, x + 2, g())")
        assert isinstance(e, ast.CallExpr)
        assert len(e.args) == 3


class TestStatements:
    def _stmts(self, body):
        unit = parse(f"int main() {{ {body} }}")
        return unit.functions[0].body.statements

    def test_for_with_decl(self):
        stmt = self._stmts("for (int i = 0; i < 10; i++) {}")[0]
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_empty_clauses(self):
        stmt = self._stmts("for (;;) break;")[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_dangling_else(self):
        stmt = self._stmts("if (a) if (b) x = 1; else x = 2;")[0]
        assert stmt.otherwise is None            # else binds to inner if
        assert stmt.then.otherwise is not None

    def test_local_multi_decl(self):
        stmts = self._stmts("int a = 1, b = 2;")
        assert isinstance(stmts[0], ast.Block)
        assert len(stmts[0].statements) == 2


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(CompileError, match="expected"):
            parse("int main() { return 0 }")

    def test_unbalanced_paren(self):
        with pytest.raises(CompileError):
            parse("int main() { return (1; }")

    def test_bad_top_level(self):
        with pytest.raises(CompileError):
            parse("42;")


def nested_parens(depth: int) -> str:
    return ("int main() {\n    return "
            + "(" * depth + "1" + ")" * depth + ";\n}\n")


def nested_sums(depth: int) -> str:
    """``1 + (1 + (...))``: each parenthesised operand is a link too."""
    return ("int main() {\n    return "
            + "1 + (" * depth + "1" + ")" * depth + ";\n}\n")


def nested_ifs(depth: int) -> str:
    """One ``if (x) {`` per line, from line 3."""
    return ("int main() {\n    int x = 1;\n"
            + "if (x) {\n" * depth + "x = 2;\n" + "}\n" * depth
            + "    return x;\n}\n")


def flat_sum(terms: int) -> str:
    return ("int main() {\n    return "
            + " + ".join(["1"] * terms) + ";\n}\n")


class TestNestingLimit:
    """Past ``MAX_NESTING`` the parser raises a one-line CompileError
    naming the line, before Python's recursion limit can trip here or in
    a later recursive walk of the tree."""

    @pytest.mark.parametrize("source, lines", [
        (nested_parens(140), [2]),
        # The line of the ``if`` whose condition passes the limit.
        (nested_ifs(245), range(3 + MAX_NESTING // 3, 3 + MAX_NESTING // 2)),
        (flat_sum(491), [2]),
    ], ids=["parens", "ifs", "flat-sum"])
    def test_too_deep_is_compile_error(self, source, lines):
        with pytest.raises(CompileError) as info:
            parse(source)
        line = info.value.line
        assert line in lines
        assert str(info.value) == (
            f"line {line}: nested deeper than {MAX_NESTING} levels")

    @pytest.mark.parametrize("source", [
        nested_parens(63), nested_sums(63), nested_ifs(127), flat_sum(300),
    ], ids=["63-parens", "63-parenthesised-sums", "127-blocks", "300-terms"])
    def test_c11_minimums_parse(self, source):
        # C11 5.2.4.1: 63 nested parenthesised expressions, 127 nested
        # blocks.
        parse(source)
