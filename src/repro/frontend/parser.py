"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import CompileError
from . import ast
from .lexer import Token, tokenize

_TYPE_KEYWORDS = {"int", "long", "char", "double", "float", "void", "unsigned", "struct", "const"}

# binary operator precedence (higher binds tighter)
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: How deeply a program may nest.  A level is a block, ``if`` or loop
#: inside a statement; an assignment, conditional or unary expression
#: inside an expression (a parenthesised operand is all three); or a
#: link of an operator chain.  A level costs at most about 2.4 Python
#: frames in the parser or in a later recursive walk of the tree, so a
#: program at the limit compiles within 800 frames, and a deeper one
#: gets a ``CompileError`` instead of a ``RecursionError``.  The limit
#: admits C11 5.2.4.1's minimums: 127 nested blocks (``if (c) {`` is
#: two levels) and 63 nested parenthesised expressions.
MAX_NESTING = 320


class Parser:
    def __init__(self, source: str, name: str = "tu"):
        self.tokens = tokenize(source)
        self.pos = 0
        self.unit = ast.TranslationUnit(name=name)
        self.struct_tags = set()
        self.depth = 0

    # -- token helpers ---------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def _nest(self) -> None:
        """One level deeper (see :data:`MAX_NESTING`)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise CompileError(
                f"nested deeper than {MAX_NESTING} levels", self.current.line)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.check(kind, text):
            want = text or kind
            raise CompileError(
                f"expected {want!r}, found {self.current.text!r}", self.current.line
            )
        return self.advance()

    # -- types ---------------------------------------------------------------
    def at_type(self) -> bool:
        tok = self.current
        return tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS

    def parse_base_type(self) -> ast.CType:
        while self.accept("keyword", "const"):
            pass
        tok = self.expect("keyword")
        if tok.text == "struct":
            tag = self.expect("ident").text
            return ast.CStruct(tag)
        if tok.text == "unsigned":
            # "unsigned", "unsigned int", "unsigned long", "unsigned char"
            if self.check("keyword", "int") or self.check("keyword", "long") or self.check("keyword", "char"):
                self.advance()
            return ast.CUNSIGNED
        if tok.text == "long":
            self.accept("keyword", "long")  # "long long"
            self.accept("keyword", "int")
            return ast.CLONG
        if tok.text in ("int", "char", "double", "float", "void"):
            return ast.CPrim(tok.text)
        raise CompileError(f"expected a type, found {tok.text!r}", tok.line)

    def parse_pointers(self, base: ast.CType) -> ast.CType:
        while self.accept("op", "*"):
            while self.accept("keyword", "const"):
                pass
            base = ast.CPointer(base)
        return base

    def parse_type(self) -> ast.CType:
        return self.parse_pointers(self.parse_base_type())

    def parse_declarator(self, base: ast.CType):
        """Parse ``*... name[dims]`` or the function-pointer form
        ``(*name)(T1, T2)``; returns (ctype, name)."""
        base = self.parse_pointers(base)
        if self.check("op", "(") and self.peek().text == "*":
            self.advance()
            self.expect("op", "*")
            name = self.expect("ident").text
            self.expect("op", ")")
            self.expect("op", "(")
            params = []
            if not self.check("op", ")"):
                if self.check("keyword", "void") and self.peek().text == ")":
                    self.advance()
                else:
                    while True:
                        pty = self.parse_type()
                        if self.check("ident"):
                            self.advance()  # optional parameter name
                        params.append(pty)
                        if not self.accept("op", ","):
                            break
            self.expect("op", ")")
            return ast.CPointer(ast.CFunction(base, tuple(params))), name
        name = self.expect("ident").text
        return self.parse_array_suffix(base), name

    def parse_array_suffix(self, base: ast.CType) -> ast.CType:
        """Array suffixes bind outermost-first: ``int a[2][3]``."""
        dims: List[Optional[int]] = []
        while self.accept("op", "["):
            if self.accept("op", "]"):
                dims.append(None)
            else:
                tok = self.expect("int")
                self.expect("op", "]")
                dims.append(int(tok.value))
        for count in reversed(dims):
            base = ast.CArray(base, count)
        return base

    # -- top level --------------------------------------------------------------
    def parse_unit(self) -> ast.TranslationUnit:
        while not self.check("eof"):
            self.parse_top_level()
        return self.unit

    def parse_top_level(self) -> None:
        line = self.current.line
        extern = bool(self.accept("keyword", "extern"))
        static = bool(self.accept("keyword", "static"))

        if self.check("keyword", "struct") and self.peek(2).text == "{":
            self.parse_struct_def()
            return

        base = self.parse_base_type()
        if self.accept("op", ";"):
            return  # e.g. "struct tag;" forward declaration
        self.parse_declarators(base, extern, static, line)

    def parse_struct_def(self) -> None:
        line = self.current.line
        self.expect("keyword", "struct")
        tag = self.expect("ident").text
        self.expect("op", "{")
        members: List[Tuple[ast.CType, str]] = []
        while not self.accept("op", "}"):
            base = self.parse_base_type()
            while True:
                mty = self.parse_pointers(base)
                name = self.expect("ident").text
                mty = self.parse_array_suffix(mty)
                members.append((mty, name))
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        self.expect("op", ";")
        self.struct_tags.add(tag)
        self.unit.structs.append(ast.StructDef(tag, members, line))

    def parse_declarators(self, base: ast.CType, extern: bool, static: bool, line: int) -> None:
        first = True
        while True:
            ctype, name = self._global_declarator(base, first, static, line)
            if ctype is None:
                return  # was a function definition/declaration
            first = False
            init: Optional[ast.Expr] = None
            if self.accept("op", "="):
                init = self.parse_assignment()
            self.unit.globals.append(
                ast.GlobalDecl(ctype=ctype, name=name, init=init,
                               extern=extern, static=static, line=line)
            )
            if self.accept("op", ","):
                continue
            self.expect("op", ";")
            return

    def _global_declarator(self, base, first, static, line):
        """One global declarator; returns (None, None) if it turned out
        to be a function definition (handled internally)."""
        ctype = self.parse_pointers(base)
        if self.check("op", "(") and self.peek().text == "*":
            return self.parse_declarator(ctype)
        name = self.expect("ident").text
        if first and self.check("op", "("):
            self.parse_function(ctype, name, static, line)
            return None, None
        return self.parse_array_suffix(ctype), name

    def parse_function(self, ret: ast.CType, name: str, static: bool, line: int) -> None:
        self.expect("op", "(")
        params: List[Tuple[ast.CType, str]] = []
        if not self.check("op", ")"):
            if self.check("keyword", "void") and self.peek().text == ")":
                self.advance()
            else:
                while True:
                    base = self.parse_base_type()
                    pty, pname = self.parse_declarator(base)
                    if isinstance(pty, ast.CArray):
                        pty = ast.CPointer(pty.element)  # parameter decay
                    params.append((pty, pname))
                    if not self.accept("op", ","):
                        break
        self.expect("op", ")")
        body: Optional[ast.Block] = None
        if not self.accept("op", ";"):
            body = self.parse_block()
        self.unit.functions.append(
            ast.FunctionDef(return_type=ret, name=name, params=params,
                            body=body, static=static, line=line)
        )

    # -- statements -----------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        self._nest()
        line = self.expect("op", "{").line
        statements: List[ast.Stmt] = []
        while not self.accept("op", "}"):
            statements.append(self.parse_statement())
        self.depth -= 1
        return ast.Block(line=line, statements=statements)

    def parse_statement(self) -> ast.Stmt:
        tok = self.current
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "keyword":
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "do":
                return self.parse_do_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "return":
                self.advance()
                value = None if self.check("op", ";") else self.parse_expression()
                self.expect("op", ";")
                return ast.Return(line=tok.line, value=value)
            if tok.text == "break":
                self.advance()
                self.expect("op", ";")
                return ast.Break(line=tok.line)
            if tok.text == "continue":
                self.advance()
                self.expect("op", ";")
                return ast.Continue(line=tok.line)
            if tok.text in _TYPE_KEYWORDS:
                return self.parse_local_decl()
        if self.accept("op", ";"):
            return ast.Block(line=tok.line)  # empty statement
        expr = self.parse_expression()
        self.expect("op", ";")
        return ast.ExprStmt(line=tok.line, expr=expr)

    def parse_local_decl(self) -> ast.Stmt:
        line = self.current.line
        base = self.parse_base_type()
        decls: List[ast.Stmt] = []
        while True:
            ctype, name = self.parse_declarator(base)
            init: Optional[ast.Expr] = None
            if self.accept("op", "="):
                init = self.parse_assignment()
            decls.append(ast.DeclStmt(line=line, ctype=ctype, name=name, init=init))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(line=line, statements=decls)

    def parse_if(self) -> ast.Stmt:
        self._nest()
        line = self.expect("keyword", "if").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self.parse_statement()
        otherwise = self.parse_statement() if self.accept("keyword", "else") else None
        self.depth -= 1
        return ast.If(line=line, cond=cond, then=then, otherwise=otherwise)

    def parse_while(self) -> ast.Stmt:
        self._nest()
        line = self.expect("keyword", "while").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        self.depth -= 1
        return ast.While(line=line, cond=cond, body=body)

    def parse_do_while(self) -> ast.Stmt:
        self._nest()
        line = self.expect("keyword", "do").line
        body = self.parse_statement()
        self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        self.depth -= 1
        return ast.While(line=line, cond=cond, body=body, is_do_while=True)

    def parse_for(self) -> ast.Stmt:
        self._nest()
        line = self.expect("keyword", "for").line
        self.expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self.accept("op", ";"):
            if self.at_type():
                init = self.parse_local_decl()
            else:
                init = ast.ExprStmt(line=line, expr=self.parse_expression())
                self.expect("op", ";")
        cond = None if self.check("op", ";") else self.parse_expression()
        self.expect("op", ";")
        step = None if self.check("op", ")") else self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        self.depth -= 1
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    # -- expressions --------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        depth = self.depth
        expr = self.parse_assignment()
        while self.accept("op", ","):
            self._nest()  # each link deepens the left-deep chain
            rhs = self.parse_assignment()
            expr = ast.Binary(line=rhs.line, op=",", lhs=expr, rhs=rhs)
        self.depth = depth
        return expr

    def parse_assignment(self) -> ast.Expr:
        self._nest()
        lhs = self.parse_conditional()
        tok = self.current
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self.advance()
            rhs = self.parse_assignment()
            lhs = ast.Assign(line=tok.line, op=tok.text, target=lhs, value=rhs)
        self.depth -= 1
        return lhs

    def parse_conditional(self) -> ast.Expr:
        self._nest()
        cond = self.parse_binary(1)
        if self.accept("op", "?"):
            then = self.parse_assignment()
            self.expect("op", ":")
            otherwise = self.parse_conditional()
            cond = ast.Conditional(line=cond.line, cond=cond, then=then, otherwise=otherwise)
        self.depth -= 1
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        depth = self.depth
        lhs = self.parse_unary()
        self.depth = depth  # the operand's levels end with it
        while True:
            tok = self.current
            prec = _BINARY_PRECEDENCE.get(tok.text) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                self.depth = depth
                return lhs
            self.advance()
            self._nest()  # each link deepens the left-deep chain
            rhs = self.parse_binary(prec + 1)
            lhs = ast.Binary(line=tok.line, op=tok.text, lhs=lhs, rhs=rhs)

    def _at_cast(self) -> bool:
        if not self.check("op", "("):
            return False
        nxt = self.peek()
        return nxt.kind == "keyword" and nxt.text in _TYPE_KEYWORDS

    def parse_unary(self) -> ast.Expr:
        self._nest()  # undone by parse_binary, its only other caller
        tok = self.current
        if tok.kind == "op" and tok.text in ("-", "!", "~", "*", "&"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.advance()
            operand = self.parse_unary()
            # ++x is sugar for (x += 1)
            op = "+=" if tok.text == "++" else "-="
            return ast.Assign(line=tok.line, op=op, target=operand,
                              value=ast.IntLit(line=tok.line, value=1))
        if tok.kind == "keyword" and tok.text == "sizeof":
            self.advance()
            self.expect("op", "(")
            target = self.parse_type()
            target = self.parse_abstract_array_suffix(target)
            self.expect("op", ")")
            return ast.SizeofExpr(line=tok.line, target=target)
        if self._at_cast():
            line = self.current.line
            self.advance()  # "("
            target = self.parse_type()
            self.expect("op", ")")
            value = self.parse_unary()
            return ast.CastExpr(line=line, target=target, value=value)
        return self.parse_postfix()

    def parse_abstract_array_suffix(self, base: ast.CType) -> ast.CType:
        dims: List[int] = []
        while self.accept("op", "["):
            tok = self.expect("int")
            self.expect("op", "]")
            dims.append(int(tok.value))
        for count in reversed(dims):
            base = ast.CArray(base, count)
        return base

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.current
            if self.accept("op", "["):
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(line=tok.line, base=expr, index=index)
            elif self.accept("op", "."):
                name = self.expect("ident").text
                expr = ast.Member(line=tok.line, base=expr, name=name, arrow=False)
            elif self.accept("op", "->"):
                name = self.expect("ident").text
                expr = ast.Member(line=tok.line, base=expr, name=name, arrow=True)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                self.advance()
                expr = ast.Postfix(line=tok.line, op=tok.text, operand=expr)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(line=tok.line, value=int(tok.value),
                              is_long="l" in tok.text.lower() or int(tok.value) > 0x7FFFFFFF)
        if tok.kind == "float":
            self.advance()
            return ast.FloatLit(line=tok.line, value=float(tok.value))
        if tok.kind == "char":
            self.advance()
            return ast.CharLit(line=tok.line, value=int(tok.value))
        if tok.kind == "string":
            self.advance()
            return ast.StringLit(line=tok.line, value=tok.value)
        if tok.kind == "keyword" and tok.text == "NULL":
            self.advance()
            return ast.NullLit(line=tok.line)
        if tok.kind == "ident":
            self.advance()
            if self.check("op", "("):
                self.advance()
                args: List[ast.Expr] = []
                if not self.check("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return ast.CallExpr(line=tok.line, name=tok.text, args=args)
            return ast.Ident(line=tok.line, name=tok.text)
        if self.accept("op", "("):
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise CompileError(f"unexpected token {tok.text!r}", tok.line)


def parse(source: str, name: str = "tu") -> ast.TranslationUnit:
    """Parse MiniC source text into a translation unit."""
    return Parser(source, name).parse_unit()
