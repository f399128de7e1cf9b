"""MiniC to IR code generation (with integrated semantic checking).

One pass over the AST lowers each translation unit to a
:class:`~repro.ir.module.Module`.  Local variables become entry-block
``alloca``s with explicit loads/stores; ``mem2reg`` later promotes them
to SSA registers, exactly like clang at ``-O0`` plus LLVM's pipeline.

Two codegen options reproduce frontend behaviours the paper analyses:

* ``obfuscate_pointer_copies`` -- lower loads/stores of pointer-typed
  values through ``i64`` (``ptrtoint``/``inttoptr``), the LLVM-12-style
  translation of Figure 7 that hides pointer stores from SoftBound's
  metadata propagation.
* size-less ``extern`` array declarations produce globals flagged
  ``declared_without_size`` (paper Section 4.3); under separate
  compilation SoftBound cannot derive their bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CompileError
from ..ir import (
    ArrayType,
    BasicBlock,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    ConstantZero,
    F32,
    F64,
    Function,
    FunctionType,
    GlobalVariable,
    I1,
    I8,
    I16,
    I32,
    I64,
    IRBuilder,
    IntType,
    FloatType,
    Module,
    PointerType,
    StructType,
    Type,
    VOID,
    VoidType,
    ptr,
    size_of,
)
from ..ir.values import Constant, Value
from ..vm.native import LIBC_ATTRIBUTES, LIBC_SIGNATURES
from . import ast
from .parser import parse

# C signatures of the libc builtins, for argument checking.
_VOIDP = ast.CPointer(ast.CVOID)
BUILTIN_SIGNATURES: Dict[str, Tuple[ast.CType, List[ast.CType]]] = {
    "malloc": (_VOIDP, [ast.CLONG]),
    "calloc": (_VOIDP, [ast.CLONG, ast.CLONG]),
    "realloc": (_VOIDP, [_VOIDP, ast.CLONG]),
    "free": (ast.CVOID, [_VOIDP]),
    "memcpy": (_VOIDP, [_VOIDP, _VOIDP, ast.CLONG]),
    "memmove": (_VOIDP, [_VOIDP, _VOIDP, ast.CLONG]),
    "memset": (_VOIDP, [_VOIDP, ast.CINT, ast.CLONG]),
    "strlen": (ast.CLONG, [ast.CPointer(ast.CCHAR)]),
    "strcpy": (ast.CPointer(ast.CCHAR), [ast.CPointer(ast.CCHAR), ast.CPointer(ast.CCHAR)]),
    "strcmp": (ast.CINT, [ast.CPointer(ast.CCHAR), ast.CPointer(ast.CCHAR)]),
    "print_i64": (ast.CVOID, [ast.CLONG]),
    "print_f64": (ast.CVOID, [ast.CDOUBLE]),
    "print_str": (ast.CVOID, [ast.CPointer(ast.CCHAR)]),
    "abort": (ast.CVOID, []),
    "exit": (ast.CVOID, [ast.CINT]),
    "sqrt": (ast.CDOUBLE, [ast.CDOUBLE]),
    "fabs": (ast.CDOUBLE, [ast.CDOUBLE]),
    "sin": (ast.CDOUBLE, [ast.CDOUBLE]),
    "cos": (ast.CDOUBLE, [ast.CDOUBLE]),
    "llabs": (ast.CLONG, [ast.CLONG]),
}

_INT_RANK = {"char": 0, "int": 1, "unsigned": 2, "long": 3}


@dataclass
class TypedValue:
    value: Value
    ctype: ast.CType


class CodeGenerator:
    def __init__(self, unit: ast.TranslationUnit, obfuscate_pointer_copies: bool = False):
        self.unit = unit
        self.module = Module(unit.name)
        self.obfuscate_pointer_copies = obfuscate_pointer_copies
        self.struct_defs: Dict[str, ast.StructDef] = {}
        self.struct_member_index: Dict[str, Dict[str, int]] = {}
        self.global_ctypes: Dict[str, ast.CType] = {}
        self.function_sigs: Dict[str, Tuple[ast.CType, List[ast.CType]]] = {}
        self._string_pool: Dict[bytes, GlobalVariable] = {}
        # per-function state
        self.builder: IRBuilder = IRBuilder()
        self.fn: Optional[Function] = None
        self.locals: List[Dict[str, TypedValue]] = []
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []
        self.current_return_ctype: ast.CType = ast.CVOID

    # ------------------------------------------------------------------
    # type lowering
    # ------------------------------------------------------------------
    def lower_type(self, ctype: ast.CType, line: int = 0) -> Type:
        if isinstance(ctype, ast.CPrim):
            table = {
                "char": I8, "int": I32, "unsigned": I32, "long": I64,
                "float": F32, "double": F64, "void": VOID,
            }
            return table[ctype.name]
        if isinstance(ctype, ast.CPointer):
            if ctype.pointee.is_void():
                return ptr(I8)
            inner = self.lower_type(ctype.pointee, line)
            if isinstance(inner, VoidType):
                return ptr(I8)
            return ptr(inner)
        if isinstance(ctype, ast.CFunction):
            ret = self.lower_type(ctype.ret, line)
            params = [self.lower_type(p, line) for p in ctype.params]
            return FunctionType(ret, params)
        if isinstance(ctype, ast.CArray):
            count = ctype.count if ctype.count is not None else 0
            return ArrayType(self.lower_type(ctype.element, line), count)
        if isinstance(ctype, ast.CStruct):
            if ctype.tag not in self.struct_defs:
                raise CompileError(f"unknown struct '{ctype.tag}'", line)
            return self.module.get_or_create_struct(ctype.tag)
        raise CompileError(f"cannot lower type {ctype}", line)

    def sizeof_ctype(self, ctype: ast.CType, line: int = 0) -> int:
        return size_of(self.lower_type(ctype, line))

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def generate(self) -> Module:
        for struct in self.unit.structs:
            self.struct_defs[struct.tag] = struct
            self.struct_member_index[struct.tag] = {
                name: i for i, (_, name) in enumerate(struct.members)
            }
        # Struct bodies (two passes for recursive structs).
        for struct in self.unit.structs:
            self.module.get_or_create_struct(struct.tag)
        for struct in self.unit.structs:
            sty = self.module.get_or_create_struct(struct.tag)
            sty.set_body([self.lower_type(t, struct.line) for t, _ in struct.members])

        for decl in self.unit.globals:
            self._gen_global(decl)

        # Declare all functions first so forward calls work.
        for fndef in self.unit.functions:
            self._declare_function(fndef)
        for fndef in self.unit.functions:
            if fndef.body is not None:
                self._gen_function(fndef)
        return self.module

    def _gen_global(self, decl: ast.GlobalDecl) -> None:
        assert decl.ctype is not None
        declared_without_size = (
            isinstance(decl.ctype, ast.CArray) and decl.ctype.count is None
        )
        value_type = self.lower_type(decl.ctype, decl.line)
        if decl.extern:
            linkage = "external"
            initializer = None
        else:
            linkage = "internal" if decl.static else "common"
            if decl.init is not None:
                linkage = "internal"
                initializer = self._const_expr(decl.init, decl.ctype)
            else:
                initializer = ConstantZero(value_type)
        existing = self.module.get_global(decl.name)
        if existing is not None:
            if existing.is_declaration and initializer is not None:
                existing.initializer = initializer
                existing.linkage = linkage
            self.global_ctypes[decl.name] = decl.ctype
            return
        self.module.add_global(
            decl.name, value_type, initializer, linkage, declared_without_size
        )
        self.global_ctypes[decl.name] = decl.ctype

    def _const_expr(self, expr: ast.Expr, ctype: ast.CType) -> Constant:
        ty = self.lower_type(ctype, expr.line)
        if isinstance(expr, ast.IntLit):
            if isinstance(ty, FloatType):
                return ConstantFloat(ty, float(expr.value))
            assert isinstance(ty, IntType)
            return ConstantInt(ty, expr.value)
        if isinstance(expr, ast.CharLit):
            assert isinstance(ty, IntType)
            return ConstantInt(ty, expr.value)
        if isinstance(expr, ast.FloatLit):
            assert isinstance(ty, FloatType)
            return ConstantFloat(ty, expr.value)
        if isinstance(expr, ast.NullLit):
            assert isinstance(ty, PointerType)
            return ConstantNull(ty)
        if isinstance(expr, ast.Unary) and expr.op == "-":
            inner = self._const_expr(expr.operand, ctype)
            if isinstance(inner, ConstantInt):
                return ConstantInt(inner.type, -inner.signed_value)
            if isinstance(inner, ConstantFloat):
                return ConstantFloat(inner.type, -inner.value)
        if isinstance(expr, ast.StringLit) and isinstance(ctype, ast.CPointer):
            raise CompileError(
                "string-initialized global pointers are not supported; "
                "use a char array", expr.line,
            )
        raise CompileError("unsupported constant initializer", expr.line)

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def _declare_function(self, fndef: ast.FunctionDef) -> None:
        assert fndef.return_type is not None
        ret = self.lower_type(fndef.return_type, fndef.line)
        params = [self.lower_type(t, fndef.line) for t, _ in fndef.params]
        fnty = FunctionType(ret, params)
        existing = self.module.get_function(fndef.name)
        if existing is None:
            self.module.add_function(fndef.name, fnty, [n for _, n in fndef.params])
        self.function_sigs[fndef.name] = (
            fndef.return_type,
            [t for t, _ in fndef.params],
        )

    def _declare_builtin(self, name: str, line: int) -> Function:
        fnty = LIBC_SIGNATURES[name]
        fn = self.module.get_or_declare_function(
            name, fnty, LIBC_ATTRIBUTES.get(name, set())
        )
        fn.native = True
        return fn

    def _gen_function(self, fndef: ast.FunctionDef) -> None:
        fn = self.module.get_function(fndef.name)
        assert fn is not None
        if fn.blocks:
            raise CompileError(f"redefinition of function '{fndef.name}'", fndef.line)
        self.fn = fn
        self.current_return_ctype = fndef.return_type or ast.CVOID
        entry = fn.add_block("entry")
        self.builder = IRBuilder(entry)
        self.locals = [{}]
        # Spill parameters to allocas (mem2reg will promote).
        for formal, (pctype, pname) in zip(fn.args, fndef.params):
            slot = self.builder.alloca(formal.type, name=f"{pname}.addr")
            self.builder.store(formal, slot)
            self.locals[-1][pname] = TypedValue(slot, pctype)
        assert fndef.body is not None
        self._gen_block(fndef.body)
        # Implicit return.
        if self.builder.block.terminator is None:
            if isinstance(fn.return_type, VoidType):
                self.builder.ret()
            elif fndef.name == "main":
                self.builder.ret(ConstantInt(I32, 0))
            else:
                self.builder.unreachable()
        self._hoist_static_allocas(fn)
        self.fn = None

    @staticmethod
    def _hoist_static_allocas(fn) -> None:
        """Move all fixed-size allocas to the entry block, as clang
        does.  Keeps stack allocation out of loops and lets mem2reg
        (which only scans the entry block) see every local."""
        from ..ir.instructions import Alloca

        hoisted = []
        for block in fn.blocks:
            for inst in list(block.instructions):
                if isinstance(inst, Alloca) and inst.count is None and block is not fn.entry:
                    block.remove_instruction(inst)
                    inst.parent = None
                    hoisted.append(inst)
        for inst in reversed(hoisted):
            fn.entry.insert(0, inst)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _gen_block(self, block: ast.Block) -> None:
        self.locals.append({})
        for stmt in block.statements:
            self._gen_stmt(stmt)
        self.locals.pop()

    def _terminated(self) -> bool:
        return self.builder.block.terminator is not None

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        line = getattr(stmt, "line", None)
        if line is not None:
            self.builder.current_line = line
        if self._terminated():
            # Dead code after return/break: put it in a fresh block so
            # the IR stays well-formed; DCE removes it.
            dead = self.fn.add_block("dead")
            self.builder.position_at_end(dead)
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._gen_expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_targets:
                raise CompileError("break outside of loop", stmt.line)
            self.builder.br(self.break_targets[-1])
        elif isinstance(stmt, ast.Continue):
            if not self.continue_targets:
                raise CompileError("continue outside of loop", stmt.line)
            self.builder.br(self.continue_targets[-1])
        else:
            raise CompileError(f"cannot compile statement {stmt!r}", stmt.line)

    def _gen_decl(self, stmt: ast.DeclStmt) -> None:
        assert stmt.ctype is not None
        if isinstance(stmt.ctype, ast.CArray) and stmt.ctype.count is None:
            raise CompileError("local array needs a size", stmt.line)
        ty = self.lower_type(stmt.ctype, stmt.line)
        slot = self.builder.alloca(ty, name=stmt.name)
        if stmt.name in self.locals[-1]:
            raise CompileError(f"redeclaration of '{stmt.name}'", stmt.line)
        self.locals[-1][stmt.name] = TypedValue(slot, stmt.ctype)
        if stmt.init is not None:
            value = self._gen_expr(stmt.init)
            converted = self._convert(value, stmt.ctype, stmt.line)
            self._emit_store(converted.value, slot, stmt.ctype)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._to_bool(self._gen_expr(stmt.cond), stmt.line)
        then_bb = self.fn.add_block("if.then")
        merge_bb = self.fn.add_block("if.end")
        else_bb = self.fn.add_block("if.else") if stmt.otherwise else merge_bb
        self.builder.cond_br(cond, then_bb, else_bb)
        self.builder.position_at_end(then_bb)
        self._gen_stmt(stmt.then)
        if not self._terminated():
            self.builder.br(merge_bb)
        if stmt.otherwise is not None:
            self.builder.position_at_end(else_bb)
            self._gen_stmt(stmt.otherwise)
            if not self._terminated():
                self.builder.br(merge_bb)
        self.builder.position_at_end(merge_bb)

    def _gen_while(self, stmt: ast.While) -> None:
        cond_bb = self.fn.add_block("while.cond")
        body_bb = self.fn.add_block("while.body")
        end_bb = self.fn.add_block("while.end")
        self.builder.br(body_bb if stmt.is_do_while else cond_bb)
        self.builder.position_at_end(cond_bb)
        cond = self._to_bool(self._gen_expr(stmt.cond), stmt.line)
        self.builder.cond_br(cond, body_bb, end_bb)
        self.builder.position_at_end(body_bb)
        self.break_targets.append(end_bb)
        self.continue_targets.append(cond_bb)
        self._gen_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if not self._terminated():
            self.builder.br(cond_bb)
        self.builder.position_at_end(end_bb)

    def _gen_for(self, stmt: ast.For) -> None:
        self.locals.append({})
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        cond_bb = self.fn.add_block("for.cond")
        body_bb = self.fn.add_block("for.body")
        step_bb = self.fn.add_block("for.step")
        end_bb = self.fn.add_block("for.end")
        self.builder.br(cond_bb)
        self.builder.position_at_end(cond_bb)
        if stmt.cond is not None:
            cond = self._to_bool(self._gen_expr(stmt.cond), stmt.line)
            self.builder.cond_br(cond, body_bb, end_bb)
        else:
            self.builder.br(body_bb)
        self.builder.position_at_end(body_bb)
        self.break_targets.append(end_bb)
        self.continue_targets.append(step_bb)
        self._gen_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if not self._terminated():
            self.builder.br(step_bb)
        self.builder.position_at_end(step_bb)
        if stmt.step is not None:
            self._gen_expr(stmt.step)
        self.builder.br(cond_bb)
        self.builder.position_at_end(end_bb)
        self.locals.pop()

    def _gen_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if not self.current_return_ctype.is_void():
                raise CompileError("return without value in non-void function", stmt.line)
            self.builder.ret()
            return
        value = self._gen_expr(stmt.value)
        converted = self._convert(value, self.current_return_ctype, stmt.line)
        self.builder.ret(converted.value)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _gen_expr(self, expr: ast.Expr) -> TypedValue:
        """Lower an expression to an rvalue."""
        if isinstance(expr, ast.IntLit):
            if expr.is_long:
                return TypedValue(ConstantInt(I64, expr.value), ast.CLONG)
            return TypedValue(ConstantInt(I32, expr.value), ast.CINT)
        if isinstance(expr, ast.FloatLit):
            return TypedValue(ConstantFloat(F64, expr.value), ast.CDOUBLE)
        if isinstance(expr, ast.CharLit):
            return TypedValue(ConstantInt(I32, expr.value), ast.CINT)
        if isinstance(expr, ast.NullLit):
            return TypedValue(ConstantNull(ptr(I8)), _VOIDP)
        if isinstance(expr, ast.StringLit):
            gv = self._intern_string(expr.value)
            decayed = self.builder.gep_index(gv, 0, 0)
            return TypedValue(decayed, ast.CPointer(ast.CCHAR))
        if isinstance(expr, ast.Ident):
            slot = self._lookup_variable(expr.name)
            if slot is None:
                decayed = self._function_value(expr.name, expr.line)
                if decayed is not None:
                    return decayed
            return self._load_lvalue(*self._gen_lvalue(expr), expr.line)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._load_lvalue(*self._gen_lvalue(expr), expr.line)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._gen_postfix(expr)
        if isinstance(expr, ast.Binary):
            # ``&&`` and ``||`` dispatch here, so that a chain of them
            # recurses two frames per link, like every other chain.
            if expr.op in ("&&", "||"):
                return self._gen_short_circuit(expr)
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._gen_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr)
        if isinstance(expr, ast.CastExpr):
            value = self._gen_expr(expr.value)
            return self._explicit_cast(value, expr.target, expr.line)
        if isinstance(expr, ast.SizeofExpr):
            return TypedValue(
                ConstantInt(I64, self.sizeof_ctype(expr.target, expr.line)), ast.CLONG
            )
        raise CompileError(f"cannot compile expression {expr!r}", expr.line)

    def _lookup_variable(self, name: str):
        for scope in reversed(self.locals):
            if name in scope:
                return scope[name]
        gv = self.module.get_global(name)
        if gv is not None and name in self.global_ctypes:
            return TypedValue(gv, self.global_ctypes[name])
        return None

    def _function_value(self, name: str, line: int):
        """A function name used as a value decays to a function
        pointer (``RET (*)(params)``)."""
        if name in self.function_sigs:
            fn = self.module.get_function(name)
            ret, params = self.function_sigs[name]
            return TypedValue(fn, ast.CPointer(ast.CFunction(ret, tuple(params))))
        if name in BUILTIN_SIGNATURES:
            fn = self._declare_builtin(name, line)
            ret, params = BUILTIN_SIGNATURES[name]
            return TypedValue(fn, ast.CPointer(ast.CFunction(ret, tuple(params))))
        return None

    def _intern_string(self, data: bytes) -> GlobalVariable:
        gv = self._string_pool.get(data)
        if gv is None:
            const = ConstantString(data)
            gv = self.module.add_global(
                f".str{len(self._string_pool)}", const.type, const, "internal"
            )
            self._string_pool[data] = gv
        return gv

    # -- lvalues ---------------------------------------------------------
    def _gen_lvalue(self, expr: ast.Expr) -> Tuple[Value, ast.CType]:
        """Lower an expression to (address, object C type)."""
        if isinstance(expr, ast.Ident):
            for scope in reversed(self.locals):
                if expr.name in scope:
                    tv = scope[expr.name]
                    return tv.value, tv.ctype
            gv = self.module.get_global(expr.name)
            if gv is not None and expr.name in self.global_ctypes:
                return gv, self.global_ctypes[expr.name]
            raise CompileError(f"unknown identifier '{expr.name}'", expr.line)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointee = self._gen_expr(expr.operand)
            if not isinstance(pointee.ctype, ast.CPointer):
                raise CompileError("dereference of non-pointer", expr.line)
            if pointee.ctype.pointee.is_void():
                raise CompileError("dereference of void*", expr.line)
            return pointee.value, pointee.ctype.pointee
        if isinstance(expr, ast.Index):
            base = self._gen_expr_or_decay(expr.base)
            index = self._gen_expr(expr.index)
            if not isinstance(base.ctype, ast.CPointer):
                raise CompileError("indexing a non-pointer", expr.line)
            idx64 = self._to_i64(index, expr.line)
            address = self.builder.gep(base.value, [idx64])
            return address, base.ctype.pointee
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self._gen_expr(expr.base)
                if not isinstance(base.ctype, ast.CPointer) or not isinstance(
                    base.ctype.pointee, ast.CStruct
                ):
                    raise CompileError("-> on non-struct-pointer", expr.line)
                struct_ctype = base.ctype.pointee
                base_addr = base.value
            else:
                base_addr, struct_ctype = self._gen_lvalue(expr.base)
                if not isinstance(struct_ctype, ast.CStruct):
                    raise CompileError(". on non-struct", expr.line)
            members = self.struct_member_index.get(struct_ctype.tag)
            if members is None or expr.name not in members:
                raise CompileError(
                    f"struct {struct_ctype.tag} has no member '{expr.name}'", expr.line
                )
            idx = members[expr.name]
            address = self.builder.gep(
                base_addr, [ConstantInt(I64, 0), ConstantInt(I32, idx)]
            )
            member_ctype = self.struct_defs[struct_ctype.tag].members[idx][0]
            return address, member_ctype
        raise CompileError("expression is not an lvalue", expr.line)

    def _load_lvalue(self, address: Value, ctype: ast.CType, line: int) -> TypedValue:
        if isinstance(ctype, ast.CArray):
            # Array decay: the rvalue is a pointer to the first element.
            decayed = self.builder.gep(
                address, [ConstantInt(I64, 0), ConstantInt(I64, 0)]
            )
            return TypedValue(decayed, ast.CPointer(ctype.element))
        if isinstance(ctype, ast.CStruct):
            # Struct rvalues are only used for member access; keep address.
            return TypedValue(address, ctype)
        return TypedValue(self._emit_load(address, ctype), ctype)

    # -- pointer-copy (de)obfuscation -------------------------------------
    def _emit_load(self, address: Value, ctype: ast.CType) -> Value:
        ty = self.lower_type(ctype)
        if self.obfuscate_pointer_copies and isinstance(ty, PointerType):
            as_i64p = self.builder.bitcast(address, ptr(I64))
            raw = self.builder.load(as_i64p)
            return self.builder.inttoptr(raw, ty)
        return self.builder.load(address)

    def _emit_store(self, value: Value, address: Value, ctype: ast.CType) -> None:
        ty = self.lower_type(ctype)
        if self.obfuscate_pointer_copies and isinstance(ty, PointerType):
            raw = self.builder.ptrtoint(value, I64)
            as_i64p = self.builder.bitcast(address, ptr(I64))
            self.builder.store(raw, as_i64p)
            return
        self.builder.store(value, address)

    # -- operators --------------------------------------------------------
    def _gen_expr_or_decay(self, expr: ast.Expr) -> TypedValue:
        return self._gen_expr(expr)

    def _gen_unary(self, expr: ast.Unary) -> TypedValue:
        if expr.op == "&":
            if isinstance(expr.operand, ast.Ident) and \
                    self._lookup_variable(expr.operand.name) is None:
                decayed = self._function_value(expr.operand.name, expr.line)
                if decayed is not None:
                    return decayed
            address, ctype = self._gen_lvalue(expr.operand)
            if isinstance(ctype, ast.CArray):
                address = self.builder.gep(
                    address, [ConstantInt(I64, 0), ConstantInt(I64, 0)]
                )
                return TypedValue(address, ast.CPointer(ctype.element))
            return TypedValue(address, ast.CPointer(ctype))
        if expr.op == "*":
            address, ctype = self._gen_lvalue(expr)
            return self._load_lvalue(address, ctype, expr.line)
        operand = self._gen_expr(expr.operand)
        if expr.op == "-":
            operand = self._promote_arith(operand, expr.line)
            if operand.ctype.is_float():
                # -0.0 - x, not 0.0 - x: the negation of +0.0 is -0.0
                zero = ConstantFloat(operand.value.type, -0.0)
                return TypedValue(self.builder.binop("fsub", zero, operand.value), operand.ctype)
            zero = ConstantInt(operand.value.type, 0)
            return TypedValue(self.builder.sub(zero, operand.value), operand.ctype)
        if expr.op == "~":
            operand = self._promote_arith(operand, expr.line)
            minus1 = ConstantInt(operand.value.type, -1)
            return TypedValue(self.builder.xor(operand.value, minus1), operand.ctype)
        if expr.op == "!":
            as_bool = self._to_bool(operand, expr.line)
            inverted = self.builder.xor(as_bool, ConstantInt(I1, 1))
            return TypedValue(self.builder.zext(inverted, I32), ast.CINT)
        raise CompileError(f"unknown unary operator {expr.op}", expr.line)

    def _gen_postfix(self, expr: ast.Postfix) -> TypedValue:
        address, ctype = self._gen_lvalue(expr.operand)
        old = self._load_lvalue(address, ctype, expr.line)
        delta = 1 if expr.op == "++" else -1
        if isinstance(ctype, ast.CPointer):
            new_value = self.builder.gep(old.value, [ConstantInt(I64, delta)])
        elif ctype.is_float():
            new_value = self.builder.binop(
                "fadd", old.value, ConstantFloat(old.value.type, float(delta))
            )
        else:
            new_value = self.builder.add(old.value, ConstantInt(old.value.type, delta))
        self._emit_store(new_value, address, ctype)
        return old

    def _gen_binary(self, expr: ast.Binary) -> TypedValue:
        op = expr.op
        if op == ",":
            self._gen_expr(expr.lhs)
            return self._gen_expr(expr.rhs)
        lhs = self._gen_expr(expr.lhs)
        rhs = self._gen_expr(expr.rhs)
        return self._apply_binary(op, lhs, rhs, expr.line)

    def _apply_binary(self, op: str, lhs: TypedValue, rhs: TypedValue, line: int) -> TypedValue:
        # pointer arithmetic
        if isinstance(lhs.ctype, ast.CPointer) or isinstance(rhs.ctype, ast.CPointer):
            return self._gen_pointer_binary(op, lhs, rhs, line)
        lhs, rhs, common = self._usual_conversions(lhs, rhs, line)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if common.is_float():
                # C's != is the *unordered* not-equal (NaN != NaN is
                # true); the relational operators are ordered, exactly
                # as clang lowers them.
                pred = {"==": "oeq", "!=": "une", "<": "olt",
                        "<=": "ole", ">": "ogt", ">=": "oge"}[op]
                cmp = self.builder.fcmp(pred, lhs.value, rhs.value)
            else:
                unsigned = common == ast.CUNSIGNED
                pred = {"==": "eq", "!=": "ne",
                        "<": "ult" if unsigned else "slt",
                        "<=": "ule" if unsigned else "sle",
                        ">": "ugt" if unsigned else "sgt",
                        ">=": "uge" if unsigned else "sge"}[op]
                cmp = self.builder.icmp(pred, lhs.value, rhs.value)
            return TypedValue(self.builder.zext(cmp, I32), ast.CINT)
        if common.is_float():
            ir_op = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}.get(op)
            if ir_op is None:
                raise CompileError(f"operator {op} on floating-point", line)
            return TypedValue(self.builder.binop(ir_op, lhs.value, rhs.value), common)
        unsigned = common == ast.CUNSIGNED
        ir_op = {
            "+": "add", "-": "sub", "*": "mul",
            "/": "udiv" if unsigned else "sdiv",
            "%": "urem" if unsigned else "srem",
            "&": "and", "|": "or", "^": "xor",
            "<<": "shl", ">>": "lshr" if unsigned else "ashr",
        }.get(op)
        if ir_op is None:
            raise CompileError(f"unknown operator {op}", line)
        return TypedValue(self.builder.binop(ir_op, lhs.value, rhs.value), common)

    def _gen_pointer_binary(self, op: str, lhs: TypedValue, rhs: TypedValue, line: int) -> TypedValue:
        lptr = isinstance(lhs.ctype, ast.CPointer)
        rptr = isinstance(rhs.ctype, ast.CPointer)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lv = self._pointer_as_value(lhs, line)
            rv = self._pointer_as_value(rhs, line)
            if lv.type != rv.type:
                rv = self.builder.bitcast(rv, lv.type)
            pred = {"==": "eq", "!=": "ne", "<": "ult",
                    "<=": "ule", ">": "ugt", ">=": "uge"}[op]
            li = self.builder.ptrtoint(lv, I64)
            ri = self.builder.ptrtoint(rv, I64)
            cmp = self.builder.icmp(pred, li, ri)
            return TypedValue(self.builder.zext(cmp, I32), ast.CINT)
        if op == "-" and lptr and rptr:
            li = self.builder.ptrtoint(lhs.value, I64)
            ri = self.builder.ptrtoint(rhs.value, I64)
            diff = self.builder.sub(li, ri)
            elem = self.sizeof_ctype(lhs.ctype.pointee, line)
            if elem > 1:
                diff = self.builder.binop("sdiv", diff, ConstantInt(I64, elem))
            return TypedValue(diff, ast.CLONG)
        if op in ("+", "-"):
            pointer, integer = (lhs, rhs) if lptr else (rhs, lhs)
            if not integer.ctype.is_integer():
                raise CompileError("pointer arithmetic needs an integer", line)
            idx = self._to_i64(integer, line)
            if op == "-":
                idx = self.builder.sub(ConstantInt(I64, 0), idx)
            return TypedValue(self.builder.gep(pointer.value, [idx]), pointer.ctype)
        raise CompileError(f"operator {op} not supported on pointers", line)

    def _pointer_as_value(self, tv: TypedValue, line: int) -> Value:
        if isinstance(tv.ctype, ast.CPointer):
            return tv.value
        # Integer 0 compares against pointers (NULL idiom).
        if isinstance(tv.value, ConstantInt) and tv.value.value == 0:
            return ConstantNull(ptr(I8))
        raise CompileError("comparison between pointer and non-pointer", line)

    def _gen_short_circuit(self, expr: ast.Binary) -> TypedValue:
        is_and = expr.op == "&&"
        rhs_bb = self.fn.add_block("sc.rhs")
        merge_bb = self.fn.add_block("sc.end")
        lhs = self._to_bool(self._gen_expr(expr.lhs), expr.line)
        lhs_bb = self.builder.block
        if is_and:
            self.builder.cond_br(lhs, rhs_bb, merge_bb)
        else:
            self.builder.cond_br(lhs, merge_bb, rhs_bb)
        self.builder.position_at_end(rhs_bb)
        rhs = self._to_bool(self._gen_expr(expr.rhs), expr.line)
        rhs_end_bb = self.builder.block
        self.builder.br(merge_bb)
        self.builder.position_at_end(merge_bb)
        phi = self.builder.phi(I1)
        phi.add_incoming(ConstantInt(I1, 0 if is_and else 1), lhs_bb)
        phi.add_incoming(rhs, rhs_end_bb)
        return TypedValue(self.builder.zext(phi, I32), ast.CINT)

    def _gen_conditional(self, expr: ast.Conditional) -> TypedValue:
        cond = self._to_bool(self._gen_expr(expr.cond), expr.line)
        then_bb = self.fn.add_block("cond.then")
        else_bb = self.fn.add_block("cond.else")
        merge_bb = self.fn.add_block("cond.end")
        self.builder.cond_br(cond, then_bb, else_bb)
        self.builder.position_at_end(then_bb)
        then_val = self._gen_expr(expr.then)
        then_end = self.builder.block
        self.builder.position_at_end(else_bb)
        else_val = self._gen_expr(expr.otherwise)
        else_end = self.builder.block
        # Unify types.
        target_ctype = then_val.ctype
        if then_val.ctype != else_val.ctype:
            if then_val.ctype.is_arithmetic() and else_val.ctype.is_arithmetic():
                target_ctype = self._common_arith_type(then_val.ctype, else_val.ctype)
            elif isinstance(else_val.ctype, ast.CPointer):
                target_ctype = else_val.ctype
        self.builder.position_at_end(then_end)
        then_val = self._convert(then_val, target_ctype, expr.line)
        self.builder.br(merge_bb)
        self.builder.position_at_end(else_end)
        else_val = self._convert(else_val, target_ctype, expr.line)
        self.builder.br(merge_bb)
        self.builder.position_at_end(merge_bb)
        phi = self.builder.phi(then_val.value.type)
        phi.add_incoming(then_val.value, then_end)
        phi.add_incoming(else_val.value, else_end)
        return TypedValue(phi, target_ctype)

    def _gen_assign(self, expr: ast.Assign) -> TypedValue:
        address, ctype = self._gen_lvalue(expr.target)
        if expr.op == "=":
            value = self._convert(self._gen_expr(expr.value), ctype, expr.line)
            self._emit_store(value.value, address, ctype)
            return value
        # Compound assignment: load, apply, store.
        op = expr.op[:-1]
        old = self._load_lvalue(address, ctype, expr.line)
        rhs = self._gen_expr(expr.value)
        result = self._apply_binary(op, old, rhs, expr.line)
        converted = self._convert(result, ctype, expr.line)
        self._emit_store(converted.value, address, ctype)
        return converted

    def _gen_call(self, expr: ast.CallExpr) -> TypedValue:
        # A call through a function-pointer *variable* shadows direct
        # functions, as in C's name lookup.
        slot = self._lookup_variable(expr.name)
        if slot is not None:
            if not (isinstance(slot.ctype, ast.CPointer)
                    and isinstance(slot.ctype.pointee, ast.CFunction)):
                raise CompileError(
                    f"'{expr.name}' is not callable", expr.line
                )
            signature = slot.ctype.pointee
            callee = self._emit_load(slot.value, slot.ctype)
            if len(expr.args) != len(signature.params):
                raise CompileError(
                    f"'{expr.name}' expects {len(signature.params)} "
                    f"arguments, got {len(expr.args)}", expr.line,
                )
            args = []
            for arg_expr, pctype in zip(expr.args, signature.params):
                arg = self._gen_expr(arg_expr)
                args.append(self._convert(arg, pctype, expr.line).value)
            call = self.builder.call(callee, args)
            return TypedValue(call, signature.ret)
        if expr.name in BUILTIN_SIGNATURES:
            fn = self._declare_builtin(expr.name, expr.line)
            ret_ctype, param_ctypes = BUILTIN_SIGNATURES[expr.name]
        else:
            fn = self.module.get_function(expr.name)
            if fn is None or expr.name not in self.function_sigs:
                raise CompileError(f"call to unknown function '{expr.name}'", expr.line)
            ret_ctype, param_ctypes = self.function_sigs[expr.name]
        if len(expr.args) != len(param_ctypes):
            raise CompileError(
                f"'{expr.name}' expects {len(param_ctypes)} arguments, "
                f"got {len(expr.args)}", expr.line,
            )
        args = []
        for arg_expr, pctype in zip(expr.args, param_ctypes):
            arg = self._gen_expr(arg_expr)
            args.append(self._convert(arg, pctype, expr.line).value)
        call = self.builder.call(fn, args)
        return TypedValue(call, ret_ctype)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def _to_bool(self, tv: TypedValue, line: int) -> Value:
        if isinstance(tv.ctype, ast.CPointer):
            as_int = self.builder.ptrtoint(tv.value, I64)
            return self.builder.icmp("ne", as_int, ConstantInt(I64, 0))
        if tv.ctype.is_float():
            # C truthiness is `x != 0` with != being an *unordered*
            # comparison: NaN is truthy.  `fcmp one` would make NaN
            # falsy (ordered comparisons are false on NaN).
            return self.builder.fcmp("une", tv.value, ConstantFloat(tv.value.type, 0.0))
        if tv.value.type == I1:
            return tv.value
        return self.builder.icmp("ne", tv.value, ConstantInt(tv.value.type, 0))

    def _to_i64(self, tv: TypedValue, line: int) -> Value:
        converted = self._convert(tv, ast.CLONG, line)
        return converted.value

    def _promote_arith(self, tv: TypedValue, line: int) -> TypedValue:
        """Integer promotion: char -> int."""
        if tv.ctype == ast.CCHAR:
            return self._convert(tv, ast.CINT, line)
        return tv

    def _common_arith_type(self, a: ast.CType, b: ast.CType) -> ast.CType:
        if a == ast.CDOUBLE or b == ast.CDOUBLE:
            return ast.CDOUBLE
        if a == ast.CFLOAT or b == ast.CFLOAT:
            return ast.CFLOAT
        assert isinstance(a, ast.CPrim) and isinstance(b, ast.CPrim)
        rank_a = _INT_RANK.get(a.name, 1)
        rank_b = _INT_RANK.get(b.name, 1)
        best = max(rank_a, rank_b, 1)  # promote char to int
        for name, rank in _INT_RANK.items():
            if rank == best:
                return ast.CPrim(name)
        raise AssertionError("unreachable")

    def _usual_conversions(
        self, lhs: TypedValue, rhs: TypedValue, line: int
    ) -> Tuple[TypedValue, TypedValue, ast.CType]:
        if not lhs.ctype.is_arithmetic() or not rhs.ctype.is_arithmetic():
            raise CompileError(
                f"invalid operands ({lhs.ctype} and {rhs.ctype})", line
            )
        common = self._common_arith_type(lhs.ctype, rhs.ctype)
        return (
            self._convert(lhs, common, line),
            self._convert(rhs, common, line),
            common,
        )

    def _convert(self, tv: TypedValue, target: ast.CType, line: int) -> TypedValue:
        if tv.ctype == target:
            return tv
        src, dst = tv.ctype, target
        value = tv.value
        # pointer conversions
        if isinstance(src, ast.CPointer) and isinstance(dst, ast.CPointer):
            target_ty = self.lower_type(dst, line)
            return TypedValue(self.builder.bitcast(value, target_ty), dst)
        if isinstance(dst, ast.CPointer) and src.is_integer():
            if isinstance(value, ConstantInt) and value.value == 0:
                return TypedValue(ConstantNull(self.lower_type(dst, line)), dst)
            extended = self._convert(tv, ast.CLONG, line)
            return TypedValue(
                self.builder.inttoptr(extended.value, self.lower_type(dst, line)), dst
            )
        if isinstance(src, ast.CPointer) and dst.is_integer():
            as_int = self.builder.ptrtoint(value, I64)
            return self._convert(TypedValue(as_int, ast.CLONG), dst, line)
        if not (src.is_arithmetic() and dst.is_arithmetic()):
            raise CompileError(f"cannot convert {src} to {dst}", line)
        # arithmetic conversions
        src_ty = self.lower_type(src, line)
        dst_ty = self.lower_type(dst, line)
        if src.is_float() and dst.is_float():
            op = "fpext" if size_of(dst_ty) > size_of(src_ty) else "fptrunc"
            if src_ty == dst_ty:
                return TypedValue(value, dst)
            return TypedValue(self.builder.cast(op, value, dst_ty), dst)
        if src.is_float() and dst.is_integer():
            return TypedValue(self.builder.cast("fptosi", value, dst_ty), dst)
        if src.is_integer() and dst.is_float():
            op = "uitofp" if src == ast.CUNSIGNED else "sitofp"
            return TypedValue(self.builder.cast(op, value, dst_ty), dst)
        # integer <-> integer
        assert isinstance(src_ty, IntType) and isinstance(dst_ty, IntType)
        if src_ty.bits == dst_ty.bits:
            return TypedValue(value, dst)
        if src_ty.bits > dst_ty.bits:
            return TypedValue(self.builder.trunc(value, dst_ty), dst)
        op = "zext" if src == ast.CUNSIGNED else "sext"
        return TypedValue(self.builder.cast(op, value, dst_ty), dst)

    def _explicit_cast(self, tv: TypedValue, target: ast.CType, line: int) -> TypedValue:
        if target.is_void():
            return TypedValue(tv.value, ast.CVOID)
        return self._convert(tv, target, line)


def compile_source(
    source: str,
    name: str = "tu",
    obfuscate_pointer_copies: bool = False,
) -> Module:
    """Compile MiniC source text into an IR module."""
    unit = parse(source, name)
    return CodeGenerator(unit, obfuscate_pointer_copies).generate()
