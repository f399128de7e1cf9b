"""Tests for module containers, linking, and the textual printer."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import (
    ArrayType,
    ConstantInt,
    ConstantZero,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Module,
    format_function,
    format_module,
    ptr,
)
from repro.ir.module import BasicBlock


class TestModule:
    def test_duplicate_function_rejected(self):
        mod = Module("t")
        mod.add_function("f", FunctionType(I32, []))
        with pytest.raises(ValueError):
            mod.add_function("f", FunctionType(I32, []))

    def test_duplicate_global_rejected(self):
        mod = Module("t")
        mod.add_global("g", I32)
        with pytest.raises(ValueError):
            mod.add_global("g", I32)

    def test_get_or_declare_idempotent(self):
        mod = Module("t")
        a = mod.get_or_declare_function("f", FunctionType(I32, []), {"readonly"})
        b = mod.get_or_declare_function("f", FunctionType(I32, []), {"noreturn"})
        assert a is b
        assert {"readonly", "noreturn"} <= a.attributes

    def test_struct_identity(self):
        mod = Module("t")
        s1 = mod.get_or_create_struct("node")
        s2 = mod.get_or_create_struct("node")
        assert s1 is s2


def _first_free(names, name):
    """``add_block``'s naming rule, from a scan of every block name:
    ``name`` if free, else the first free ``name.1``, ``name.2``..."""
    if name not in names:
        return name
    suffix = 1
    while f"{name}.{suffix}" in names:
        suffix += 1
    return f"{name}.{suffix}"


_BASES = ("x", "x.1", "y", "1")
_EDITS = st.lists(st.tuples(
    st.sampled_from(("add", "add", "remove", "merge", "rename", "insert")),
    st.integers(0, 63), st.sampled_from(_BASES + ("x.2", "x.3", "y.1"))),
    max_size=60)


class TestAddBlockNames:
    """``add_block`` keeps counts instead of rescanning the function,
    and must name blocks exactly as a rescan would, whatever edited
    ``blocks`` or block names directly in between."""

    def test_suffixes(self):
        fn = Module("t").add_function("f", FunctionType(I32, []))
        names = [fn.add_block("x").name for _ in range(4)]
        assert names == ["x", "x.1", "x.2", "x.3"]
        fn.remove_block(fn.blocks[1])
        assert fn.add_block("x").name == "x.1"
        fn.blocks[1].name = "y"               # was x.2
        assert fn.add_block("x").name == "x.2"
        assert fn.add_block("x").name == "x.4"

    @given(_EDITS)
    def test_matches_a_rescan_after_any_edits(self, edits):
        fn = Module("t").add_function("f", FunctionType(I32, []))
        for op, index, name in edits:
            blocks = fn.blocks
            if op == "add":
                expected = _first_free({b.name for b in blocks}, name)
                assert fn.add_block(name).name == expected
            elif op == "insert":
                # The parser and the inliner insert blocks themselves.
                blocks.insert(index % (len(blocks) + 1),
                              BasicBlock(name, fn))
            elif not blocks:
                continue
            elif op == "remove":
                fn.remove_block(blocks[index % len(blocks)])
            elif op == "merge":
                # SimplifyCFG drops merged blocks and clears their parent.
                gone = blocks[index % len(blocks)]
                blocks[:] = [b for b in blocks if b is not gone]
                gone.parent = None
            else:
                # The printer renames blocks in place.
                blocks[index % len(blocks)].name = name


class TestLinking:
    def _unit_with_definition(self):
        mod = Module("def")
        gv = mod.add_global("shared", ArrayType(I32, 10),
                            ConstantZero(ArrayType(I32, 10)))
        fn = mod.add_function("get", FunctionType(ptr(I32), []))
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.gep_index(gv, 0, 0))
        return mod

    def _unit_with_declaration(self):
        mod = Module("decl")
        gv = mod.add_global("shared", ArrayType(I32, 0), None, "external",
                            declared_without_size=True)
        fn = mod.add_function("use", FunctionType(I32, []))
        b = IRBuilder(fn.add_block("entry"))
        element = b.gep_index(gv, 0, 3)
        b.ret(b.load(element))
        return mod

    def test_declaration_resolves_to_definition(self):
        linked = Module.link(
            [self._unit_with_declaration(), self._unit_with_definition()]
        )
        gv = linked.get_global("shared")
        assert gv is not None
        assert not gv.is_declaration
        # Uses in the declaring unit now reference the definition.
        use = linked.get_function("use")
        gep = use.entry.instructions[0]
        assert gep.pointer is gv

    def test_function_declaration_resolution(self):
        a = Module("a")
        decl = a.add_function("callee", FunctionType(I32, []))
        caller = a.add_function("caller", FunctionType(I32, []))
        b = IRBuilder(caller.add_block("entry"))
        b.ret(b.call(decl, []))
        bmod = Module("b")
        impl = bmod.add_function("callee", FunctionType(I32, []))
        bb = IRBuilder(impl.add_block("entry"))
        bb.ret(bb.const_i32(42))
        linked = Module.link([a, bmod])
        call = linked.get_function("caller").entry.instructions[0]
        assert call.callee is linked.get_function("callee")
        assert not linked.get_function("callee").is_declaration

    def test_duplicate_definitions_rejected(self):
        def make():
            mod = Module("m")
            fn = mod.add_function("f", FunctionType(I32, []))
            b = IRBuilder(fn.add_block("entry"))
            b.ret(b.const_i32(0))
            return mod

        with pytest.raises(ValueError, match="duplicate"):
            Module.link([make(), make()])


class TestPrinter:
    def _sample(self):
        mod = Module("sample")
        fn = mod.add_function("f", FunctionType(I64, [I64]), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        body = fn.add_block("body")
        done = fn.add_block("done")
        cond = b.icmp("sgt", fn.args[0], b.const_i64(0))
        b.cond_br(cond, body, done)
        b.position_at_end(body)
        v = b.mul(fn.args[0], b.const_i64(2))
        b.br(done)
        b.position_at_end(done)
        phi = b.phi(I64)
        phi.add_incoming(b.const_i64(0), fn.entry)
        phi.add_incoming(v, body)
        b.ret(phi)
        return mod

    def test_module_prints_all_parts(self):
        text = format_module(self._sample())
        assert "define i64 @f(i64 %x)" in text
        assert "phi i64" in text
        assert "icmp sgt" in text
        assert "ret i64" in text

    def test_unique_names_assigned(self):
        mod = self._sample()
        fn = mod.get_function("f")
        for inst in fn.instructions():
            inst.name = "dup"
        text = format_function(fn)
        # every named instruction gets a unique suffix
        assert "%dup =" in text
        assert "%dup.1" in text

    def test_globals_printed(self):
        mod = Module("g")
        mod.add_global("arr", ArrayType(I32, 4), ConstantZero(ArrayType(I32, 4)))
        mod.add_global("ext", ArrayType(I32, 0), None, "external",
                       declared_without_size=True)
        text = format_module(mod)
        assert "@arr = internal global [4 x i32] zeroinitializer" in text
        assert "@ext = external nosize global [0 x i32]" in text
