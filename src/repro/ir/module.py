"""Containers of the mini-IR: basic blocks, functions, globals, modules.

A :class:`Module` corresponds to one *translation unit*.  Several
modules can be linked (``Module.link``) before or after instrumentation,
which lets the benchmark harness reproduce the paper's separate
compilation setup (Section 4.3: size-less extern array declarations are
only a problem when SoftBound instruments translation units separately).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .instructions import Instruction, Phi
from .types import ArrayType, FunctionType, PointerType, StructType, Type
from .values import Argument, Constant, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        # Blocks have no first-class type; use a placeholder struct type
        # that is never queried.
        super().__init__(StructType("__label__"), name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- instruction management ---------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        assert inst.parent is None, "instruction already has a parent"
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        assert inst.parent is None, "instruction already has a parent"
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor), inst)

    def insert_after(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor) + 1, inst)

    def index_of(self, inst: Instruction) -> int:
        for i, candidate in enumerate(self.instructions):
            if candidate is inst:
                return i
        raise ValueError(f"instruction not in block {self.name}")

    def remove_instruction(self, inst: Instruction) -> None:
        del self.instructions[self.index_of(inst)]
        inst.parent = None

    # -- structure ------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(term.successors) if term is not None else []

    @property
    def predecessors(self) -> List["BasicBlock"]:
        """Blocks branching here, each once, in function order.

        Costs O(blocks): it rescans the whole function.  Code that
        needs the predecessors of many blocks builds
        ``analysis.cfg.predecessor_map`` once instead."""
        assert self.parent is not None
        return [b for b in self.parent.blocks if self in b.successors]

    def phis(self) -> List[Phi]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def __iter__(self):
        return iter(list(self.instructions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(Value):
    """A function definition or declaration.

    ``native`` functions are implemented inside the VM (the runtime
    library and the C standard library subset); they have no blocks.
    ``attributes`` carries optimizer-relevant facts (``readonly``,
    ``readnone``, ``noreturn``) and instrumentation markers.
    """

    def __init__(
        self,
        name: str,
        fnty: FunctionType,
        module: Optional["Module"] = None,
        arg_names: Optional[Sequence[str]] = None,
    ):
        # As in LLVM, the function *value* has pointer-to-function type,
        # so functions can be stored into function-pointer slots and
        # passed as arguments.
        super().__init__(PointerType(fnty), name)
        self.module = module
        self.blocks: List[BasicBlock] = []
        self.attributes: Set[str] = set()
        self.native = False
        names = list(arg_names) if arg_names else [f"arg{i}" for i in range(len(fnty.params))]
        self.args: List[Argument] = [
            Argument(ty, names[i], i, self) for i, ty in enumerate(fnty.params)
        ]
        self._name_counter = itertools.count()

    @property
    def fnty(self) -> FunctionType:
        ty = self.type
        assert isinstance(ty, PointerType) and isinstance(ty.pointee, FunctionType)
        return ty.pointee

    @property
    def return_type(self) -> Type:
        return self.fnty.ret

    @property
    def is_declaration(self) -> bool:
        return not self.blocks and not self.native

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function @{self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        # Uniquify within the function: check-site identifiers
        # (``fn:block:index``) and the per-site profile/verdict joins
        # rely on block names not colliding (e.g. one ``for.body`` per
        # loop emitted by the frontend).
        if not name:
            name = self.next_name("bb")
        else:
            used = {b.name for b in self.blocks}
            if name in used:
                suffix = 1
                while f"{name}.{suffix}" in used:
                    suffix += 1
                name = f"{name}.{suffix}"
        block = BasicBlock(name, self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def next_name(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self._name_counter)}"

    def instructions(self) -> Iterable[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __str__(self) -> str:
        from .printer import format_function

        return format_function(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "native" if self.native else ("decl" if self.is_declaration else "def")
        return f"<Function @{self.name} [{kind}]>"


class GlobalVariable(Value):
    """A module-level variable.

    ``declared_without_size`` models C's ``extern int arr[];`` -- a
    declaration whose defining translation unit knows the size but this
    one does not (paper Section 4.3).  ``linkage`` distinguishes
    definitions, external declarations, and ``common`` symbols (which
    Low-Fat Pointers must convert to weak linkage, cf. the artifact flag
    ``-mi-lf-transform-common-to-weak-linkage``).
    """

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        linkage: str = "internal",
        declared_without_size: bool = False,
    ):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.linkage = linkage
        self.declared_without_size = declared_without_size
        self.module: Optional["Module"] = None

    @property
    def is_declaration(self) -> bool:
        return self.initializer is None and self.linkage == "external"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GlobalVariable @{self.name}: {self.value_type}>"


class Module:
    """One translation unit of IR."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.struct_types: Dict[str, StructType] = {}

    # -- functions -------------------------------------------------------
    def add_function(
        self,
        name: str,
        fnty: FunctionType,
        arg_names: Optional[Sequence[str]] = None,
    ) -> Function:
        if name in self.functions:
            raise ValueError(f"function @{name} already exists")
        fn = Function(name, fnty, self, arg_names)
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def get_or_declare_function(
        self, name: str, fnty: FunctionType, attributes: Iterable[str] = ()
    ) -> Function:
        fn = self.functions.get(name)
        if fn is None:
            fn = self.add_function(name, fnty)
        fn.attributes.update(attributes)
        return fn

    def remove_function(self, name: str) -> None:
        del self.functions[name]

    # -- globals ---------------------------------------------------------
    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        linkage: str = "internal",
        declared_without_size: bool = False,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"global @{name} already exists")
        gv = GlobalVariable(name, value_type, initializer, linkage, declared_without_size)
        gv.module = self
        self.globals[name] = gv
        return gv

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        return self.globals.get(name)

    # -- struct types ------------------------------------------------------
    def get_or_create_struct(self, name: str) -> StructType:
        if name not in self.struct_types:
            self.struct_types[name] = StructType(name)
        return self.struct_types[name]

    # -- linking ----------------------------------------------------------
    @staticmethod
    def link(modules: Sequence["Module"], name: str = "linked") -> "Module":
        """Link translation units into one module.

        Declarations are resolved against definitions from other units.
        Size-less extern array declarations are resolved to the defining
        global (the *linker* knows the size -- this is why linking before
        instrumentation avoids SoftBound's size-less-array problem).
        """
        linked = Module(name)
        # First pass: definitions win over declarations.
        for mod in modules:
            for sname, sty in mod.struct_types.items():
                if sname not in linked.struct_types:
                    linked.struct_types[sname] = sty
            for gv in mod.globals.values():
                existing = linked.globals.get(gv.name)
                if existing is None:
                    linked.globals[gv.name] = gv
                elif existing.is_declaration and not gv.is_declaration:
                    existing.replace_all_uses_with(gv)
                    linked.globals[gv.name] = gv
                elif not existing.is_declaration and gv.is_declaration:
                    gv.replace_all_uses_with(existing)
                elif existing.is_declaration and gv.is_declaration:
                    gv.replace_all_uses_with(existing)
                else:
                    raise ValueError(f"duplicate global definition @{gv.name}")
            for fn in mod.functions.values():
                existing = linked.functions.get(fn.name)
                if existing is None:
                    linked.functions[fn.name] = fn
                elif existing.is_declaration and not fn.is_declaration:
                    existing.replace_all_uses_with(fn)
                    linked.functions[fn.name] = fn
                elif not existing.is_declaration and fn.is_declaration:
                    fn.replace_all_uses_with(existing)
                elif existing.is_declaration and fn.is_declaration:
                    fn.replace_all_uses_with(existing)
                elif existing.native or fn.native:
                    # Native runtime functions may be registered in
                    # several units; keep one.
                    continue
                else:
                    raise ValueError(f"duplicate function definition @{fn.name}")
        for fn in linked.functions.values():
            fn.module = linked
        for gv in linked.globals.values():
            gv.module = linked
        return linked

    def __str__(self) -> str:
        from .printer import format_module

        return format_module(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name}: {len(self.functions)} functions>"
