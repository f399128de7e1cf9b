"""Instrumentation mechanism base class: the lowering framework.

A *mechanism* (paper Section 3) lowers the approach-independent
ITargets into concrete code.  The approach-independent half of that
lowering lives here, once:

* **runtime declaration** -- each mechanism lists its runtime in a
  ``runtime`` table; ``prepare_module`` declares it and sends every
  native callee through the mechanism's ``redirect`` hook;
* **check placement** -- every dereference check becomes a call of the
  mechanism's ``check_native`` with ``[pointer, width, *witness]``;
* **witness propagation** -- a witness is a tuple of ``i64`` values,
  one per name in ``witness_parts``.  GEPs and pointer bitcasts
  inherit their source's witness, phis and selects get one companion
  phi or select per part, and every other pointer asks the mechanism's
  ``source_witness``;
* **site provenance** -- the GEP/bitcast chain of a checked pointer is
  stripped once; arguments, phis/selects, code pointers and null are
  classified here, every other root by ``classify_source``.

A mechanism supplies only what is its own: its runtime, its witness
sources, its provenance rules and its invariants
(``lower_invariant``).  Every inserted instruction is marked with
``meta["mi"]`` so gathering never re-instruments inserted code, and
check calls carry ``meta["mi_site"]`` so the VM attributes dynamic
check statistics to source-level sites (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from ..ir.builder import IRBuilder
from ..ir.instructions import Alloca, Call, Cast, GEP, Instruction, Phi, Select
from ..ir.module import Function, Module
from ..ir.types import FunctionType, I64, IntType, PointerType, size_of
from ..ir.values import Argument, ConstantInt, ConstantNull, UndefValue, Value
from .config import InstrumentationConfig
from .itarget import CheckSiteInfo, ITarget, TargetKind

#: A pointer's bounds witness: one ``i64`` value per witness part.
Witness = Tuple[Value, ...]

#: name -> (signature, attributes) of a runtime function.
RuntimeTable = Dict[str, Tuple[FunctionType, frozenset]]


def alloca_bytes(builder: IRBuilder, alloca: Alloca) -> Value:
    """The byte size of ``alloca`` as an ``i64``, built at ``builder``."""
    size: Value = ConstantInt(I64, size_of(alloca.allocated_type))
    if alloca.count is not None:
        count = alloca.count
        if isinstance(count.type, IntType) and count.type.bits < 64:
            count = builder.sext(count, I64)
        size = builder.mul(size, count)
    return size


class InstrumentationMechanism:
    """Base class for approach-specific target lowering."""

    name = "<mechanism>"
    #: The runtime functions the mechanism's code calls, declared in
    #: this order.  ``readnone``/``readonly`` drive the optimizer
    #: (metadata lookups are CSE-able and DCE-able); checks are
    #: ``mi_check``/``may_abort`` with no memory attributes, so the
    #: optimizer removes one only when an identical check dominates it.
    runtime: RuntimeTable = {}
    #: The runtime function a dereference check calls with
    #: ``[pointer as i64, width, *witness]``.
    check_native = ""
    #: One name per witness part, used to name companion phis.
    witness_parts: Tuple[str, ...] = ()

    def __init__(self, config: InstrumentationConfig):
        self.config = config
        self.module: Optional[Module] = None
        #: The function being lowered.
        self.fn: Optional[Function] = None
        #: site id -> static provenance, filled while lowering checks;
        #: joined with RuntimeStats.per_site by ``repro profile``.
        self.site_infos: Dict[str, CheckSiteInfo] = {}
        self._witnesses: Dict[int, Witness] = {}

    # -- module/function hooks (orchestrated by instrument.py) -----------
    def prepare_module(self, module: Module) -> None:
        """Declare the runtime and redirect native callees."""
        self.module = module
        for name, (fnty, attrs) in self.runtime.items():
            module.get_or_declare_function(name, fnty, attrs).native = True
        for fn in list(module.functions.values()):
            for inst in list(fn.instructions()):
                if not isinstance(inst, Call):
                    continue
                callee = inst.callee_function
                if callee is None or not callee.native:
                    continue
                replacement = self.redirect(callee)
                if replacement is not None:
                    inst.set_operand(0, replacement)

    def redirect(self, callee: Function) -> Optional[Function]:
        """The native function a call of ``callee`` should call
        instead, or None to keep it."""
        return None

    def prepare_function(self, fn: Function) -> None:
        """Per-function rewriting that must precede target gathering
        (e.g. Low-Fat's alloca replacement)."""

    def instrument_function(self, fn: Function, targets: List[ITarget]) -> None:
        """Lower one function's targets: dereference checks here, every
        other target through ``lower_invariant``."""
        self.fn = fn
        self._witnesses = {}
        for target in targets:
            if target.kind == TargetKind.CHECK_DEREF:
                if self.config.insert_deref_checks:
                    self._place_check(target)
            else:
                self.lower_invariant(target)

    # -- what a mechanism supplies ---------------------------------------
    def lower_invariant(self, target: ITarget) -> None:
        """Lower a non-check target (metadata propagation or escape
        checks)."""
        raise NotImplementedError

    def source_witness(self, pointer: Value) -> Witness:
        """The witness of a pointer that is no GEP, pointer bitcast,
        phi or select."""
        raise NotImplementedError

    def classify_source(self, root: Value) -> Tuple[str, str]:
        """``(source, wide_hint)`` of a checked pointer's root that is
        no argument, phi, select, function or null."""
        return ("unknown", "unknown-producer")

    # -- check placement ---------------------------------------------------
    def _place_check(self, target: ITarget) -> None:
        witness = self.witness(target.pointer)
        builder = self.marked_builder(self.fn)
        builder.position_before(target.instruction)
        p64 = builder.ptrtoint(target.pointer, I64)
        # Hoisted checks cover a symbolic extent (the loop's accessed
        # byte count, computed in the preheader) instead of a constant.
        width = target.width_value or ConstantInt(I64, target.width)
        check = builder.call(self.module.get_function(self.check_native),
                             [p64, width, *witness])
        self.record_site(check, target, target.pointer, "deref")

    def record_site(self, check: Call, target: ITarget, pointer: Value,
                    kind: str) -> None:
        """Tag ``check`` with its site and record the site's static
        provenance."""
        check.meta["mi_site"] = target.site
        source, wide_hint = self._provenance(pointer)
        self.site_infos[target.site] = CheckSiteInfo(
            site=target.site,
            function=self.fn.name,
            kind=kind,
            mechanism=self.name,
            line=target.instruction.meta.get("line"),
            source=source,
            wide_hint=wide_hint,
        )

    def _provenance(self, pointer: Value) -> Tuple[str, str]:
        """Static provenance of a checked pointer: what produced its
        root and whether the root's witness is statically known to be
        (possibly) wide -- the measured counterpart of Table 2's
        attribution column."""
        seen = set()
        while id(pointer) not in seen:
            seen.add(id(pointer))
            if isinstance(pointer, GEP):
                pointer = pointer.pointer
            elif _is_pointer_bitcast(pointer):
                pointer = pointer.value
            else:
                break
        if isinstance(pointer, Argument):
            return ("argument", "")
        if isinstance(pointer, (Phi, Select)):
            return ("phi-or-select", "")
        if isinstance(pointer, Function):
            return ("function-pointer", "function-pointer")
        if isinstance(pointer, (ConstantNull, UndefValue)):
            return ("null", "")
        return self.classify_source(pointer)

    # -- witness propagation -----------------------------------------------
    def witness(self, pointer: Value) -> Witness:
        """``pointer``'s witness, materialized once per function."""
        key = id(pointer)
        cached = self._witnesses.get(key)
        if cached is not None:
            return cached
        # Bounds-preserving derivations inherit the source's witness.
        if isinstance(pointer, GEP):
            witness = self.witness(pointer.pointer)
        elif _is_pointer_bitcast(pointer):
            witness = self.witness(pointer.value)
        elif isinstance(pointer, Phi):
            witness = self._phi_witness(pointer)
        elif isinstance(pointer, Select):
            witness = self._select_witness(pointer)
        else:
            witness = self.source_witness(pointer)
        self._witnesses[key] = witness
        return witness

    def preset_witness(self, pointer: Value,
                       make: Callable[[], Witness]) -> None:
        """Memoize ``make()`` as ``pointer``'s witness unless it has
        one already."""
        if id(pointer) not in self._witnesses:
            self._witnesses[id(pointer)] = make()

    def _phi_witness(self, phi: Phi) -> Witness:
        parts = tuple(Phi(I64, self.fn.next_name(name))
                      for name in self.witness_parts)
        block = phi.parent
        assert block is not None
        for part in reversed(parts):
            part.meta["mi"] = True
            block.insert(0, part)
        # Memoized before the incoming values are visited, so witness
        # cycles through loop phis close.
        self._witnesses[id(phi)] = parts
        for value, pred in phi.incoming:
            for part, incoming in zip(parts, self.witness(value)):
                part.add_incoming(incoming, pred)
        return parts

    def _select_witness(self, select: Select) -> Witness:
        true_w = self.witness(select.true_value)
        false_w = self.witness(select.false_value)
        builder = self.marked_builder(self.fn)
        builder.position_after(select)
        return tuple(builder.select(select.condition, t, f)
                     for t, f in zip(true_w, false_w))

    # -- shared helpers ------------------------------------------------------
    def marked_builder(self, fn: Function) -> "MarkingBuilder":
        return MarkingBuilder(fn)


def _is_pointer_bitcast(value: Value) -> bool:
    return (isinstance(value, Cast) and value.opcode == "bitcast"
            and isinstance(value.value.type, PointerType))


class MarkingBuilder(IRBuilder):
    """An IRBuilder that tags every inserted instruction with
    ``meta["mi"]``."""

    def __init__(self, fn: Function):
        super().__init__()
        self._fn = fn

    def insert(self, inst: Instruction) -> Instruction:
        inst.meta["mi"] = True
        return super().insert(inst)


# ----------------------------------------------------------------------
# The mechanism registry.
#
# Every instrumentation approach is described once, here, by a
# :class:`MechanismRegistration`: how to build the compile-time
# mechanism from a configuration, which ``-mi-*`` flags belong to it,
# and how to build the VM runtime that its instrumented code calls
# into.  ``InstrumentationConfig.from_flags``, the pass orchestrator in
# :mod:`.instrument`, :func:`repro.driver.make_vm`, and the campaign
# layer's instance resolution all consult the registry instead of
# hardcoding approach names -- adding a mechanism (MESH, CGuard, ...) is
# one ``register_mechanism`` call in its module, with no edits to core
# dispatch, flag parsing, the CLI, or the experiment modules.

#: A flag handler mutates the ``InstrumentationConfig`` kwargs dict
#: that ``from_flags`` is accumulating.
FlagHandler = Callable[[Dict[str, object]], None]


def set_flag(key: str, value: object = True) -> FlagHandler:
    """The common case: a boolean ``-mi-*`` switch setting one field."""
    def handler(kwargs: Dict[str, object]) -> None:
        kwargs[key] = value
    return handler


@dataclass(frozen=True)
class MechanismRegistration:
    """One registered instrumentation approach."""

    name: str
    #: config -> mechanism instance (None for approaches that insert
    #: no instrumentation, i.e. noop).
    factory: Callable[[InstrumentationConfig],
                      Optional["InstrumentationMechanism"]]
    #: exact ``-mi-*`` flag spelling -> kwargs mutation.
    flag_handlers: Mapping[str, FlagHandler] = field(default_factory=dict)
    #: (config, lf_region_capacity) -> runtime object with
    #: ``.install(vm)``, or None when the approach needs no runtime.
    runtime_factory: Optional[Callable[..., object]] = None
    description: str = ""


_REGISTRY: Dict[str, MechanismRegistration] = {}
_BUILTINS_LOADED = False


def register_mechanism(
    name: str,
    factory: Callable[[InstrumentationConfig],
                      Optional["InstrumentationMechanism"]],
    flag_handlers: Optional[Mapping[str, FlagHandler]] = None,
    runtime_factory: Optional[Callable[..., object]] = None,
    description: str = "",
) -> MechanismRegistration:
    """Register an instrumentation approach under ``name``.

    Mechanisms self-register at import time (see the bottom of
    ``sb_mechanism.py`` / ``lf_mechanism.py``); re-registering a name
    is an error so two mechanisms can never shadow each other."""
    if name in _REGISTRY:
        raise ValueError(f"mechanism {name!r} is already registered")
    registration = MechanismRegistration(
        name=name,
        factory=factory,
        flag_handlers=dict(flag_handlers or {}),
        runtime_factory=runtime_factory,
        description=description,
    )
    _REGISTRY[name] = registration
    return registration


def _ensure_builtins() -> None:
    """Import the built-in mechanism modules for their registration
    side effect (mirrors the workload registry's lazy loading)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from . import lf_mechanism, sb_mechanism  # noqa: F401


def mechanism_names() -> Tuple[str, ...]:
    """All registered approach names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_mechanism(name: str) -> MechanismRegistration:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown approach {name!r} (registered mechanisms: "
            f"{', '.join(sorted(_REGISTRY))})") from None


def create_mechanism(
    config: InstrumentationConfig,
) -> Optional["InstrumentationMechanism"]:
    """Build the mechanism for ``config.approach`` (None for noop)."""
    return get_mechanism(config.approach).factory(config)


def handle_mechanism_flag(flag: str, kwargs: Dict[str, object]) -> bool:
    """Offer ``flag`` to every registered mechanism's handlers.

    Returns True when a handler claimed the flag (after mutating
    ``kwargs``); ``from_flags`` raises its ConfigError otherwise."""
    _ensure_builtins()
    for registration in _REGISTRY.values():
        handler = registration.flag_handlers.get(flag)
        if handler is not None:
            handler(kwargs)
            return True
    return False


def install_runtime(vm, config: InstrumentationConfig,
                    lf_region_capacity: Optional[int] = None) -> None:
    """Install the approach's VM runtime (no-op for runtimeless
    approaches)."""
    registration = get_mechanism(config.approach)
    if registration.runtime_factory is None:
        return
    runtime = registration.runtime_factory(
        config, lf_region_capacity=lf_region_capacity)
    runtime.install(vm)


# The noop approach is the registry's trivial member: no mechanism
# object, no flags, no runtime.
register_mechanism(
    "noop",
    factory=lambda config: None,
    description="uninstrumented baseline",
)
