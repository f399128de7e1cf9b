"""Canonical registry of VM execution engines.

Every consumer of the engine axis -- the :class:`VirtualMachine`
constructor, CLI argument builders, the campaign instance model and
the differential-fuzzing matrix -- derives its choices and its default
from here, so adding an engine is a one-line change here plus the
engine implementation itself.

All engines are bound by the same contract: field-for-field identical
:class:`~repro.vm.stats.RuntimeStats` on every program, enforced by
``tests/vm/test_engine_differential.py`` and the fuzz oracle.
"""

#: Selectable engines: the generated-source tier and the reference
#: tree-walker it is checked against.
ENGINES = ("codegen", "interp")

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "codegen"

#: One-line help per engine, used by CLI ``--engine`` builders.
ENGINE_DESCRIPTIONS = {
    "codegen": "generated-Python-source tier (default)",
    "interp": "reference tree-walking interpreter (slow)",
}
