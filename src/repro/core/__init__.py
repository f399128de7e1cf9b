"""MemInstrument core: the instrumentation framework (paper Section 3)."""

from .config import InstrumentationConfig
from .filters import (
    check_verdicts,
    dominance_filter,
    hoist_filter,
    range_filter,
)
from .gather import gather_function_targets
from .instrument import MemInstrumentPass, instrument_module
from .itarget import ITarget, TargetKind, TargetStatistics
from .lf_mechanism import LowFatMechanism
from .mechanism import (
    InstrumentationMechanism,
    MechanismRegistration,
    create_mechanism,
    get_mechanism,
    install_runtime,
    mechanism_names,
    register_mechanism,
)
from .sb_mechanism import SoftBoundMechanism

__all__ = [
    "ITarget",
    "InstrumentationConfig",
    "InstrumentationMechanism",
    "LowFatMechanism",
    "MechanismRegistration",
    "MemInstrumentPass",
    "SoftBoundMechanism",
    "TargetKind",
    "TargetStatistics",
    "check_verdicts",
    "create_mechanism",
    "dominance_filter",
    "gather_function_targets",
    "hoist_filter",
    "get_mechanism",
    "install_runtime",
    "mechanism_names",
    "range_filter",
    "register_mechanism",
    "instrument_module",
]
