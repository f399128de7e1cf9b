"""The declarative instance/target model of the campaign layer.

Modelled on instrumentation-infra's ``instance.py`` / ``target.py``
split: an :class:`Instance` is one *way of building and running* code
(mechanism x check-filter set x mode x VM engine x pipeline extension
point), a :class:`Target` is one *thing to run* (a bundled workload or
an inline MiniC source set), and a :class:`CampaignSpec` is the N x M
product of the two plus execution options.

Instances resolve their mechanism through the registry in
:mod:`repro.core.mechanism`, so a newly registered mechanism is
immediately campaign-able by name -- no campaign-layer edits.  An
instance's label is the display name of its configuration
(:func:`~repro.experiments.common.label_for`), so canonical instances
carry the experiment harness's ``CONFIG_LABELS`` names; cells share
cache entries with every table/figure experiment that measures the
same configuration, whatever it is called.

Expansion (:meth:`CampaignSpec.expand`) is deterministic and
order-independent: duplicate cells collapse, and the result is sorted
by (instance, target) name -- two processes expanding the same spec
always agree on the cell list, which is what makes sharding by content
hash coordination-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import InstrumentationConfig, MODES
from ..core.mechanism import get_mechanism, mechanism_names
from ..errors import ConfigError
from ..experiments.common import config_for, label_for
from ..experiments.runner import JobRequest
from ..vm.engines import DEFAULT_ENGINE, ENGINES
from ..workloads import Workload

#: Check-filter selections an instance may request.  ``ranges`` is
#: composed after ``dominance`` and ``hoist`` after both throughout
#: the repo, but the model does not force the pairing -- each filter is
#: an independent axis value.
KNOWN_FILTERS = ("dominance", "ranges", "hoist")

#: The configuration fields an instance's own axes set (mechanism,
#: mode, filters); ``config_overrides`` may set any other field.
_AXIS_FIELDS = ("approach", "mode") + tuple(f"opt_{f}" for f in KNOWN_FILTERS)

#: Named filter-axis shorthands used by spec files; each but
#: ``dominance`` is also the variant word of its configuration's label.
FILTER_SETS: Dict[str, Tuple[str, ...]] = {
    "unopt": (),
    "dominance": ("dominance",),
    "ranges": ("dominance", "ranges"),
    "hoist": ("dominance", "ranges", "hoist"),
}

def check_budget(value: object) -> int:
    """An instruction budget from a spec or a request: a positive
    integer, and a bool does not count as one."""
    if type(value) is not int or value <= 0:
        raise ConfigError(
            f"max_instructions must be a positive integer, got {value!r}")
    return value


def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown VM engine {engine!r} (expected one of "
            f"{', '.join(ENGINES)})")
    return engine


@dataclass(frozen=True)
class Instance:
    """One way of building and running a target.

    ``mechanism`` is a registry name (``softbound``, ``lowfat``, ...)
    or ``baseline``/``noop`` for the uninstrumented reference.
    ``filters`` selects check-elimination filters, ``mode`` is the
    instrumentation mode (``full`` or ``geninvariants``), ``engine``
    the VM execution tier, and ``extension_point`` where the
    instrumentation runs in the pipeline.  ``config_overrides`` are
    extra :class:`InstrumentationConfig` fields (the ablation knobs),
    checked when the instance is built.
    """

    mechanism: str
    filters: Tuple[str, ...] = ()
    mode: str = "full"
    engine: str = DEFAULT_ENGINE
    extension_point: str = "VectorizerStart"
    config_overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # Normalize: frozen dataclass, so go through object.__setattr__.
        filters = tuple(dict.fromkeys(self.filters))
        unknown = [f for f in filters if f not in KNOWN_FILTERS]
        if unknown:
            raise ConfigError(
                f"unknown check filter(s) {', '.join(unknown)} "
                f"(known: {', '.join(KNOWN_FILTERS)})")
        if self.mode not in MODES:
            raise ConfigError(f"unknown instrumentation mode {self.mode!r}")
        _check_engine(self.engine)
        if not self.is_baseline:
            get_mechanism(self.mechanism)  # raises ConfigError if unknown
        defaults = {f.name: f.default for f in fields(InstrumentationConfig)}
        for key, value in self.config_overrides.items():
            if key in _AXIS_FIELDS:
                raise ConfigError(
                    f"instance config key {key!r} is set by the "
                    "instance's mechanism, mode or filters")
            if key not in defaults:
                raise ConfigError(f"unknown instance config key {key!r}")
            if type(value) is not type(defaults[key]):
                raise ConfigError(
                    f"instance config key {key!r} must be "
                    f"{type(defaults[key]).__name__}, got {value!r}")
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "config_overrides",
                           dict(self.config_overrides))

    # -- identity ------------------------------------------------------
    @property
    def is_baseline(self) -> bool:
        return self.mechanism in ("baseline", "noop")

    @property
    def label(self) -> str:
        """The display name of this instance's configuration."""
        return label_for(self.config())

    @property
    def name(self) -> str:
        """Unique instance name: label plus the execution axes."""
        name = f"{self.label}@{self.engine}"
        if self.extension_point != "VectorizerStart":
            name += f"@{self.extension_point}"
        return name

    # -- resolution ----------------------------------------------------
    def config(self) -> Optional[InstrumentationConfig]:
        """The resolved configuration (None for the baseline)."""
        if self.is_baseline:
            return None
        return InstrumentationConfig(
            approach=self.mechanism,
            mode=self.mode,
            opt_dominance="dominance" in self.filters,
            opt_ranges="ranges" in self.filters,
            opt_hoist="hoist" in self.filters,
            **self.config_overrides,
        )

    def request(self, target: "Target",
                max_instructions: Optional[int] = None,
                validate_output: bool = True) -> JobRequest:
        """The :class:`JobRequest` for (this instance, ``target``)."""
        return JobRequest(
            workload=target.workload(),
            config=self.config(),
            extension_point=self.extension_point,
            max_instructions=max_instructions,
            validate_output=validate_output and not self.is_baseline,
            engine=self.engine,
        )

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_label(cls, label: str, engine: str = DEFAULT_ENGINE,
                   extension_point: str = "VectorizerStart") -> "Instance":
        """The instance of the configuration ``label`` names."""
        config = config_for(label)
        if config is None:
            return cls("baseline", engine=engine,
                       extension_point=extension_point)
        return cls(
            config.approach,
            filters=tuple(f for f in KNOWN_FILTERS
                          if getattr(config, f"opt_{f}")),
            mode=config.mode, engine=engine,
            extension_point=extension_point,
            config_overrides={
                f.name: getattr(config, f.name)
                for f in fields(config)
                if f.name not in _AXIS_FIELDS
                and getattr(config, f.name) != f.default})

    @classmethod
    def parse(cls, doc: Mapping[str, object]) -> "Instance":
        """Build an instance from a spec/serve JSON object.

        Accepts either ``{"label": "softbound-ranges", ...}`` or the
        explicit ``{"mechanism": ..., "filters": ..., "mode": ...}``
        form; unknown keys are rejected so typos fail loudly."""
        doc = dict(doc)
        engine = _check_engine(str(doc.pop("engine", DEFAULT_ENGINE)))
        extension_point = str(doc.pop("extension_point", "VectorizerStart"))
        if "label" in doc:
            label = str(doc.pop("label"))
            if doc:
                raise ConfigError(
                    f"instance with 'label' cannot also set "
                    f"{', '.join(sorted(doc))}")
            return cls.from_label(label, engine=engine,
                                  extension_point=extension_point)
        try:
            mechanism = str(doc.pop("mechanism"))
        except KeyError:
            raise ConfigError(
                "instance needs a 'mechanism' (or a 'label')") from None
        filters = doc.pop("filters", ())
        if isinstance(filters, str):
            filters = FILTER_SETS.get(filters, (filters,))
        mode = str(doc.pop("mode", "full"))
        overrides = doc.pop("config", {})
        if doc:
            raise ConfigError(
                f"unknown instance key(s): {', '.join(sorted(doc))}")
        if not isinstance(overrides, Mapping):
            raise ConfigError("instance 'config' must be a table/object")
        return cls(mechanism, filters=tuple(filters), mode=mode,
                   engine=engine, extension_point=extension_point,
                   config_overrides=dict(overrides))


@dataclass(frozen=True)
class Target:
    """One thing to run: a bundled workload or inline MiniC sources."""

    name: str
    #: None -> ``name`` is a bundled workload; otherwise the MiniC
    #: translation units to compile.
    sources: Optional[Mapping[str, str]] = None

    def __post_init__(self):
        if self.sources is not None:
            object.__setattr__(self, "sources", dict(self.sources))
            if not self.sources:
                raise ConfigError(f"target {self.name!r} has no sources")

    def workload(self) -> Workload:
        if self.sources is not None:
            return Workload(name=self.name, sources=dict(self.sources),
                            description="campaign source target")
        from ..workloads import all_names, get

        if self.name not in all_names():
            raise ConfigError(
                f"unknown workload {self.name!r}; choose from "
                f"{', '.join(all_names())}")
        return get(self.name)


@dataclass(frozen=True)
class CampaignCell:
    """One (instance, target) cell of an expanded campaign."""

    instance: Instance
    target: Target

    @property
    def id(self) -> str:
        return f"{self.instance.name}|{self.target.name}"


@dataclass
class CampaignSpec:
    """A declarative N x M campaign: instances x targets + options."""

    name: str
    instances: Sequence[Instance]
    targets: Sequence[Target]
    max_instructions: Optional[int] = None
    validate_output: bool = True

    def __post_init__(self):
        if not self.instances:
            raise ConfigError(f"campaign {self.name!r} has no instances")
        if not self.targets:
            raise ConfigError(f"campaign {self.name!r} has no targets")

    def expand(self) -> List[CampaignCell]:
        """The deduplicated, deterministically ordered cell list.

        Independent of the declaration order of instances and targets:
        cells sort by (instance name, target name) and duplicates
        (e.g. a baseline instance reached through several filter-axis
        values) collapse to one cell."""
        cells: Dict[str, CampaignCell] = {}
        for instance in self.instances:
            for target in self.targets:
                cell = CampaignCell(instance, target)
                cells.setdefault(cell.id, cell)
        return [cells[key] for key in sorted(cells)]


def standard_instances(
    labels: Iterable[str],
    engines: Iterable[str] = (DEFAULT_ENGINE,),
) -> List[Instance]:
    """Canonical instances for a labels x engines product (the shape
    both the fuzz oracle's matrices and the bundled campaign specs
    use)."""
    return [Instance.from_label(label, engine=engine)
            for engine in engines for label in labels]


def axes_instances(
    mechanisms: Iterable[str],
    filters: Iterable[str] = ("dominance",),
    engines: Iterable[str] = (DEFAULT_ENGINE,),
    modes: Iterable[str] = ("full",),
    extension_points: Iterable[str] = ("VectorizerStart",),
) -> List[Instance]:
    """Expand a mechanisms x filters x engines (x modes x extension
    points) axis product into instances.

    The baseline collapses across the filter/mode axes (an
    uninstrumented run has no checks to filter), so a product over
    ``{baseline, softbound, lowfat}`` yields one baseline per engine,
    not one per filter value.  Duplicates are removed; order follows
    the axes."""
    instances: List[Instance] = []
    seen = set()
    for engine in engines:
        for extension_point in extension_points:
            for mechanism in mechanisms:
                for mode in modes:
                    for filter_name in filters:
                        try:
                            filter_set = FILTER_SETS[filter_name]
                        except KeyError:
                            raise ConfigError(
                                f"unknown filter-axis value "
                                f"{filter_name!r} (known: "
                                f"{', '.join(FILTER_SETS)})") from None
                        if mechanism in ("baseline", "noop"):
                            instance = Instance(
                                "baseline", engine=engine,
                                extension_point=extension_point)
                        else:
                            instance = Instance(
                                mechanism, filters=filter_set, mode=mode,
                                engine=engine,
                                extension_point=extension_point)
                        if instance.name not in seen:
                            seen.add(instance.name)
                            instances.append(instance)
    return instances


def all_mechanism_names() -> Tuple[str, ...]:
    """Registry passthrough (so campaign users need one import)."""
    return mechanism_names()
