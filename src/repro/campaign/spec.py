"""Campaign spec files: TOML or JSON -> :class:`CampaignSpec`.

A spec declares instances either explicitly or as an axis product,
and targets as bundled workload names or inline sources::

    name = "full-report"

    [axes]                      # instances = product of the axes
    mechanisms = ["baseline", "softbound", "lowfat"]
    filters    = ["unopt", "dominance", "ranges"]
    engines    = ["codegen", "interp"]

    [[instance]]                # ...plus explicit extras (optional)
    label = "softbound-meta"

    [targets]
    workloads = "all"           # or ["164gzip", "429mcf", ...]

    [[target]]                  # inline-source targets (optional)
    name = "smoke"
    source = "int main() { print_i64(42); return 0; }"

The same schema parses from JSON (``.json``); the axes/instance/target
keys are identical.  Everything is validated up front with
:class:`~repro.errors.ConfigError` -- a typo in a mechanism, filter,
engine, or workload name fails before anything runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Union

from ..errors import ConfigError
from .model import (CampaignSpec, Instance, Target, axes_instances,
                    check_budget)

try:  # Python 3.11+; the spec loader degrades to JSON-only without it.
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None


def _as_list(value, what: str) -> List[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, Sequence):
        return [str(v) for v in value]
    raise ConfigError(f"{what} must be a string or a list of strings")


def _parse_targets(doc: Mapping[str, object]) -> List[Target]:
    targets: List[Target] = []
    table = doc.get("targets")
    if table is not None:
        if not isinstance(table, Mapping):
            raise ConfigError("[targets] must be a table/object")
        workloads = table.get("workloads")
        if workloads == "all":
            from ..workloads import all_names

            targets.extend(Target(name) for name in all_names())
        elif workloads is not None:
            targets.extend(Target(name)
                           for name in _as_list(workloads,
                                                "targets.workloads"))
        unknown = set(table) - {"workloads"}
        if unknown:
            raise ConfigError(
                f"unknown [targets] key(s): {', '.join(sorted(unknown))}")
    for entry in doc.get("target", ()):
        if not isinstance(entry, Mapping):
            raise ConfigError("[[target]] entries must be tables/objects")
        entry = dict(entry)
        try:
            name = str(entry.pop("name"))
        except KeyError:
            raise ConfigError("[[target]] needs a 'name'") from None
        source = entry.pop("source", None)
        sources = entry.pop("sources", None)
        if entry:
            raise ConfigError(
                f"unknown [[target]] key(s): {', '.join(sorted(entry))}")
        if (source is None) == (sources is None):
            raise ConfigError(
                f"target {name!r} needs exactly one of 'source' "
                f"(a single unit) or 'sources' (a unit table)")
        if source is not None:
            sources = {"main.c": str(source)}
        if not isinstance(sources, Mapping):
            raise ConfigError(f"target {name!r} 'sources' must be a table")
        targets.append(Target(name, sources={str(k): str(v)
                                             for k, v in sources.items()}))
    return targets


def _parse_instances(doc: Mapping[str, object]) -> List[Instance]:
    instances: List[Instance] = []
    axes = doc.get("axes")
    if axes is not None:
        if not isinstance(axes, Mapping):
            raise ConfigError("[axes] must be a table/object")
        axes = dict(axes)
        kwargs = {}
        for spec_key, kw in (("mechanisms", "mechanisms"),
                             ("filters", "filters"),
                             ("engines", "engines"),
                             ("modes", "modes"),
                             ("extension_points", "extension_points")):
            if spec_key in axes:
                kwargs[kw] = _as_list(axes.pop(spec_key),
                                      f"axes.{spec_key}")
        if axes:
            raise ConfigError(
                f"unknown [axes] key(s): {', '.join(sorted(axes))}")
        if "mechanisms" not in kwargs:
            raise ConfigError("[axes] needs at least 'mechanisms'")
        instances.extend(axes_instances(**kwargs))
    for entry in doc.get("instance", ()):
        if not isinstance(entry, Mapping):
            raise ConfigError("[[instance]] entries must be tables/objects")
        instances.append(Instance.parse(entry))
    # dedupe across axes + explicit entries, keeping first occurrence
    seen = set()
    unique = []
    for instance in instances:
        if instance.name not in seen:
            seen.add(instance.name)
            unique.append(instance)
    return unique


def parse_spec(doc: Mapping[str, object],
               name: Optional[str] = None) -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from a parsed document."""
    if not isinstance(doc, Mapping):
        raise ConfigError("campaign spec must be a table/object")
    doc = dict(doc)
    spec_name = str(doc.pop("name", name or "campaign"))
    max_instructions = doc.pop("max_instructions", None)
    if max_instructions is not None:
        max_instructions = check_budget(max_instructions)
    validate_output = bool(doc.pop("validate_output", True))
    instances = _parse_instances(doc)
    targets = _parse_targets(doc)
    doc.pop("axes", None), doc.pop("instance", None)
    doc.pop("targets", None), doc.pop("target", None)
    if doc:
        raise ConfigError(
            f"unknown campaign spec key(s): {', '.join(sorted(doc))}")
    if not instances:
        raise ConfigError("campaign spec declares no instances "
                          "(add [axes] or [[instance]] entries)")
    if not targets:
        raise ConfigError("campaign spec declares no targets "
                          "(add [targets] or [[target]] entries)")
    return CampaignSpec(name=spec_name, instances=instances,
                        targets=targets, max_instructions=max_instructions,
                        validate_output=validate_output)


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read campaign spec: {exc}") from None
    if path.suffix.lower() == ".toml":
        if tomllib is None:  # pragma: no cover
            raise ConfigError(
                "TOML campaign specs need Python 3.11+ (tomllib); "
                "use a .json spec instead")
        try:
            doc = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from None
    elif path.suffix.lower() == ".json":
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    else:
        raise ConfigError(
            f"campaign spec {path} must be a .toml or .json file")
    return parse_spec(doc, name=path.stem)
