"""Per-check-site profiling: join static provenance with dynamic counts.

``repro profile`` runs a program with :attr:`RuntimeStats.profile`
enabled and joins two tables this module knows how to combine:

* the **static** side, :attr:`CompiledProgram.check_sites` -- one
  :class:`~repro.core.itarget.CheckSiteInfo` per emitted check site,
  recorded by the mechanisms while lowering (source line, what produced
  the checked pointer, and any statically-known reason the bounds can
  be wide);
* the **dynamic** side, :attr:`RuntimeStats.per_site` -- per-site
  executed/wide counts (always on) plus attributed cycles and dynamic
  wide-bounds reasons (profiling only).

The result is the measured version of the paper's Table 2 attribution:
instead of hand-deriving "gzip's wide accesses come from its size-less
extern arrays", the wide-bounds table names the sites, lines and
reasons with their dynamic shares.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core.itarget import CheckSiteInfo
from .driver import CompiledProgram, RunResult

#: Fallback reasons by static pointer source, for SoftBound sites whose
#: wide bounds have no dynamic reason (SoftBound's wideness is a
#: property of the materialized witness, not of the target allocation).
_SB_SOURCE_REASONS = {
    "trie-load": "missing-or-stale-metadata",
    "call-result": "uninstrumented-or-wrapper-callee",
    "argument": "uninstrumented-caller",
    "phi-or-select": "merged-provenance",
}


def _wide_reasons(counter, info: Optional[CheckSiteInfo]) -> Dict[str, int]:
    """reason -> dynamic wide count for one site.  Dynamic reasons
    (Low-Fat classifies the target allocation per wide check) win;
    static hints cover the remainder."""
    wide = counter.get("wide", 0)
    reasons: Dict[str, int] = {}
    for key, count in counter.items():
        if key.startswith("reason:"):
            reasons[key[len("reason:"):]] = count
    explained = sum(reasons.values())
    rest = wide - explained
    if rest > 0:
        if info is not None and info.wide_hint:
            fallback = info.wide_hint
        elif info is not None and info.source in _SB_SOURCE_REASONS:
            fallback = _SB_SOURCE_REASONS[info.source]
        else:
            source = info.source if info is not None else ""
            fallback = f"wide-{source or 'unknown'}-witness"
        reasons[fallback] = reasons.get(fallback, 0) + rest
    return reasons


def build_profile(
    program: CompiledProgram, result: RunResult, top: int = 20
) -> dict:
    """The ``repro profile`` report as a JSON-ready dict."""
    stats = result.stats
    site_infos = program.check_sites
    verdicts = program.check_verdicts
    rows: List[dict] = []
    for site, counter in stats.per_site.items():
        info = site_infos.get(site)
        rows.append({
            "site": site,
            "line": info.line if info is not None else None,
            "function": info.function if info is not None else "",
            "kind": info.kind if info is not None else "deref",
            "source": info.source if info is not None else "",
            "verdict": verdicts.get(site, ""),
            "executed": counter.get("executed", 0),
            "wide": counter.get("wide", 0),
            "invariant": counter.get("invariant", 0),
            "cycles": counter.get("cycles", 0),
        })
    rows.sort(key=lambda r: (-r["cycles"], -r["executed"], r["site"]))

    # The static-vs-dynamic join the verdicts exist for: what share of
    # the *executed* dereference checks ran at a site the range
    # analysis had already proven safe (pure overhead under these
    # configs).  ``-mi-opt-ranges`` removes only the sites proven point
    # by point; a site proven through its loop's static extent keeps
    # its check there.
    provable_executed = sum(
        c.get("executed", 0) for site, c in stats.per_site.items()
        if verdicts.get(site) == "proven-safe"
    )

    total_wide = stats.checks_wide
    wide_sites: List[dict] = []
    for site, counter in stats.per_site.items():
        wide = counter.get("wide", 0)
        if not wide:
            continue
        info = site_infos.get(site)
        wide_sites.append({
            "site": site,
            "line": info.line if info is not None else None,
            "source": info.source if info is not None else "",
            "wide": wide,
            "percent_of_wide": (100.0 * wide / total_wide
                                if total_wide else 0.0),
            "reasons": _wide_reasons(counter, info),
        })
    wide_sites.sort(key=lambda r: (-r["wide"], r["site"]))

    instr = stats.instrumentation_cycles
    return {
        "approach": program.config.approach,
        "totals": {
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "checks_executed": stats.checks_executed,
            "checks_wide": stats.checks_wide,
            "unsafe_percent": stats.unsafe_percent,
            "invariant_checks": stats.invariant_checks,
            "instrumentation_cycles": instr,
            "instrumentation_percent": (100.0 * instr / stats.cycles
                                        if stats.cycles else 0.0),
            "provable_executed": provable_executed,
            "provable_percent": (100.0 * provable_executed
                                 / stats.checks_executed
                                 if stats.checks_executed else 0.0),
        },
        "verdicts": dict(program.instrumentation.verdicts),
        "site_count": len(stats.per_site),
        "sums": {
            "executed": sum(c.get("executed", 0)
                            for c in stats.per_site.values()),
            "wide": sum(c.get("wide", 0) for c in stats.per_site.values()),
        },
        "sites": rows[:top],
        "wide_sites": wide_sites,
    }


def render_text(profile: dict) -> str:
    from .experiments.common import format_table

    totals = profile["totals"]
    lines = [
        f"approach: {profile['approach']}",
        f"cycles: {totals['cycles']}  "
        f"(instrumentation: {totals['instrumentation_cycles']}, "
        f"{totals['instrumentation_percent']:.2f}%)",
        f"checks: {totals['checks_executed']} executed, "
        f"{totals['checks_wide']} wide "
        f"({totals['unsafe_percent']:.2f}%), "
        f"{totals['invariant_checks']} invariant; "
        f"{profile['site_count']} static sites",
    ]
    if profile.get("verdicts"):
        lines.append(
            f"statically provable: {totals['provable_executed']} of "
            f"{totals['checks_executed']} executed checks "
            f"({totals['provable_percent']:.2f}%) ran at proven-safe "
            f"sites (static verdicts: {profile['verdicts']})")
    lines += [
        "",
        "Hottest check sites (by attributed cycles):",
    ]
    rows = [
        [
            r["site"],
            "-" if r["line"] is None else str(r["line"]),
            r["kind"],
            r["source"],
            r["verdict"] or "-",
            str(r["executed"] + r["invariant"]),
            str(r["wide"]),
            str(r["cycles"]),
        ]
        for r in profile["sites"]
    ]
    lines.append(format_table(
        ["site", "line", "kind", "source", "verdict", "executed", "wide",
         "cycles"],
        rows,
    ))
    lines.append("")
    lines.append("Wide-bounds attribution (site -> reason -> share of "
                 "dynamic wide checks):")
    if profile["wide_sites"]:
        wrows = []
        for r in profile["wide_sites"]:
            for reason, count in sorted(
                r["reasons"].items(), key=lambda kv: -kv[1]
            ):
                total_wide = profile["totals"]["checks_wide"]
                share = 100.0 * count / total_wide if total_wide else 0.0
                wrows.append([
                    r["site"],
                    "-" if r["line"] is None else str(r["line"]),
                    reason,
                    str(count),
                    f"{share:.1f}%",
                ])
        lines.append(format_table(
            ["site", "line", "reason", "wide", "% of wide"], wrows))
    else:
        lines.append("  (no wide-bounds checks executed)")
    return "\n".join(lines)
