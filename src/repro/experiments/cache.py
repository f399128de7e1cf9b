"""Content-addressed on-disk cache for benchmark results.

Every experiment job is described by a *self-contained payload*: what
decides its result and nothing else -- the workload sources and
obfuscated units, the full :class:`InstrumentationConfig` (None for the
baseline), the compile options, the instruction budget, the Low-Fat
region capacity and the VM engine.  The cache key is the SHA-256 of
the canonical JSON of that payload plus the repro package version, so

* requests that measure the same thing -- under whatever label,
  workload name or experiment, in this process or another --
  resolve to the same entry;
* *any* change to the keyed inputs (a workload source edit, a config
  flag, a different extension point or instruction budget, a package
  upgrade) changes the key and therefore invalidates the entry
  automatically.  Stale entries are never consulted; they are simply
  unreachable garbage.

An entry holds the run's record (:meth:`BenchResult.record`), never a
verdict that depends on who asked: the engine judges a run against its
baseline when it answers a request.  Entries are one JSON file per key
under ``<dir>/<key[:2]>/<key>.json``, written atomically (temp file +
``os.replace``) so concurrent writers of the *same* key are harmless.
Unreadable or malformed entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from .. import __version__

#: Bump when the BenchResult JSON schema or the key derivation changes
#: incompatibly; old entries then miss instead of deserializing
#: garbage.  Version 3: TargetStatistics gained the hoist counters and
#: static verdicts, and InstrumentationConfig gained ``opt_hoist``.
#: Version 4: every key carries the VM execution engine.  Version 5:
#: the range analysis joins soundly (a fact survives a merge only if
#: every edge carries it), which changes verdicts and emitted checks
#: on some workloads; keys hold the package version but no code
#: digest, so a warm cache would otherwise serve the old results.
#: Version 6: keys no longer hash the label or the workload name, and
#: an entry stores the run's record without ``workload``/``label``/``ok``.
#: Version 7: an uninstrumented build's key holds no extension point,
#: and the record no ``extension_point`` (the request supplies it).
CACHE_FORMAT_VERSION = 7


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-bench``,
    else ``~/.cache/repro-bench``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-bench"


def job_key(payload: dict) -> str:
    """Content hash of a job payload.

    The VM execution engine is part of the key: each engine caches
    and resumes its own cells, so a result is only ever served to a
    request for the engine that computed it -- which keeps the
    engine-differential comparison honest even over a warm cache."""
    keyed = dict(payload, repro_version=__version__,
                 cache_format=CACHE_FORMAT_VERSION)
    blob = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of content-addressed ``BenchResult`` JSON documents."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored result JSON for ``key``, or None on a miss."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            result = document["result"]
            if document.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError("stale cache format")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: dict) -> None:
        """Store ``result`` (a run record) under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def paths(self) -> Iterator[Path]:
        """All entry files currently in the cache directory."""
        if not self.directory.is_dir():
            return iter(())
        return self.directory.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self.paths())
