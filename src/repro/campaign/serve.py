"""Instrument-as-a-service: a long-lived HTTP/JSON daemon.

``python -m repro serve`` turns the reproduction into a small service
backed by one shared :class:`ExperimentEngine` (worker pool +
content-addressed cache): submit MiniC source or a named workload
plus an instance spec, get back the full ``BenchResult`` statistics --
identical to what ``repro run``/``repro bench`` compute, and served
from cache when any previous job (or campaign) already computed the
cell.

Endpoints (all JSON):

``GET /health``
    liveness + engine counters (executed jobs, cache hits).
``GET /instances``
    registered mechanisms and the canonical instance labels.
``GET /workloads``
    bundled workload names.
``POST /run``
    body ``{"workload": "164gzip"}`` or
    ``{"sources": {"main.c": "..."}}``, plus
    ``"instance": {"label": "softbound-ranges"}`` (or the explicit
    mechanism/filters/mode/engine form) and optionally
    ``"max_instructions"`` (a positive integer).  Responds with
    ``{"ok": …, "cached": …, "result": <BenchResult JSON>}``.

Errors are structured: 400 with ``{"error": ...}`` for bad requests
(unknown mechanism/engine/workload, a bad ``config`` override, a bad
budget, malformed JSON), 404 for unknown paths.
The server is intentionally plain ``http.server`` -- no new
dependencies -- and serializes job execution with a lock (the engine
itself fans out over worker processes)."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import ConfigError, ReproError
from ..experiments.common import CONFIG_LABELS
from ..experiments.runner import ExperimentEngine
from .model import Instance, Target, check_budget

#: Cap request bodies (a campaign-sized source set is ~100 KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024


class CampaignService:
    """The daemon's engine-facing half, separable from HTTP for tests."""

    def __init__(self, engine: ExperimentEngine,
                 default_max_instructions: Optional[int] = None):
        self.engine = engine
        self._lock = threading.Lock()
        self.default_max_instructions = default_max_instructions
        self.requests_served = 0

    # -- endpoint bodies -----------------------------------------------
    def health(self) -> dict:
        return {
            "ok": True,
            "requests_served": self.requests_served,
            "executed_jobs": self.engine.executed_jobs,
            "cache_hits": self.engine.cache_hits,
        }

    def instances(self) -> dict:
        from ..core.mechanism import get_mechanism, mechanism_names

        return {
            "mechanisms": {
                name: get_mechanism(name).description
                for name in mechanism_names()
            },
            "labels": list(CONFIG_LABELS),
        }

    def workloads(self) -> dict:
        from ..workloads import all_names

        return {"workloads": all_names()}

    def run_job(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise ConfigError("request body must be a JSON object")
        body = dict(body)
        instance_doc = body.pop("instance", {"label": "baseline"})
        if isinstance(instance_doc, str):
            instance_doc = {"label": instance_doc}
        instance = Instance.parse(instance_doc)
        workload = body.pop("workload", None)
        sources = body.pop("sources", None)
        max_instructions = body.pop("max_instructions", None)
        max_instructions = (self.default_max_instructions
                            if max_instructions is None
                            else check_budget(max_instructions))
        if body:
            raise ConfigError(
                f"unknown request key(s): {', '.join(sorted(body))}")
        if (workload is None) == (sources is None):
            raise ConfigError(
                "request needs exactly one of 'workload' (a bundled "
                "name) or 'sources' (a unit-name -> MiniC text object)")
        if workload is not None:
            target = Target(str(workload))
        else:
            if not isinstance(sources, dict) or not sources:
                raise ConfigError("'sources' must be a non-empty object")
            target = Target("submitted", sources={
                str(k): str(v) for k, v in sources.items()})
        request = instance.request(target, max_instructions=max_instructions)
        with self._lock:
            executed_before = self.engine.executed_jobs
            result = self.engine.run_request(request)
            # served from the memo or the disk cache, not computed fresh
            cached = self.engine.executed_jobs == executed_before
            self.requests_served += 1
        return {
            "ok": result.ok,
            "cached": cached,
            "instance": instance.name,
            "target": target.name,
            "result": result.to_json(),
        }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"

    # the ThreadingHTTPServer instance carries the service
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, document: dict) -> None:
        payload = json.dumps(document, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ConfigError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise ConfigError(
                f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"invalid JSON body: {exc}") from None

    # -- methods -------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib casing
        routes = {
            "/health": self.service.health,
            "/instances": self.service.instances,
            "/workloads": self.service.workloads,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        self._reply(200, handler())

    def do_POST(self):  # noqa: N802 - stdlib casing
        if self.path != "/run":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = self._read_body()
            document = self.service.run_job(body)
        except ConfigError as exc:
            self._reply(400, {"error": str(exc)})
            return
        except ReproError as exc:
            self._reply(500, {"error": str(exc)})
            return
        self._reply(200, document)


def make_server(
    host: str,
    port: int,
    engine: ExperimentEngine,
    default_max_instructions: Optional[int] = None,
    verbose: bool = False,
) -> Tuple[ThreadingHTTPServer, CampaignService]:
    """Bind the daemon (``port=0`` picks a free port; read it back from
    ``server.server_address``)."""
    service = CampaignService(
        engine, default_max_instructions=default_max_instructions)
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server, service
