"""The HTTP/JSON daemon: endpoints, caching, and parity with direct
execution."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import Instance, Target, make_server
from repro.campaign.serve import CampaignService
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentEngine

MAX_INSTRUCTIONS = 3_000_000

SOURCE = """
int main() {
  int a[6];
  long sum = 0;
  for (int i = 0; i < 6; i++) { a[i] = i + 10; }
  for (int i = 0; i < 6; i++) { sum = sum + a[i]; }
  print_i64(sum);
  return 0;
}
"""


@pytest.fixture
def server(tmp_path):
    engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
    server, service = make_server("127.0.0.1", 0, engine,
                                  default_max_instructions=MAX_INSTRUCTIONS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, service
    finally:
        server.shutdown()
        server.server_close()


def _request(server, path, body=None):
    port = server.server_address[1]
    data = (json.dumps(body).encode("utf-8")
            if body is not None else None)
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", data=data, timeout=60) as r:
        return json.loads(r.read())


def _error(server, path, body=None, method=None):
    port = server.server_address[1]
    data = (json.dumps(body).encode("utf-8")
            if body is not None else None)
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method)
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=60)
    return info.value.code, json.loads(info.value.read())


class TestEndpoints:
    def test_health(self, server):
        doc = _request(server[0], "/health")
        assert doc["ok"] is True
        assert doc["executed_jobs"] == 0

    def test_instances_catalogue(self, server):
        doc = _request(server[0], "/instances")
        assert set(doc["mechanisms"]) == {"noop", "softbound", "lowfat"}
        assert "softbound-ranges" in doc["labels"]

    def test_workloads_catalogue(self, server):
        doc = _request(server[0], "/workloads")
        assert "164gzip" in doc["workloads"]

    def test_unknown_path_404(self, server):
        code, doc = _error(server[0], "/nope")
        assert code == 404 and "unknown path" in doc["error"]


class TestRun:
    def test_submitted_sources(self, server):
        doc = _request(server[0], "/run", {
            "sources": {"main.c": SOURCE},
            "instance": {"label": "softbound"},
        })
        assert doc["ok"] is True
        assert doc["cached"] is False
        assert doc["result"]["output"] == ["75"]
        assert doc["result"]["checks_executed"] > 0

    def test_named_workload(self, server):
        doc = _request(server[0], "/run", {"workload": "164gzip",
                                           "instance": "lowfat"})
        assert doc["ok"] is True
        assert doc["instance"] == "lowfat@codegen"

    def test_second_submission_is_cached_and_identical(self, server):
        body = {"sources": {"main.c": SOURCE}, "instance": "softbound"}
        first = _request(server[0], "/run", body)
        second = _request(server[0], "/run", body)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"] == second["result"]

    def test_stats_identical_to_direct_run(self, server):
        """The acceptance check: a served job answers with stats
        identical to running the same (sources, instance) directly."""
        doc = _request(server[0], "/run", {
            "sources": {"main.c": SOURCE},
            "instance": {"label": "softbound-ranges"},
        })
        instance = Instance.from_label("softbound-ranges")
        target = Target("submitted", sources={"main.c": SOURCE})
        direct = ExperimentEngine().run_request(
            instance.request(target, max_instructions=MAX_INSTRUCTIONS))
        assert doc["result"] == direct.to_json()


class TestErrors:
    def test_unknown_workload_400(self, server):
        code, doc = _error(server[0], "/run",
                           {"workload": "999nope", "instance": "softbound"})
        assert code == 400 and "unknown workload" in doc["error"]

    def test_unknown_instance_400(self, server):
        code, doc = _error(server[0], "/run",
                           {"workload": "164gzip",
                            "instance": {"label": "turbo"}})
        assert code == 400

    def test_unknown_engine_400(self, server):
        # "compiled" names the retired closure tier: no alias remains.
        for engine in ("jit", "compiled"):
            code, doc = _error(server[0], "/run",
                               {"workload": "164gzip",
                                "instance": {"label": "softbound",
                                             "engine": engine}})
            assert code == 400
            assert doc == {"error": f"unknown VM engine {engine!r} "
                                    "(expected one of codegen, interp)"}

    @pytest.mark.parametrize("overrides, key", [
        ({"bogus_field": True}, "bogus_field"),
        ({"opt_dominance": "yes please"}, "opt_dominance"),
    ])
    def test_bad_config_override_400(self, server, overrides, key):
        # a one-line 400 naming the key, not a dropped connection
        code, doc = _error(server[0], "/run",
                           {"sources": {"main.c": SOURCE},
                            "instance": {"mechanism": "softbound",
                                         "config": overrides}})
        assert code == 400
        assert repr(key) in doc["error"]
        assert server[1].engine.executed_jobs == 0

    def test_both_workload_and_sources_400(self, server):
        code, doc = _error(server[0], "/run",
                           {"workload": "164gzip",
                            "sources": {"a": "b"},
                            "instance": "softbound"})
        assert code == 400 and "exactly one" in doc["error"]

    def test_unknown_body_key_400(self, server):
        code, doc = _error(server[0], "/run",
                           {"workload": "164gzip", "speed": "max"})
        assert code == 400 and "unknown request key" in doc["error"]

    def test_invalid_json_400(self, server):
        port = server[0].server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/run", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=60)
        assert info.value.code == 400

    @pytest.mark.parametrize("budget", ["abc", [1], True, 0, -5])
    def test_bad_budget_400(self, server, budget):
        # A one-line 400, not a dropped connection.
        code, doc = _error(server[0], "/run",
                           {"sources": {"main.c": SOURCE},
                            "instance": "baseline",
                            "max_instructions": budget})
        assert code == 400
        assert doc == {"error": "max_instructions must be a positive "
                                f"integer, got {budget!r}"}

    def test_post_to_unknown_path_404(self, server):
        code, _ = _error(server[0], "/health", {"x": 1})
        assert code == 404


class TestService:
    def test_service_counts_requests(self, tmp_path):
        engine = ExperimentEngine()
        service = CampaignService(engine,
                                  default_max_instructions=MAX_INSTRUCTIONS)
        doc = service.run_job({"sources": {"main.c": SOURCE},
                               "instance": "baseline"})
        assert doc["ok"] is True
        assert service.requests_served == 1
        assert service.health()["requests_served"] == 1
