"""Every profiler in the scope registry reaches every entry point: its
verb (live and from a captured trace), the ``--<scope>`` flag's
manifest block, and the job server's telemetry."""

import json

import pytest

from repro.cli import main
from repro.obs.scopes import SCOPES
from repro.sdk import Client
from repro.server import ServerThread


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


@pytest.fixture(scope="module")
def fig2_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "t.json"
    assert main(["fig2", "--quick", "--no-cache", "--trace", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=1, no_cache=True) as srv:
        yield srv


@pytest.mark.parametrize("name", list(SCOPES))
def test_scope_reaches_every_entry_point(name, fig2_trace, server,
                                         tmp_path, capsys):
    capsys.readouterr()
    # the verb, live
    assert main([name, "fig2", "--quick", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["experiment"] == "fig2"
    # the verb, from a captured trace
    assert main([name, "--trace", fig2_trace, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["source"] == "trace"
    # the flag folds a block into the manifest
    metrics = tmp_path / "m.json"
    assert main(["fig2", "--quick", f"--{name}",
                 "--metrics", str(metrics)]) == 0
    assert f"{name}: fig2" in capsys.readouterr().out
    assert json.loads(metrics.read_text())[name]
    # the server accepts it as telemetry and returns its block
    with Client(server.host, server.port) as client:
        result = client.submit("fig2", quick=True,
                               telemetry=(name,)).result()
    assert result.blocks[name]
    assert result.manifest[name] == result.blocks[name]
