"""The serving process imports only what it serves.

``repro`` and ``repro.obs`` resolve their re-exports on first use, the
CLI imports the replay stack inside the subcommands that replay, and
NumPy is imported inside the functions that use it — so a server
started the way ``repro-kv serve`` starts one never loads NumPy, the
replay stack or the timeline/report half of ``repro.obs``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import obs
from repro.cli import build_parser

SERVE_ROUND_TRIP = textwrap.dedent("""
    import sys

    from repro.cli import build_parser
    from repro._util import parse_size
    from repro.cache import SizeClassConfig
    from repro.policies import make_policy
    from repro.server import CacheClient, ShardSet, start_async_server

    args = build_parser().parse_args(["serve"])
    shards = ShardSet(parse_size(args.cache_size),
                      lambda: make_policy(args.policy),
                      SizeClassConfig(slab_size=parse_size(args.slab_size)),
                      nshards=args.shards)
    handle = start_async_server(shards)
    try:
        with CacheClient(port=handle.port) as client:
            assert client.set("k", b"value")
            assert client.get("k") == b"value"
            assert client.get("absent") is None
            detail = client.stats("detail")
    finally:
        handle.stop()
    assert detail, "stats detail came back empty"
    unwanted = ("numpy", "repro.sim", "repro.traces", "repro.obs.timeline",
                "repro.obs.report")
    print(" ".join(name for name in unwanted if name in sys.modules))
""")


def test_server_round_trip_loads_no_numpy_and_no_replay_stack():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SERVE_ROUND_TRIP], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("package", [repro, obs], ids=["repro", "repro.obs"])
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name
    with pytest.raises(AttributeError):
        obs.no_such_name


@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_one_cache_by_default(command):
    assert build_parser().parse_args([command]).shards == 1
