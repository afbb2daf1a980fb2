import pytest
from hypothesis import HealthCheck, settings

from kevlar.cache import CacheConfig
from kevlar.daemon import DaemonConfig, daemon_in_thread
from kevlar.store import open_store
from kevlar.transport import ConnectionMode, Endpoint

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture
def store(tmp_path):
    handle = open_store(tmp_path / "store", tmp_path / "sealing.key")
    yield handle
    handle.close()


@pytest.fixture
def daemon_config(tmp_path):
    def build(*, mode=ConnectionMode.LISTEN, port=0, host="127.0.0.1",
              capacity=64, policy=None, **kwargs):
        cache_kwargs = dict(capacity=capacity, id_size=64, value_size=4096)
        if policy is not None:
            cache_kwargs["policy"] = policy
        return DaemonConfig(
            endpoint=Endpoint(host, port, mode),
            store_dir=tmp_path / "store",
            keyfile=tmp_path / "sealing.key",
            cache=CacheConfig(**cache_kwargs),
            **kwargs,
        )

    return build


@pytest.fixture
def live_daemon(daemon_config):
    with daemon_in_thread(daemon_config()) as daemon:
        yield daemon
