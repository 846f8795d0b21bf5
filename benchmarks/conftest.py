"""Benchmark-suite configuration."""

import pytest


@pytest.fixture(autouse=True)
def _show_output(capsys):
    """Let result tables through even without -s: print at teardown."""
    yield


@pytest.fixture(scope="session", autouse=True)
def _session_store(tmp_path_factory):
    """Pin the default result store to a fresh directory for the session.

    Unpinned, gates that go through ``run_scenario`` (E1, E4) use
    ``benchmarks/results/cache/`` in the checkout, and the store key has
    no code identity: a gate could be answered from entries an older
    tree wrote there.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_RESULT_CACHE", str(tmp_path_factory.mktemp("result-store"))
        )
        yield
