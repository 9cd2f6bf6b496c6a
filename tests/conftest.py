"""Suite-wide hooks: a wall-clock backstop for hung tests.

``pyproject.toml`` sets pytest-timeout's ``timeout`` ini option so a
reliability bug that turns into an unbounded virtual-time loop fails
the run instead of hanging it.  Where the plugin is not installed, the
same limit is enforced here with ``SIGALRM`` (POSIX only).
"""

from __future__ import annotations

import signal

import pytest


def backstop_seconds(config: pytest.Config) -> int:
    """The per-test alarm this hook arms: the ini ``timeout`` when
    pytest-timeout is absent, else 0 (the plugin enforces it)."""
    if config.pluginmanager.hasplugin("timeout") or not hasattr(signal, "SIGALRM"):
        return 0
    return int(float(config.inicfg.get("timeout", 0) or 0))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem):
    seconds = backstop_seconds(item.config)
    if not seconds:
        yield
        return

    def expire(_signum, _frame):
        pytest.fail(f"test exceeded the {seconds} s timeout", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
