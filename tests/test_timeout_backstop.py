"""The SIGALRM backstop in ``conftest.py`` arms when pytest-timeout is absent."""

import signal

import pytest

from .conftest import backstop_seconds


def test_alarm_is_armed_during_a_test(pytestconfig):
    if pytestconfig.pluginmanager.hasplugin("timeout"):
        pytest.skip("pytest-timeout enforces the limit itself")
    seconds = backstop_seconds(pytestconfig)
    assert seconds == 600  # the ini ``timeout`` in pyproject.toml
    remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= seconds
