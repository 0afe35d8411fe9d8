"""The report of slow untagged tests that conftest prints."""

from types import SimpleNamespace

from conftest import SLOW_CALL_S, slow_untagged


def call(nodeid, duration, when="call", markers=()):
    return SimpleNamespace(nodeid=nodeid, duration=duration, when=when,
                           keywords=dict.fromkeys(markers, 1))


def test_only_calls_of_untagged_tests_at_the_limit_are_listed():
    reports = [call("at_limit", SLOW_CALL_S), call("slower", 5.0),
               call("tagged", 9.0, markers=["slow"]), call("quick", SLOW_CALL_S - 0.1),
               call("slow_setup", 7.0, when="setup"),
               SimpleNamespace()]   # a warning report, which has no phase
    assert slow_untagged(reports) == [(5.0, "slower"), (SLOW_CALL_S, "at_limit")]
