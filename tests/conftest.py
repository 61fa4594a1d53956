"""Slow tests (marked ``slow``) run only with ``--run-slow``."""

import pytest


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true",
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: give --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
