"""Shared fixtures and the acceptance summary hook.

The session-scoped fixtures build the two reference kernel models and a
problem with its threshold constants exactly once; tests that only vary
the nonlinearities swap them into the cached problem instead of paying
for the constants again.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

from fraccert.exprlang import parse
from fraccert.kernel import build_model, validate_params
from fraccert.problem import Problem

# Reference parameter tuples (alpha, beta, eta, b) used across the suite.
P1 = (1.5, 0.2, 0.75, 0.775)
P2 = (1.25, 0.4, 2.0 / 3.0, 41.0 / 60.0)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# HYPOTHESIS_PROFILE=ci replays the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def params1():
    return validate_params(*P1)


@pytest.fixture(scope="session")
def params2():
    return validate_params(*P2)


@pytest.fixture(scope="session")
def model1(params1):
    return build_model(params1)


@pytest.fixture(scope="session")
def model2(params2):
    return build_model(params2)


@pytest.fixture(scope="session")
def base_problem(params1, params2):
    """Reference problem with constant nonlinearities and cached constants."""
    return Problem.build((params1, params2), ("10", "10"))


@pytest.fixture(scope="session")
def constants1(base_problem):
    return base_problem.constants[0]


@pytest.fixture(scope="session")
def constants2(base_problem):
    return base_problem.constants[1]


@pytest.fixture(scope="session")
def make_problem(base_problem):
    """Return a factory swapping nonlinearities (and options) into the
    cached reference problem without recomputing its constants."""

    def make(f1: str, f2: str, **options) -> Problem:
        prob = replace(base_problem, f=(parse(f1), parse(f2)), f_text=(f1, f2))
        if options:
            prob = replace(prob, options=replace(prob.options, **options))
        return prob

    return make


# ------------------------------------------------ acceptance summary hook

_ACCEPTANCE: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE.append((name, report.outcome))
    elif report.when == "setup" and report.outcome == "failed":
        _ACCEPTANCE.append((name, "failed"))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status} {name}")
