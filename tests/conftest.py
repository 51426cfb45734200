"""Shared fixtures for the test suite.

Expensive artefacts (experiment context with its cached campaigns,
golden runs) are session-scoped; cheap structural fixtures are
function-scoped so tests can mutate them freely.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext
from repro.experiments.paper_data import paper_matrix
from repro.model.graph import SignalGraph
from repro.target.simulation import ArrestmentSimulator
from repro.target.testcases import standard_test_cases
from repro.target.wiring import build_arrestment_system


@pytest.fixture
def system():
    """A fresh arrestment system model."""
    return build_arrestment_system()


@pytest.fixture
def graph(system):
    return SignalGraph(system)


@pytest.fixture
def matrix(system):
    """The paper's Table-1 permeabilities on the fresh system."""
    return paper_matrix(system)


@pytest.fixture(scope="session")
def test_cases():
    return standard_test_cases()


@pytest.fixture(scope="session")
def mid_case(test_cases):
    """The mid-envelope test case (14 t at 55 m/s)."""
    return test_cases[12]


@pytest.fixture(scope="session")
def golden_result(mid_case):
    """One completed fault-free arrestment (shared, read-only)."""
    return ArrestmentSimulator(mid_case).run()


@pytest.fixture(scope="session")
def ctx():
    """Session-scoped experiment context at the smallest scale.

    The campaigns inside are cached, so the integration tests share
    one permeability / detection / memory campaign each.
    """
    return ExperimentContext(scale="test", seed=2002)


@pytest.fixture
def option_values():
    """One valid, non-default value per declared execution option."""
    return {
        "store": "sqlite",
        "task_timeout": 12.5,
        "retries": 3,
        "fast_forward": False,
        "checkpoint_stride": 128,
        "integrity_policy": "strict",
        "audit_fraction": 0.25,
        "audit_seed": 11,
        "adaptive": True,
        "ci_level": 0.9,
        "ci_halfwidth": 0.1,
        "min_batch": 2,
        "max_runs": 7,
        "batch_width": 16,
    }
