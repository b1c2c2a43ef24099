"""Fixtures shared by the execution-plan and nearest-row tests."""

import pytest

import repro.perf.plan as plan_module


@pytest.fixture
def pools_started(monkeypatch):
    """Initializers of the pools ``repro.perf.plan`` constructs in a test.

    Starts from no kept pool and patches the ``ProcessPoolExecutor`` name
    the plan builds its pools from, as perfbench's pool counter does; the
    kept pools the test started are shut down afterwards.
    """
    plan_module._shutdown_pools()
    started = []

    class CountingPool(plan_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(plan_module, "ProcessPoolExecutor", CountingPool)
    yield started
    plan_module._shutdown_pools()
