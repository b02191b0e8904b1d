"""Fixtures shared by the simulator tests."""

import pytest

from repro.sim import _ckernel


@pytest.fixture(params=["kernel", "numpy"])
def backend(request, monkeypatch):
    """Run a test once on the compiled kernel (skipped when none loads)
    and once on the numpy code that runs without it."""
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
    elif _ckernel.load_kernel() is None:
        pytest.skip("no compiled kernel")
    return request.param
