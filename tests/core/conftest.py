"""Fixtures for the codec tests."""

from __future__ import annotations

import pytest

from repro.core import kernel


@pytest.fixture(params=["kernel", "numpy"])
def index_pass_impl(request, monkeypatch) -> str:
    """Run the test's decodes through the compiled index pass, then numpy.

    The numpy leg patches :func:`repro.core.kernel.load` to report the
    kernel unavailable, which is exactly the fallback a host without gcc
    takes.
    """
    if request.param == "numpy":
        monkeypatch.setattr(kernel, "load", lambda: None)
    elif kernel.load() is None:
        pytest.skip("compiled index pass unavailable on this host")
    return request.param
