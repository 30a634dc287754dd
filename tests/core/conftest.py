"""Fixtures for the codec tests."""

from __future__ import annotations

import pytest

from repro.core import kernel
from tests.core import reference


@pytest.fixture(params=["kernel", "oracle"])
def index_pass_impl(request, monkeypatch) -> str:
    """Run the test's decodes through the compiled index pass, then through
    the scalar reference index pass of :mod:`tests.core.reference`."""
    if request.param == "oracle":
        monkeypatch.setattr(kernel, "index_pass", reference.index_pass)
    return request.param
