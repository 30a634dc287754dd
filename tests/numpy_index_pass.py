"""pytest plugin: run any selection of tests with the compiled index pass off.

    PYTHONPATH=src python -m pytest -p tests.numpy_index_pass -q

Every PaSTRI decode in the test process (and in pool workers forked from
it) then takes ``PaSTRICompressor._index_pass_numpy``, the path a host
without gcc runs.  The kernel's own tests still reach the kernel directly.
"""

import pytest

from repro.core import PaSTRICompressor


@pytest.fixture(autouse=True)
def _numpy_index_pass(monkeypatch):
    monkeypatch.setattr(PaSTRICompressor, "_index_pass", PaSTRICompressor._index_pass_numpy)
