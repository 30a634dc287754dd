"""Shared fixtures: RNG, synthetic patterned streams, tiny real ERI data."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.chem import ERIEngine, benzene, generate_dataset
from repro.chem.basis import BasisSet, Shell
from repro.chem.molecule import Atom, Molecule
from repro.core.blocking import BlockSpec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_patterned_stream(
    rng: np.random.Generator,
    n_blocks: int = 20,
    dims: tuple[int, int, int, int] = (6, 6, 6, 6),
    amp: float = 1e-7,
    rel_dev: float = 1e-3,
    zero_blocks: int = 2,
) -> np.ndarray:
    """ERI-like stream: outer-product blocks with small deviations."""
    spec = BlockSpec(dims)
    M, L = spec.num_sb, spec.sb_size
    bra = rng.standard_normal((n_blocks, M, 1))
    ket = rng.standard_normal((n_blocks, 1, L))
    blocks = amp * bra * ket * (1.0 + rel_dev * rng.standard_normal((n_blocks, M, L)))
    blocks[:zero_blocks] = 0.0
    return blocks.reshape(-1)


@pytest.fixture
def patterned_stream(rng) -> np.ndarray:
    return make_patterned_stream(rng)


@pytest.fixture(scope="session")
def tiny_eri_dataset():
    """A small real (dd|dd) dataset from the integral engine (cached)."""
    return generate_dataset(benzene(), "(dd|dd)", n_blocks=30, seed=3)


@pytest.fixture(scope="session")
def small_shell_basis():
    """Four single-primitive shells (s, p, d, f) on spread-out centers."""
    mol = Molecule("probe", (Atom("H", (0, 0, 0)), Atom("H", (0, 0, 2.0))))
    shells = (
        Shell(0, (0.0, 0.0, 0.0), (0.9,), (1.0,)),
        Shell(1, (0.6, -0.4, 0.8), (1.1,), (1.0,)),
        Shell(2, (1.2, 0.5, -0.3), (0.8,), (1.0,)),
        Shell(3, (-0.7, 1.0, 0.4), (0.7,), (1.0,)),
    )
    return BasisSet(mol, shells)


@pytest.fixture(scope="session")
def eri_engine(small_shell_basis):
    return ERIEngine(small_shell_basis)


#: test paths that must close every file handle they open (tests/faults/
#: is out: it leaves handles open on purpose to simulate kills)
_RESOURCE_GATED = (
    "tests/bitio/",
    "tests/core/",
    "tests/properties/",
    "tests/parallel/",
    "tests/pipeline/",
    "tests/zfp/",
    "tests/test_streamio.py",
    "tests/test_container.py",
    "tests/test_container_truncation.py",
)
#: test paths that must leave no unraisable exception behind
_TEARDOWN_GATED = ("tests/service/", "tests/cluster/") + _RESOURCE_GATED


def pytest_collection_modifyitems(items):
    """Teardown gate: an unraisable exception in a gated test (a connection
    outliving its event loop: "Event loop is closed", a pending task
    destroyed) fails the test instead of warning; in the resource-gated
    paths so does a ResourceWarning (an unclosed file or socket)."""
    unraisable = pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    resource = pytest.mark.filterwarnings("error::ResourceWarning")
    for item in items:
        if item.nodeid.startswith(_TEARDOWN_GATED):
            item.add_marker(unraisable)
        if item.nodeid.startswith(_RESOURCE_GATED):
            item.add_marker(resource)


def pytest_collection_finish(session):
    """Move what collection left alive (modules, classes, functions,
    module-level data) into the collector's permanent generation: the gated
    tests' ``gc.collect()`` calls below then walk only objects created
    since, which keeps each one to a few milliseconds.  Objects a test
    creates are never frozen, so its leaks still surface."""
    gc.collect()
    gc.freeze()


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_protocol(item, nextitem):
    """Before a resource-gated test, and outside its warning filters,
    collect the cyclic garbage earlier tests left: a handle leaked
    elsewhere must not fail whichever gated test the collector runs in."""
    if item.nodeid.startswith(_RESOURCE_GATED):
        gc.collect()
    return (yield)


@pytest.fixture(autouse=True)
def _collect_own_garbage(request):
    """After a resource-gated test, inside its warning filters, collect its
    cyclic garbage: a handle the test leaked in a reference cycle fails it."""
    yield
    if request.node.nodeid.startswith(_RESOURCE_GATED):
        gc.collect()
