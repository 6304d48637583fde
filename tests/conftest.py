import numpy as np
import pytest
from oracles import blas_dot_is_fma_chain

from bornsim import native, rod
from bornsim.geometry import random_frame, random_unit_vector

# normalize's norm is the SkylakeX fma chain on every kernel, so it equals
# numpy's v / np.linalg.norm(v) only where numpy's dot is that chain too
numpy_dot_is_the_chain = pytest.mark.skipif(
    not blas_dot_is_fma_chain(),
    reason="numpy's 3-term dot on this BLAS kernel is not the SkylakeX fma chain",
)


@pytest.fixture(autouse=True)
def fresh_rod_tree():
    """Each test starts with ``rod._tree``'s one-entry memo empty, so a
    count of the calls inside the tree does not depend on the test before."""
    rod._tree.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def numpy_only(monkeypatch):
    """The process as it runs where the C library does not load: the numpy
    fill, the float64 formula on every trial of the disk kernel, the numpy
    masks of the rod count step, and frames and dots on Python floats."""
    monkeypatch.setattr(native.LIBRARY, "load", lambda: None)


@pytest.fixture(params=["native", "numpy"])
def path(request):
    """A count step's path: its C body in the C library (skipped where the
    library does not load), or its numpy body, as a process without the
    library runs it. For the disk kernel the C body is the first pass with
    its float64 recheck, and the numpy body the float64 formula on every
    trial; for the rod, ``rod_count`` and the numpy masks."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_only")
    elif native.LIBRARY.load() is None:
        pytest.skip("the C library did not load: no C compiler")
    return request.param


def random_ray_frame_pairs(seed: int, n: int):
    """Seeded (ray-vector, Frame) pairs for bulk identity checks."""
    gen = np.random.default_rng(seed)
    for _ in range(n):
        yield random_unit_vector(gen), random_frame(gen)
