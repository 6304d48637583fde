import numpy as np
import pytest

from bornsim import native
from bornsim.geometry import random_frame, random_unit_vector


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def numpy_only(monkeypatch):
    """The process as it runs where the C library does not load: the numpy
    fill, and the float64 formula on every trial of the disk kernel."""
    monkeypatch.setattr(native.LIBRARY, "load", lambda: None)


def random_ray_frame_pairs(seed: int, n: int):
    """Seeded (ray-vector, Frame) pairs for bulk identity checks."""
    gen = np.random.default_rng(seed)
    for _ in range(n):
        yield random_unit_vector(gen), random_frame(gen)
