import numpy as np
import pytest

import liens.lie_propagator
from liens import Grid, RealVectorField, SpectralVectorField, to_spectral
from liens.reference_oracles import random_divfree


@pytest.fixture
def grid2d():
    return Grid(dim=2, n=32)


@pytest.fixture
def zero_field_2d(grid2d):
    return SpectralVectorField(
        grid2d, np.zeros((grid2d.dim, *grid2d.spectral_shape), dtype=np.complex128)
    )


@pytest.fixture
def grid3d():
    return Grid(dim=3, n=16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_real_field(grid, rng):
    """Smooth random real vector field (band-limited, unit-ish amplitude)."""
    data = np.zeros((grid.dim, *grid.shape))
    mesh = grid.mesh()
    for c in range(grid.dim):
        for _ in range(4):
            ks = rng.integers(1, 4, size=grid.dim)
            phases = rng.uniform(0, 2 * np.pi, size=grid.dim)
            wave = np.ones(grid.shape)
            for a in range(grid.dim):
                wave = wave * np.cos(ks[a] * mesh[a] + phases[a])
            data[c] += rng.normal() * wave
    return RealVectorField(grid, data)


def random_spectral_field(grid, rng):
    return to_spectral(random_real_field(grid, rng))


@pytest.fixture
def random_divfree_2d(grid2d):
    return random_divfree(seed=42, grid=grid2d, peak_k=3, amplitude=1.0)


@pytest.fixture
def random_divfree_3d(grid3d):
    return random_divfree(seed=42, grid=grid3d, peak_k=3, amplitude=1.0)


@pytest.fixture
def lie_kernels(monkeypatch):
    """The (grid, nu) of every ``leray.Kernel`` that ``lie_propagator``
    builds while the test runs."""
    built = []
    kernel = liens.lie_propagator.Kernel

    def counting(grid, nu):
        built.append((grid, nu))
        return kernel(grid, nu)

    monkeypatch.setattr(liens.lie_propagator, "Kernel", counting)
    return built
