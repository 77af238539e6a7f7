"""Fixtures shared by the test modules."""

import pytest

from taufp import lattice


@pytest.fixture
def radius_calls(monkeypatch):
    """The (size, bytes) of each block whose radius the FP scan kernel
    lattice._largest_rho computes, in order: at most one per distinct key
    that a scan hands it, and none for a block its bound skips."""
    calls = []
    radius = lattice.spectral_radius

    def counted(q, *args, **kwargs):
        calls.append((q.n, q.adj.tobytes()))
        return radius(q, *args, **kwargs)

    monkeypatch.setattr(lattice, "spectral_radius", counted)
    return calls
