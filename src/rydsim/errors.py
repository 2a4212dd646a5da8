"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class CapExceededError(ValueError):
    """Requested dense realization exceeds the desk-scale size cap."""


class UnsupportedGeometryError(ValueError):
    """Lattice geometry not supported by the requested construction."""


class UnmappedTermError(ValueError):
    """Hamiltonian term has a non-real coefficient: no unitary Trotter factor."""


class IntegrationError(RuntimeError):
    """Time integration failed to reach the requested tolerance."""
