"""The package's one exception type.  Bad input raises ``ValueError``, which
the CLI reports as a usage error (exit 2); a run that outgrows a size or
step cap raises :class:`CapExceededError`, a runtime failure (exit 1)."""


class CapExceededError(RuntimeError):
    """A run needs more than a desk-scale cap allows: a dense matrix, state
    vector, Fock basis, register, integration or draw counter."""
