"""Exception types shared across the package.

The CLI maps these onto its exit codes: input-shaped problems exit 2,
refutations exit 1, and InternalAssertionError exits 3.
"""


class SoftTopoError(Exception):
    """Base class for all package errors."""


class SignatureMismatch(SoftTopoError):
    """Operands are bound to different space signatures."""


class LiteralError(SoftTopoError):
    """A soft-set / signature / space / function literal is malformed."""


class BitCapExceeded(SoftTopoError):
    """An enumeration would exceed the configured lattice bit cap."""


class InvalidTopology(SoftTopoError):
    """A candidate open family violates a topology axiom."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


class CorpusError(SoftTopoError):
    """A corpus directory is missing, corrupt, inconsistent with its manifest,
    or cannot be written; so is a witness directory or a space file."""


class InternalAssertionError(SoftTopoError):
    """An asserted (Tier A) invariant failed: implementation bug by contract."""
