"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A configured size bound (group order, search budget) was exceeded."""


class InconclusiveError(RuntimeError):
    """A sampling-based computation could not reach a verdict."""


class ParseError(ValueError):
    """Malformed polynomial or permutation text.

    Carries the 0-based offset of the offending character in ``position``.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class FixtureError(ValueError):
    """A fixture file failed validation; ``location`` names the bad field."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class ReferenceMismatchError(DomainError):
    """Sieve evidence that refutes the reference group of a sweep.

    For ``t`` outside the exclusion set the Galois group of ``P(t, X)`` is
    conjugate to a subgroup of the generic group, so a residue cycle type
    that no subgroup of the reference (of the right parity) contains proves
    the reference wrong.  Carries ``t`` (None until the sweep fills it in),
    the ``prime`` and its ``cycle_type``, and the ``reference`` label.
    """

    def __init__(self, prime: int, cycle_type, reference: str | None, t=None):
        self.prime = prime
        self.cycle_type = tuple(cycle_type)
        self.reference = reference
        self.t = t
        super().__init__(prime, self.cycle_type, reference, t)

    def __str__(self) -> str:
        at = "" if self.t is None else f"t = {self.t}: "
        return (
            f"{at}cycle type {list(self.cycle_type)} mod {self.prime} fits no "
            f"subgroup of the reference group {self.reference or '?'} of the "
            f"discriminant's parity"
        )
