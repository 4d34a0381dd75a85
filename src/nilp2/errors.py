"""Exception types shared by the engine and the CLI."""


class Nilp2Error(Exception):
    """Base class for every validation or engine error in this package."""


class NotOddPrime(Nilp2Error):
    pass


class ModulusTooLarge(Nilp2Error):
    """The int64 sums of an operation could reach 2^63 for this modulus."""


class SpanDeficit(Nilp2Error):
    """Commutator vectors fail to span the full derived space."""

    def __init__(self, actual_rank: int, expected_dim: int):
        self.actual_rank = actual_rank
        self.expected_dim = expected_dim
        super().__init__(
            f"commutator vectors span a {actual_rank}-dimensional subspace, "
            f"expected the full {expected_dim}-dimensional space"
        )


class BadIndex(Nilp2Error):
    pass


class EntryOutOfRange(Nilp2Error):
    pass


class PresentationMismatch(Nilp2Error):
    pass


class AmbientMismatch(Nilp2Error):
    pass


class OrderExceedsCap(Nilp2Error):
    pass


class InconsistentMap(Nilp2Error):
    pass


class PreconditionCenterNotDerived(Nilp2Error):
    """Operation needs a nonabelian group; a nontrivial abelian group's
    center exceeds its derived subgroup."""


class InvalidIdentification(Nilp2Error):
    pass


class TrivialFactor(Nilp2Error):
    pass


class TrivialInput(Nilp2Error):
    pass


class BadMagic(Nilp2Error):
    pass


class ParseError(Nilp2Error):
    """A malformed input file; ``line_no`` is None for a fault of no one line."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class ResidueTooLarge(Nilp2Error):
    """A dense array sized from the input exceeds its cell budget."""
