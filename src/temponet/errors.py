"""Exception types shared across the package."""

from collections import Counter


class TemponetError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(TemponetError):
    """Invalid configuration or input data."""

    exit_code = 2


class GraphabilityError(TemponetError):
    """Sequences cannot be realized as a simple clustered graph."""

    exit_code = 3

    @classmethod
    def exhausted(cls, t: int, noun: str, failures: list[str]) -> "GraphabilityError":
        """The error ending timestep ``t``'s retry loop, naming each failed ``noun``.

        A failure that is itself a timestep-``t`` error loses its repeated
        ``timestep t:`` prefix.
        """
        prefix = f"timestep {t}: "
        tally = Counter(why.removeprefix(prefix) for why in failures)
        reasons = "; ".join(why if n == 1 else f"{why} (x{n})" for why, n in tally.items())
        return cls(f"{prefix}{len(failures)} {noun}(s) failed: {reasons}")


class WiringError(TemponetError):
    """Stub pairing failed after exhausting the repair budget."""

    exit_code = 4


class LatticeOverflowError(TemponetError):
    """Solution space larger than the enumeration cap.

    ``temponet flow`` catches it and prints the solution count as "not
    enumerated"; acceptance test 3 skips an instance that raises it.
    """

    def __init__(self, cap, partial_count):
        super().__init__(f"more than {cap} lattice points (stopped at {partial_count})")
        self.cap = cap
        self.partial_count = partial_count
