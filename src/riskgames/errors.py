"""Exception types and the work guard shared across the library."""

STATE_GUARD = 30_000  # belief states, or (node, periods left) entries, a cycle may project to its horizon


def _count_text(n: int) -> str:
    """``n`` in digits, or as ``at least 2^k`` when a long horizon makes it too long for digits."""
    return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


class RiskGamesError(Exception):
    """Base class for all library-specific failures."""


class IllegalMoveError(RiskGamesError, ValueError):
    """An action names a direction with no matching edge, or STOP off a terminal."""


class PathError(RiskGamesError, ValueError):
    """A path is disconnected, too long, or does not end at a terminal."""


class ZeroProbabilityObservation(RiskGamesError, ValueError):
    """A Bayes update conditioned on an observation no supported type emits."""


class UnreachableTerminalError(RiskGamesError, ValueError):
    """No terminal can be reached and stopped at within the horizon."""


class UnsupportedAggregatorError(RiskGamesError, ValueError):
    """The requested machine aggregator is outside what the exact solver supports."""


class AggregatorFlagError(RiskGamesError, ValueError):
    """An aggregator override is neither 'expectation' nor 'cvar:<alpha>' with a numeric alpha."""


class SweepFlagError(RiskGamesError, ValueError):
    """A sweep's ``--axis`` names no type, its ``--grid`` has fewer than two
    points, or its ``--out`` file cannot be opened for writing or written."""


class EquilibriumVerificationError(RiskGamesError):
    """A solved policy fails one of the equilibrium conditions it is checked against."""


class EnumerationGuardError(RiskGamesError, RuntimeError):
    """An exhaustive enumeration would exceed its size guard."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


class DeviationBudgetError(RiskGamesError, RuntimeError):
    """Equilibrium verification would explore more deviations than budgeted."""

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget


class SpecValidationError(RiskGamesError, ValueError):
    """A game spec failed validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ScenarioError(RiskGamesError, ValueError):
    """A scenario file failed to parse or validate; carries all problems found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
