"""Exception taxonomy.

Everything raised on a bad computation (as opposed to a bad call) derives
from CalcError so the CLI can map it to a single exit code.
"""

from __future__ import annotations

from typing import Dict


class CalcError(Exception):
    """Base class for computation failures."""


class UnassignedVariableError(CalcError):
    """Evaluation met a variable with no assigned value."""

    def __init__(self, name: str):
        super().__init__(f"no value assigned for variable {name}")
        self.variable_name = name


class NonDivisibleError(CalcError):
    """Exact polynomial division left a nonzero remainder."""


class ConstantFormError(CalcError):
    """A linear form without z-variables where an expansion variable is required."""


class TruncationUnstableError(CalcError):
    """The exact residue needs a deeper expansion than the order budget allows."""


class CoincidentPoleError(CalcError):
    """Two symbolic poles coincide, so simple-pole residue sums do not apply."""


class MissingQhatError(CalcError):
    """No registered numerator polynomial for the requested singularity order."""


class CodimensionMismatchError(CalcError):
    """Chern substitution called with k - n different from the polynomial's codimension."""


class InfiniteStaircaseError(CalcError):
    """A standard-monomial count that is not finite."""


class SPairBudgetError(CalcError):
    """Buchberger ran past its S-pair budget.

    ``counts`` holds what the run reached: pairs taken from the queue,
    pairs reduced, pairs skipped by the coprime and by the chain criterion,
    and the basis size."""

    def __init__(self, budget: int, counts: Dict[str, int]):
        super().__init__(
            f"more than {budget} S-pairs: {counts['taken']} taken, {counts['reduced']} reduced, "
            f"{counts['coprime']} skipped as coprime, {counts['chain']} skipped by the chain "
            f"criterion, basis size {counts['basis']}"
        )
        self.budget = budget
        self.counts = counts


class WeightInhomogeneityError(CalcError):
    """An object that must be torus-weight homogeneous is not."""


class MissingGeneratorError(CalcError):
    """The stated linear generator is not in the ideal's generating set."""


class DerivationError(CalcError):
    """A derived numerator disagrees with the registry, or the relations
    it is split along are not the expected ones."""


class QhatFormatError(CalcError):
    """A numerator plugin file that fails structural validation."""
