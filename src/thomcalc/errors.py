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

    ``counts`` holds what the run reached.  ``taken`` counts the pairs
    formed, one with each live element as an element enters the basis, and
    is what the budget bounds.  ``reduced`` counts the pairs whose
    S-polynomial was reduced, ``coprime`` the new pairs dropped for coprime
    leads, ``chain`` the pairs dropped by the Gebauer-Moeller criteria (a
    new pair's lcm a multiple of another's, or a queued pair's lcm divided
    by the new lead), and ``basis`` the basis size."""

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


class DerivationError(CalcError):
    """A derived numerator disagrees with the registry, or the relations
    it is split along are not the expected ones."""


class QhatFormatError(CalcError):
    """A numerator plugin file that fails structural validation."""
