"""Exception types shared across the package."""


class BeliefContractsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(BeliefContractsError):
    """Problem file is malformed (bad syntax, missing keys, unknown utility family)."""


class ValidationError(BeliefContractsError):
    """An invariant on inputs is violated; the message names it and its location."""


class LengthMismatch(BeliefContractsError):
    """Two vectors that must share a state space have different lengths."""


class InvalidReduction(BeliefContractsError):
    """Requested outcome-lumping size is out of range."""


class IndexOrder(BeliefContractsError):
    """State indices passed in the wrong order (requires s_hi > s_lo)."""


class DomainError(BeliefContractsError):
    """Argument outside the utility function's domain or range."""


class NoBracket(BeliefContractsError):
    """A scalar root could not be bracketed within the admissible interval."""


class EpsilonTooLarge(BeliefContractsError):
    """A belief perturbation would leave the open probability simplex."""


class Infeasible(BeliefContractsError):
    """The constraint set of a cost-minimization program is empty."""


class Unbounded(BeliefContractsError):
    """Cost decreases without bound along the feasible subspace."""


class NegativeMultiplier(BeliefContractsError):
    """Active-set search exhausted without a sign-consistent multiplier vector."""


class KKTDegeneracy(BeliefContractsError):
    """A first-order-condition coefficient is non-positive at the candidate, violating interiority."""


class OutOfBranch(BeliefContractsError):
    """Wage argument outside the branch on which the closed-form chain is defined."""


class NoRootInBranch(BeliefContractsError):
    """The scalar closed-form equation has no root on its admissible branch."""


class NegativeMu(BeliefContractsError):
    """Closed-form incentive multiplier came out negative: the binding-IC regime does not apply."""


class RangeError(BeliefContractsError):
    """A promised-utility value falls outside the range of the utility function."""


class NoFeasiblePoint(BeliefContractsError):
    """Brute-force grid search found no point satisfying the constraints."""


class GridTooCoarse(BeliefContractsError):
    """Oracle grid found no feasible point although the solver produced one."""


class DimensionError(BeliefContractsError):
    """Operation requires a specific number of states."""
