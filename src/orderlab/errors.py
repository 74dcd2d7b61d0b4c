"""Exception types shared across the package.

Every operation raises a subclass of OrderlabError so callers can catch
library failures without masking programming errors.  A message that quotes
an item the caller supplied quotes it through `brief`.
"""

import reprlib


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return f"<int of {x.bit_length()} bits>"


_BRIEF = _Brief()
_BRIEF.maxlevel = 3
_BRIEF.maxstring = _BRIEF.maxother = 40
BRIEF_LEN = 100


def brief(item):
    """repr(item), with long arrays, strings and nesting elided by "..." and
    the whole cut to BRIEF_LEN characters, so that an error message stays
    short whatever the size of the item it quotes."""
    text = _BRIEF.repr(item)
    return text if len(text) <= BRIEF_LEN else text[:BRIEF_LEN - 3] + "..."


class OrderlabError(Exception):
    pass


class InputError(OrderlabError):
    """An input document does not follow its schema, or a command-line
    argument is malformed."""


# --- partial orders -------------------------------------------------------

class CycleError(OrderlabError):
    """Transitive closure of the given edges would relate an element to itself."""


class DomainError(OrderlabError):
    """A map is not total on (or not into) the required carrier set."""


# --- bounded sequence spaces ----------------------------------------------

class ProfileError(OrderlabError):
    """A sequence does not match the coordinate-bound profile an operation expects."""


# --- universal asymmetric relation ------------------------------------------

class DisjointnessError(OrderlabError):
    """The two prescribed neighbour sets overlap."""


class AsymmetryError(OrderlabError):
    """A binary relation violates asymmetry or irreflexivity."""


# --- depletions -------------------------------------------------------------

class LevelError(OrderlabError):
    """Walk endpoints are not in the extreme fibers of the index set."""


class MembershipError(OrderlabError):
    """An element is outside the carrier of the requested relation."""


class IndexLabelError(OrderlabError):
    """An index label is missing from the instance, or a label pair is degenerate."""


# --- reduced products -------------------------------------------------------

class FilterError(OrderlabError):
    """A set family fails the filter axioms (properness, upward and meet closure)."""


class FormulaError(OrderlabError):
    """A formula is malformed or not of the syntactic class an operation accepts."""


class ArityError(OrderlabError):
    """A tuple length does not match a declared relation arity."""


class BudgetError(OrderlabError):
    """An exact search was requested beyond the supported instance size."""


# --- condition calculus -----------------------------------------------------

class RootError(OrderlabError):
    """Pairwise domain intersections of the parts differ from the declared root."""


class AgreementError(OrderlabError):
    """Parts disagree on the root below their common depth."""


class AmalgamationError(OrderlabError):
    """The constructed amalgam fails to extend one of its parts."""


class PreconditionError(OrderlabError):
    """The dense set is not defined for the requested arguments."""


class DepthError(OrderlabError):
    """A sequence or decomposition is too shallow for the requested check."""


class ScheduleError(OrderlabError):
    """A build schedule references elements outside the ground order."""


class InvariantError(OrderlabError):
    """A construction's result lacks a property that the construction guarantees."""


class HypothesisError(OrderlabError):
    """A split instance fails its interpolation requirements."""


class ChainTooShortError(OrderlabError):
    """A coordinate factor does not supply a long enough chain."""


# --- clopen algebra ---------------------------------------------------------

class CanonicalityError(OrderlabError):
    """A clopen description is not a canonical prefix-free antichain."""
