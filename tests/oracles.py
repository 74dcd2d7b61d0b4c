"""Fixtures shared by several test modules; nothing under src/ uses them."""

from orderlab.fol import FiniteStructure


def linear_order_structure(n, name="R"):
    """The strict linear order 0 < 1 < ... < n-1 as a structure."""
    tuples = [(i, j) for i in range(n) for j in range(n) if i < j]
    return FiniteStructure(range(n), {name: (2, tuples)})
