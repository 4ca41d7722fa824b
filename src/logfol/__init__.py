"""Exact verification of a residue identity for foliations on P^n.

A degree-d one-dimensional foliation that leaves every hyperplane of a
normal-crossing arrangement invariant satisfies an exact balance: the
top Chern number of the log tangent bundle twisted against the
foliation's tangent line equals the sum of local logarithmic indices
over the singular points.  This package computes both sides with exact
rational arithmetic, each by an independent route, and exposes the
local index machinery (Milnor numbers, logarithmic and homological
indices) on top of a small Groebner engine.

The package root holds the entry points only; everything else is
imported from its module (`logfol.indices`, `logfol.groebner`, ...).
"""

from .cli import main, parse_spec
from .errors import InputError
from .foliations import Arrangement, Foliation, Instance
from .indices import verify_instance

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Foliation",
    "InputError",
    "Instance",
    "main",
    "parse_spec",
    "verify_instance",
]
