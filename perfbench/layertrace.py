"""Per-layer spans and counters recorded from outside the library.

`Tracer` replaces the public functions of each logfol module with
wrappers for the duration of a ``with`` block and puts the originals
back on exit.  Modules bind names with ``from .groebner import
saturate``, so every ``logfol.*`` namespace that holds the original
object is patched, not only the defining module; ``__init__`` methods
are patched on their class.

A span's *self time* is its duration minus the time covered by its child
spans; *inclusive* time is counted once for the outermost active span of
a name.  Counters are deterministic for a fixed problem sequence; the
timings are not.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "polynomials", "linalg", "groebner", "foliations", "indices", "chern")


def _order_name(order) -> str:
    return getattr(order, "name", None) or repr(order)


def _basis_key(generators, nvars, order):
    return (nvars, frozenset(generators), _order_name(order))


def _restrict_key(fol, arr, indices):
    return (tuple(fol.components), tuple(arr.forms), tuple(sorted(indices)))


# (module, attribute, span name, distinct key or None)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_spec", "cli.parse_spec", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("cli", "cmd_chern", "cli.cmd_chern", None),
    ("cli", "cmd_indices", "cli.cmd_indices", None),
    ("cli", "cmd_count_complement", "cli.cmd_count_complement", None),
    ("cli", "render_json", "cli.render", None),
    ("cli", "render_text", "cli.render", None),
    ("polynomials", "parse_polynomial", "polynomials.parse_polynomial", None),
    ("polynomials", "format_poly", "polynomials.format_poly", None),
    ("linalg", "rref", "linalg", None),
    ("linalg", "rank", "linalg", None),
    ("linalg", "invert", "linalg", None),
    ("linalg", "nullspace", "linalg", None),
    ("linalg", "complete_to_square", "linalg", None),
    ("linalg", "mat_vec", "linalg", None),
    # the reduced-basis engine behind buchberger() and Ideal.groebner_basis
    ("groebner", "_reduced_groebner", "groebner.buchberger", _basis_key),
    ("groebner", "divide", "groebner.divide", None),
    ("groebner", "s_polynomial", "groebner.spairs", None),
    ("groebner", "saturate", "groebner.saturate", None),
    ("groebner", "colon_by_ideal", "groebner.colon_by_ideal", None),
    ("groebner", "ideal_quotient", "groebner.ideal_quotient", None),
    ("groebner", "intersect", "groebner.intersect", None),
    ("groebner", "quotient_dimension", "groebner.quotient_dimension", None),
    ("foliations", "restrict_to_stratum", "foliations.restrict_to_stratum", _restrict_key),
    ("foliations", "validate_arrangement", "foliations.validate_arrangement", None),
    ("foliations", "is_logarithmic", "foliations.is_logarithmic", None),
    ("foliations", "require_logarithmic", "foliations.require_logarithmic", None),
    ("foliations", "build_stratum", "foliations.build_stratum", None),
    ("indices", "verify_instance", "indices.verify_instance", None),
    ("indices", "stratum_breakdown", "indices.stratum_breakdown", None),
    ("indices", "total_milnor", "indices.total_milnor", None),
    ("indices", "complement_milnor_sum", "indices.complement_milnor_sum", None),
    ("indices", "point_record", "indices.point_record", None),
    ("indices", "point_milnor", "indices.point_milnor", None),
    ("indices", "milnor_at_point", "indices.milnor_at_point", None),
    ("indices", "log_index_at_point", "indices.log_index_at_point", None),
    ("chern", "lhs_integral", "chern.lhs_integral", None),
    ("chern", "closed_form_sigma", "chern.closed_form_sigma", None),
    ("chern", "sigma_convention_note", "chern.sigma_convention_note", None),
]

# (module, class, span name, distinct key or None, counted only)
INITS = [
    ("polynomials", "MultiPoly", "polynomials.MultiPoly.init", None, True),
    ("foliations", "Foliation", "foliations.Foliation.init",
     lambda self, components: tuple(components), False),
]


class Tracer:
    """Patches logfol while active and accumulates spans and counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.basis_len_max = 0
        self.staircase_sum = 0
        self.spairs_useful = 0
        self._stack = []          # child time accumulated per open span
        self._active = Counter()  # open spans per name, for inclusive time
        self._last_spoly = None
        self._undo = []
        self._after = {"groebner.buchberger": self._basis, "groebner.spairs": self._spoly,
                       "groebner.divide": self._divide,
                       "groebner.quotient_dimension": self._staircase}

    # -------------------------------------------------------------- wrapping

    def _timed(self, name, fn, key):
        calls, distinct = self.calls, self.distinct
        stack, active = self._stack, self._active
        self_s, incl_s = self.self_s, self.incl_s
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                distinct[name].add(key(*args, **kwargs))
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] -= 1
                self_s[name] += elapsed - frame[0]
                if not active[name]:
                    incl_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # observers of results, called after the span closes
    def _basis(self, result, args):
        self.basis_len_max = max(self.basis_len_max, len(result))

    def _spoly(self, result, args):
        self._last_spoly = result

    def _divide(self, result, args):
        # _reduced_groebner divides each S-polynomial right after making it
        if args and args[0] is self._last_spoly:
            self._last_spoly = None
            if not result[1].is_zero():
                self.spairs_useful += 1

    def _staircase(self, result, args):
        if isinstance(result, int):  # INFINITE is a float
            self.staircase_sum += result

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "logfol" or name.startswith("logfol.")}
        for mod_name, attr, name, key in SPANS:
            home = modules.get(f"logfol.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue  # gone from this version: its counters stay at zero
            wrapper = self._timed(name, original, key)
            for mod in modules.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, bound, value))
                        setattr(mod, bound, wrapper)
        for mod_name, cls_name, name, key, count_only in INITS:
            cls = getattr(modules.get(f"logfol.{mod_name}"), cls_name, None)
            if cls is None:
                continue
            original = cls.__dict__["__init__"]
            wrapper = (self._counted(name, original) if count_only
                       else self._timed(name, original, key))
            self._undo.append((cls, "__init__", original))
            setattr(cls, "__init__", wrapper)
        return self

    def __exit__(self, *exc):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()
        return False

    # --------------------------------------------------------------- results

    def count_metrics(self) -> dict:
        """Deterministic counters; equal across runs of one problem sequence."""
        c = self.calls

        def distinct(name):
            return len(self.distinct[name])

        return {
            "polynomials.parse_polynomial.calls": c["polynomials.parse_polynomial"],
            "polynomials.MultiPoly.init.calls": c["polynomials.MultiPoly.init"],
            "linalg.calls": c["linalg"],
            "groebner.buchberger.calls": c["groebner.buchberger"],
            "groebner.buchberger.distinct": distinct("groebner.buchberger"),
            "groebner.basis_len.max": self.basis_len_max,
            "groebner.spairs": c["groebner.spairs"],
            "groebner.spairs_useful": self.spairs_useful,
            "groebner.saturate.calls": c["groebner.saturate"],
            "groebner.colon_by_ideal.calls": c["groebner.colon_by_ideal"],
            "groebner.intersect.calls": c["groebner.intersect"],
            "groebner.quotient_dimension.calls": c["groebner.quotient_dimension"],
            "groebner.staircase.sum": self.staircase_sum,
            "groebner.divide.calls": c["groebner.divide"],
            "foliations.Foliation.init.calls": c["foliations.Foliation.init"],
            "foliations.Foliation.init.distinct": distinct("foliations.Foliation.init"),
            "foliations.restrict_to_stratum.calls": c["foliations.restrict_to_stratum"],
            "foliations.restrict_to_stratum.distinct":
                distinct("foliations.restrict_to_stratum"),
            "foliations.validate_arrangement.calls": c["foliations.validate_arrangement"],
            "foliations.is_logarithmic.calls": c["foliations.is_logarithmic"],
            "indices.milnor_at_point.calls": c["indices.milnor_at_point"],
        }

    def layer_self_s(self) -> dict:
        """Self time summed per module; the layers add up to cli.main."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return out
