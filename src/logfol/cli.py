"""Command line front end.

Reads a JSON problem description, validates it, and runs one of the
subcommands: ``verify`` (compare the Chern-number side with the
stratified index side), ``chern`` (just the integral), ``indices``
(per-point table) or ``count-complement`` (singularities off the
divisor).

Input schema::

    {
      "n": 2,
      "foliation": ["0", "z1*(z1 - z0)", "z2*(z2 - z0)"],
      "hyperplanes": ["z0", "z1", "z2"],
      "points": [["1", "1", "1"], ["1", "0", "0"]]
    }

Polynomials use variables z0..zn with integer or rational ("p/q")
coefficients and the operators + - * ^ and parentheses.  ``points`` is
optional; entries are homogeneous coordinates.  Exit status: 0 when the
command succeeds (for ``verify``, when both sides agree), 1 when
verification fails, 2 on any validation error, 3 on an internal error.

The divisor components accepted here are hyperplanes.  The underlying
Chern-class routines also handle higher-degree smooth components; that
generality has no index-side counterpart, so the CLI does not expose it.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .chern import closed_form_sigma, lhs_integral, sigma_convention_note
from .errors import SYNTAX_ERROR, InputError
from .foliations import Arrangement, Foliation, Instance, ambient_names
from .indices import (
    RationalPoint,
    chern_input,
    complement_milnor_sum,
    point_record,
    verify_instance,
)
from .polynomials import parse_polynomial


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem description: its validated `Instance` and points.

    Every command reads the foliation, its chart bases and its stratum
    restrictions from `instance`, which `parse_spec` builds once.
    """

    instance: Instance
    points: tuple


def _fail(message: str) -> InputError:
    return InputError(SYNTAX_ERROR, message)


def parse_spec(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem document.

    Raises InputError with a field locus in the message; the error code
    identifies the first failing validation layer.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # nesting past the decoder's recursion limit, or an integer literal
        # past the interpreter's digit limit
        raise _fail(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _fail("top level must be a JSON object")
    unknown = set(doc) - {"n", "foliation", "hyperplanes", "points"}
    if unknown:
        raise _fail(f"unknown fields: {', '.join(sorted(unknown))}")

    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise _fail("field 'n': expected an integer >= 1")
    names = ambient_names(n)

    raw_comps = doc.get("foliation")
    if not isinstance(raw_comps, list) or len(raw_comps) != n + 1:
        raise _fail(f"field 'foliation': expected a list of {n + 1} "
                    "polynomial strings")
    components = []
    for i, item in enumerate(raw_comps):
        if not isinstance(item, str):
            raise _fail(f"foliation[{i}]: expected a string")
        try:
            components.append(parse_polynomial(item, names))
        except ValueError as exc:
            raise _fail(f"foliation[{i}]: {exc}") from None

    raw_forms = doc.get("hyperplanes", [])
    if not isinstance(raw_forms, list):
        raise _fail("field 'hyperplanes': expected a list of linear forms")
    forms = []
    for i, item in enumerate(raw_forms):
        if not isinstance(item, str):
            raise _fail(f"hyperplanes[{i}]: expected a string")
        try:
            forms.append(parse_polynomial(item, names))
        except ValueError as exc:
            raise _fail(f"hyperplanes[{i}]: {exc}") from None

    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        raise _fail("field 'points': expected a list of coordinate lists")
    points = []
    for i, item in enumerate(raw_points):
        if not isinstance(item, list) or len(item) != n + 1:
            raise _fail(f"points[{i}]: expected {n + 1} homogeneous "
                        "coordinates")
        try:
            points.append(RationalPoint.parse(item))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise _fail(f"points[{i}]: {exc}") from None

    # every structural validation runs here, once; commands trust the instance
    instance = Instance(Foliation(components), Arrangement(n, forms))
    return ProblemSpec(instance=instance, points=tuple(points))


# ------------------------------------------------------------------ payloads


def _point_payload(rec) -> dict:
    return {
        "point": rec.point.display(),
        "coordinates": [str(c) for c in rec.point.coords],
        "on_hyperplanes": list(rec.on_divisor),
        "singular": rec.singular,
        "milnor": rec.milnor,
        "log_index": rec.log_index,
        "hom_index": rec.hom_index,
    }


def _stratum_payload(s) -> dict:
    return {
        "hyperplanes": list(s.indices),
        "dim": s.dim,
        "sign": s.sign,
        "total_milnor": s.total,
    }


def _payload(command: str, inst: Instance, **fields) -> dict:
    """A report: the keys every command shares around the command's `fields`."""
    return {"command": command, "n": inst.fol.n, "degree": inst.fol.degree,
            "hyperplanes": len(inst.arr.forms), **fields, "warnings": []}


def _add_sigma(payload: dict, inst: Instance) -> dict:
    """Add the closed form of a payload's Chern number and the sign reminder."""
    sigma = closed_form_sigma(chern_input(inst))
    payload.update(sigma_closed_form=sigma,
                   sigma_matches=sigma == payload["lhs_chern"],
                   warnings=[sigma_convention_note()])
    return payload


def cmd_verify(spec: ProblemSpec, check_sigma: bool = False) -> dict:
    report = verify_instance(spec.instance, spec.points)
    payload = _payload("verify", spec.instance,
                       lhs_chern=report.lhs_chern,
                       rhs_total=report.rhs_total,
                       verified=report.verified,
                       strata=[_stratum_payload(s) for s in report.strata],
                       points=[_point_payload(r) for r in report.points])
    return _add_sigma(payload, spec.instance) if check_sigma else payload


def cmd_chern(spec: ProblemSpec, check_sigma: bool = False) -> dict:
    payload = _payload("chern", spec.instance,
                       lhs_chern=lhs_integral(chern_input(spec.instance)))
    return _add_sigma(payload, spec.instance) if check_sigma else payload


def cmd_indices(spec: ProblemSpec, extra_points=()) -> dict:
    points = list(spec.points) + list(extra_points)
    records = [point_record(spec.instance, p) for p in points]
    return _payload("indices", spec.instance,
                    points=[_point_payload(r) for r in records])


def cmd_count_complement(spec: ProblemSpec) -> dict:
    return _payload("count-complement", spec.instance,
                    complement_milnor_sum=complement_milnor_sum(spec.instance))


# ----------------------------------------------------------------- rendering


def _point_lines(payload) -> list:
    lines = []
    for rec in payload:
        where = ("on hyperplanes " + ",".join(str(i) for i in rec["on_hyperplanes"])
                 if rec["on_hyperplanes"] else "off divisor")
        bits = [f"point {rec['point']}: {where}",
                "singular" if rec["singular"] else "nonsingular",
                f"mu={rec['milnor']}", f"log={rec['log_index']}"]
        if rec["hom_index"] is not None:
            bits.append(f"hom={rec['hom_index']}")
        lines.append("  " + ", ".join(bits))
    return lines


def render_text(payload: dict) -> str:
    lines = [f"instance: P^{payload['n']}, degree {payload['degree']} "
             f"foliation, {payload['hyperplanes']} hyperplanes"]
    if payload["command"] in ("verify", "chern"):
        lines.append(f"lhs chern integral: {payload['lhs_chern']}")
    if payload["command"] == "verify":
        lines.append(f"rhs stratified total: {payload['rhs_total']}")
        lines.append("verified: " + ("yes" if payload["verified"] else "no"))
        lines.append("strata (sign * total milnor):")
        for s in payload["strata"]:
            label = "{" + ",".join(str(i) for i in s["hyperplanes"]) + "}"
            lines.append(f"  {label} dim {s['dim']}: "
                         f"{'+' if s['sign'] > 0 else '-'}{s['total_milnor']}")
    if payload["command"] == "count-complement":
        lines.append(f"complement milnor sum: {payload['complement_milnor_sum']}")
    if payload.get("points"):
        lines.append("points:")
        lines.extend(_point_lines(payload["points"]))
    if "sigma_closed_form" in payload:
        agrees = "agrees" if payload["sigma_matches"] else "DISAGREES"
        lines.append(f"sigma closed form: {payload['sigma_closed_form']} "
                     f"({agrees})")
    for note in payload["warnings"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- entrypoint


def _parse_cli_point(text: str, n: int) -> RationalPoint:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != n + 1:
        raise _fail(f"--point {text!r}: expected {n + 1} comma-separated "
                    "coordinates")
    try:
        return RationalPoint.parse(parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(f"--point {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logfol",
        description="Exact residue bookkeeping for foliations logarithmic "
                    "along hyperplane arrangements.")
    parser.add_argument("--report", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="compare the Chern integral with the index sum")
    p_verify.add_argument("file", help="JSON problem description")
    p_verify.add_argument("--check-sigma", action="store_true",
                          help="also evaluate the closed form and report "
                               "the sign convention")

    p_chern = sub.add_parser(
        "chern", help="compute the Chern-number side only")
    p_chern.add_argument("file")
    p_chern.add_argument("--check-sigma", action="store_true",
                         help="also evaluate the closed form and report "
                              "the sign convention")

    p_idx = sub.add_parser(
        "indices", help="per-point Milnor / log / hom index table")
    p_idx.add_argument("file")
    p_idx.add_argument("--point", action="append", default=[],
                       metavar="a,b,c",
                       help="extra rational point in homogeneous coordinates "
                            "(repeatable)")

    p_cc = sub.add_parser(
        "count-complement", help="total Milnor number off the divisor")
    p_cc.add_argument("file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise _fail(f"cannot read {args.file}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise _fail(f"cannot read {args.file}: not UTF-8 text "
                        f"(byte {exc.start}: {exc.reason})") from None
        spec = parse_spec(text)
        if args.command == "verify":
            payload = cmd_verify(spec, check_sigma=args.check_sigma)
        elif args.command == "chern":
            payload = cmd_chern(spec, check_sigma=args.check_sigma)
        elif args.command == "indices":
            extra = [_parse_cli_point(raw, spec.instance.fol.n) for raw in args.point]
            payload = cmd_indices(spec, extra)
        else:
            payload = cmd_count_complement(spec)
    except InputError as exc:
        print(f"error {exc.code}: {exc.message}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    renderer = render_json if args.report == "json" else render_text
    sys.stdout.write(renderer(payload))
    if payload.get("verified") is False:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
