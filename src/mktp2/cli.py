"""Command-line front end: classify, check, witness, sample, grid-export.

Reports are JSON on stdout (or ``--out``); a verdict of "fails" is a result,
not a process failure.  Exit codes: 0 success, 2 usage error (including a
grid above :data:`~mktp2.grids.MAX_GRID` points per axis), 3 witness not
applicable (the property holds or does not apply: nothing to construct), 4
numerical failure (an evaluation degenerated, or a constructive search ran
out of budget).
Reports contain no wall-clock data (elapsed time goes to stderr) so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from . import archimedean as arch
from . import extreme_value as evc
from .errors import MkTp2Error, NumericalError, SearchFailed, ValidationError
from .grids import GridConfig, Rectangle
from .properties import (
    PROPERTIES,
    Status,
    _band,
    _grid_eval,
    counterexample_search,
    property_verdicts,
    rectangle_defect,
)
from .registry import build, family_names
from .sampler import sample, write_csv, write_grid_csv

USAGE_ERROR = 2
WITNESS_NOT_APPLICABLE = 3
NUMERICAL_FAILURE = 4


def _parse_params(text):
    """--param key=value[,key=value]; finite decimal-point floats only."""
    if not text:
        return {}
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValidationError(f"malformed --param entry {chunk!r}; expected key=value")
        key, _, raw = chunk.partition("=")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValidationError(f"parameter {key!r} has non-numeric value {raw!r}") from exc
        if not math.isfinite(value):
            raise ValidationError(f"parameter {key!r} has non-finite value {raw!r}")
        key = key.strip()
        if key in out:
            raise ValidationError(f"parameter {key!r} is given more than once")
        out[key] = value
    return out


def _parse_rect(text):
    """--rect u1,u2,v1,v2; each part a decimal-point float."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(f"--rect needs u1,u2,v1,v2, got {text!r}")
    coords = []
    for name, raw in zip(("u1", "u2", "v1", "v2"), parts):
        try:
            coords.append(float(raw))
        except ValueError as exc:
            raise ValidationError(f"--rect {name} has non-numeric value {raw!r}") from exc
    return Rectangle(*coords)


def _grid_from_args(args):
    return GridConfig(
        n_u=args.grid,
        n_v=args.grid,
        margin=args.margin,
        tol_eq=args.tol_eq,
        tol_strict=args.tol_strict,
        spacing=args.spacing,
    )


def _check_out(path):
    """Reject an ``--out`` path that cannot be written, before any work is done."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ValidationError(f"cannot write --out {path!r}")


def _report_skeleton(family, params, grid):
    return {
        "tool": "mktp2",
        "version": __version__,
        "family": family,
        "params": {k: float(v) for k, v in sorted(params.items())},
        "grid": grid.describe(),
        "results": [],
    }


def _entry_dict(prop, verdict):
    name = str(verdict.certificate.get("method", "grid"))
    out = {
        "property": prop,
        "status": verdict.status.value,
        "method": "analytic" if name.startswith("analytic") else "grid",
        "certificate": verdict.certificate,
        "witness": verdict.witness.describe() if verdict.witness else None,
    }
    if verdict.note:
        out["note"] = verdict.note
    return out


def _verdicts(entry, obj, copula, grid, props):
    """Verdicts of ``props`` for a built family, keyed by property.

    Generator- and Pickands-level equivalences beat a grid scan where they
    apply; every other family is scanned on the grid.
    """
    if entry.kind == "archimedean":
        return arch.property_verdicts(obj, grid, props)
    if entry.kind == "evc":
        return evc.property_verdicts(obj, grid, props)
    return property_verdicts(copula, grid, props)


def _emit(report, args):
    payload = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_classify(args):
    entry, obj, copula = build(args.family, _parse_params(args.param))
    grid = _grid_from_args(args)
    report = _report_skeleton(copula.label, _parse_params(args.param), grid)
    table = _verdicts(entry, obj, copula, grid, PROPERTIES)
    report["results"] = [_entry_dict(p, table[p]) for p in PROPERTIES]
    _emit(report, args)
    return 0


def cmd_check(args):
    entry, obj, copula = build(args.family, _parse_params(args.param))
    grid = _grid_from_args(args)
    report = _report_skeleton(copula.label, _parse_params(args.param), grid)
    prop = args.property
    if args.rect:
        rect = _parse_rect(args.rect)
        defect, values = rectangle_defect(copula, prop, rect)
        status = _band(defect, grid.tol_eq, grid.tol_strict)
        report["results"].append(
            {
                "property": prop,
                "status": status.value,
                "method": "rectangle",
                "certificate": {"method": "rectangle", "rect": list(rect.as_tuple())},
                "witness": {
                    "kind": "rectangle",
                    "points": list(rect.as_tuple()),
                    "values": [float(x) for x in values],
                    "defect": float(defect),
                },
            }
        )
    else:
        verdict = _verdicts(entry, obj, copula, grid, (prop,))[prop]
        report["results"].append(_entry_dict(prop, verdict))
    _emit(report, args)
    return 0


def cmd_witness(args):
    entry, obj, copula = build(args.family, _parse_params(args.param))
    grid = _grid_from_args(args)
    prop = args.property
    report = _report_skeleton(copula.label, _parse_params(args.param), grid)

    # a generator- or Pickands-level verdict that holds or does not apply
    # settles it; the Pickands tree's MK-TP2 witness is kept, and every other
    # case is searched, as for a core family
    verdict = None if entry.kind == "core" else _verdicts(entry, obj, copula, grid, (prop,))[prop]
    settled = verdict is not None and verdict.status in (Status.HOLDS, Status.NOT_APPLICABLE)
    built = entry.kind == "evc" and prop == "mktp2" and verdict.witness is not None
    if not (settled or built):
        verdict = counterexample_search(copula, prop, grid)

    if verdict.status in (Status.HOLDS, Status.NOT_APPLICABLE):
        note = f": {verdict.note}" if verdict.note else ""
        method = verdict.certificate.get("method")
        sys.stderr.write(f"no witness: {prop} {verdict.status.value} by {method} for {copula.label}{note}\n")
        return WITNESS_NOT_APPLICABLE

    report["results"].append(_entry_dict(prop, verdict))
    _emit(report, args)
    return 0


def cmd_sample(args):
    if not args.out:
        raise ValidationError("sample requires --out PATH for the CSV")
    entry, obj, copula = build(args.family, _parse_params(args.param))
    batch = sample(copula, args.n, args.seed)
    write_csv(batch, args.out)
    sys.stderr.write(f"wrote {batch.n} samples from {copula.label} to {args.out}\n")
    return 0


def cmd_grid_export(args):
    if not args.out:
        raise ValidationError("grid-export requires --out PATH for the CSV")
    entry, obj, copula = build(args.family, _parse_params(args.param))
    grid = _grid_from_args(args)
    quantity = args.quantity
    if quantity == "density" and copula.density is None:
        raise ValidationError(f"{copula.label} exposes no density")
    if quantity == "FA" and entry.kind != "evc":
        raise ValidationError("quantity FA is defined only for extreme-value families")
    us = grid.u_axis()
    vs = grid.v_axis()
    if quantity == "FA":
        vals = _grid_eval(lambda u, v: evc.cap_function(obj, evc.h_map(u, v)), us, vs)
    else:
        vals = _grid_eval(getattr(copula, quantity), us, vs)
    write_grid_csv(us, vs, vals, args.out)
    sys.stderr.write(f"wrote {quantity} grid for {copula.label} to {args.out}\n")
    return 0


def _add_common(parser, with_grid=True):
    parser.add_argument("--family", required=True, help=f"one of: {', '.join(family_names())}")
    parser.add_argument("--param", default="", help="key=value[,key=value]")
    parser.add_argument("--out", default="", help="write output to this path")
    if with_grid:
        parser.add_argument("--grid", type=int, default=256, help="grid resolution per axis")
        parser.add_argument("--margin", type=float, default=0.005)
        parser.add_argument("--tol-strict", dest="tol_strict", type=float, default=1e-9)
        parser.add_argument("--tol-eq", dest="tol_eq", type=float, default=1e-12)
        parser.add_argument("--spacing", choices=("uniform", "logit"), default="uniform")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mktp2",
        description="Certify or refute positive-dependence properties of bivariate copulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the applicable classifier on all six properties")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="check a single property, optionally on one rectangle")
    _add_common(p)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--rect", default="", help="u1,u2,v1,v2: evaluate exactly this rectangle")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", help="construct a violating rectangle for a failing property")
    _add_common(p)
    p.add_argument("--property", default="mktp2", choices=PROPERTIES)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("sample", help="draw reproducible samples by kernel inversion")
    _add_common(p, with_grid=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("grid-export", help="export cdf/kernel/density/FA values on a grid")
    _add_common(p)
    p.add_argument("--quantity", required=True, choices=("cdf", "kernel", "density", "FA"))
    p.set_defaults(func=cmd_grid_export)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.out:
            _check_out(args.out)
        code = args.func(args)
    except MkTp2Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        numerical = isinstance(exc, (NumericalError, SearchFailed))
        return NUMERICAL_FAILURE if numerical else USAGE_ERROR
    sys.stderr.write(f"# elapsed {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
