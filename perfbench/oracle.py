"""Correctness oracle behind ``failed``.

A job fails when any of these holds:

* its exit code is not the expected one (0, or 3 for ``witness`` on a
  property whose truth is ``holds``), or it raised;
* a CLI report does not validate against ``docs/report.schema.json``;
* a ``fails`` verdict carries a witness of rectangle form (point, line or
  rectangle) that does not re-evaluate above ``tol_strict`` through
  ``properties.rectangle_defect`` (``extreme_value.kernel_cross_ratio`` below
  ``1 - tol_strict`` for MK-TP2 of an extreme-value copula).  Generator-level
  witnesses (midpoint triples, D-psi jumps) have no rectangle form and are
  judged by the verdict check alone;
* a verdict differs from the paper-derived truth where one exists;
  ``inconclusive`` is a miss when the truth is decided;
* a sample's marginal Kolmogorov distance exceeds ``KS_BOUND / sqrt(n)`` or
  its empirical CDF is further than ``ECDF_BOUND / sqrt(n)`` from the
  copula CDF on a 31 x 31 grid;
* its output bytes differ between passes or from the byte-identity probe.

Failures the code has today are kept and matched against ``BASELINE``:
``correct`` is false only when a failure matches no baseline entry.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import libjobs

HOLDS, FAILS, NA = "holds", "fails", "not-applicable"

# P(sqrt(n) D > 2.5) ~ 7.5e-6 per marginal; the grid ECDF bound is a union
# bound over 961 binomial points, ~ 4e-8 per sample
KS_BOUND = 2.5
ECDF_BOUND = 3.5
ECDF_AXIS = np.linspace(1.0 / 32.0, 31.0 / 32.0, 31)

EVC_FAMILIES = {"evc-gumbel", "mo", "tawn-sym", "tawn-mix", "evc-log", "evc-jump"}

# certificate method -> branch of the EVC MK-TP2 decision tree
EVC_BRANCH = {
    "analytic:flat-at-zero": "1",
    "analytic:slope-at-zero": "2",
    "analytic:two-jumps": "3a",
    "analytic:one-jump-curved": "3b",
    "analytic:cap-plateau": "3c",
    "analytic:monotone-ratio": "3d",
    "grid:mktp2": "3e",
}


def _table(pqd, ltd, si, tp2, mktp2, dtp2=None):
    out = {"pqd": pqd, "ltd": ltd, "si": si, "tp2": tp2, "mktp2": mktp2}
    if dtp2 is not None:
        out["dtp2"] = dtp2
    return out


def _all(status, dtp2=None):
    return _table(status, status, status, status, status, dtp2)


def truth(job):
    """Paper-derived verdicts for the job's input; properties without one are absent."""
    if job["kind"] == "lib":
        call = job["lib"]
        if call["call"] == "arch":
            return _all(HOLDS)                      # Clayton and Frank, theta > 0
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, FAILS, NA)
    family, p = job["family"], job["params"]
    if family in ("pi", "arch-pi"):
        return _all(HOLDS, HOLDS)
    if family == "m":
        return _all(HOLDS, NA)
    if family in ("w", "arch-w"):
        return _all(FAILS, NA)
    if family == "frechet":
        a, b = p["alpha"], p["beta"]
        dtp2 = HOLDS if a == 0.0 and b == 0.0 else NA
        if b > 0.0:
            return _all(FAILS, dtp2)
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS if a in (0.0, 1.0) else FAILS, dtp2)
    if family == "fgm":
        return _all(HOLDS if p["theta"] >= 0.0 else FAILS, HOLDS if p["theta"] >= 0.0 else FAILS)
    if family == "gaussian":
        return _all(HOLDS if p["rho"] > 0.0 else FAILS, HOLDS if p["rho"] > 0.0 else FAILS)
    if family == "gumbel":
        return _all(HOLDS, HOLDS)
    if family == "spreeuw":
        return _table(HOLDS, HOLDS, FAILS, HOLDS, FAILS)
    # every EVC is PQD, LTD, SI and TP2; MK-TP2 per the Pickands-level criteria
    if family == "evc-gumbel":
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS, HOLDS)
    if family == "mo":
        a, b = p["alpha"], p["beta"]
        independent = a == 0.0 or b == 0.0
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS if independent or b == 1.0 else FAILS,
                      HOLDS if independent else NA)
    if family == "tawn-sym":
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS if p["theta"] in (0.0, 1.0) else FAILS)
    if family == "tawn-mix":
        s = p["theta"] + p["kappa"]
        boundary = abs(s) <= 1e-9 or abs(s - 1.0) <= 1e-9
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, HOLDS if boundary else FAILS)
    if family == "evc-log":
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, FAILS)
    if family == "evc-jump":
        return _table(HOLDS, HOLDS, HOLDS, HOLDS, FAILS, NA)
    raise ValueError(f"no truth table for family {family!r}")


class Oracle:
    def __init__(self, root):
        import jsonschema

        with open(os.path.join(root, "docs", "report.schema.json")) as fh:
            self.schema = jsonschema.Draft7Validator(json.load(fh))
        self.branches = set()

    # -- evaluation objects ----------------------------------------------------

    @staticmethod
    def _objects(job):
        """(copula, Pickands spec or None) the job's witnesses refer to."""
        from mktp2 import archimedean, extreme_value, registry

        if job["kind"] == "lib":
            call = job["lib"]
            if call["call"] == "arch":
                return archimedean.arch_copula(libjobs.generator_spec(call)), None
            spec = libjobs.pickands_spec(call)
            return extreme_value.evc_copula(spec), spec
        entry, obj, copula = registry.build(job["family"], job["params"])
        return copula, obj if entry.kind == "evc" else None

    def reevaluate(self, job, prop, witness, tol_strict):
        """True when the witness re-evaluates as a violation, None when it has no rectangle form."""
        from mktp2.extreme_value import kernel_cross_ratio
        from mktp2.grids import Rectangle
        from mktp2.properties import rectangle_defect

        pts = witness["points"]
        if witness["kind"] == "point":
            pts = [pts[0], pts[0], pts[1], pts[1]]
        elif witness["kind"] == "line":
            pts = [pts[0], pts[1], pts[2], pts[2]]
        elif witness["kind"] != "rectangle":
            return None
        copula, spec = self._objects(job)
        try:
            rect = Rectangle(*pts)
            if spec is not None and prop == "mktp2":
                return kernel_cross_ratio(spec, rect) < 1.0 - tol_strict
            defect, _ = rectangle_defect(copula, prop, rect)
        except ValueError:
            return False
        return defect > tol_strict

    # -- per-job checks --------------------------------------------------------

    def check(self, job, record):
        """Failure reasons of one job's first-pass output (empty list: correct)."""
        code = record["code"]
        expected = self._expected_code(job)
        if code not in expected:
            lines = record["stderr"].strip().splitlines()
            return [{"check": "exit", "code": code, "expected": sorted(expected, key=str),
                     "error": lines[-1] if lines else ""}]
        if code != 0:
            return []
        if job.get("command") == "sample":
            return self._check_sample(job, record)
        report = json.loads(record["stdout"])
        reasons = []
        if job["kind"] == "cli":
            errors = sorted(self.schema.iter_errors(report), key=str)
            if errors:
                reasons.append({"check": "schema", "detail": errors[0].message[:200]})
        tol_strict = report["grid"]["tol_strict"]
        expect = truth(job)
        for result in report["results"]:
            prop, status = result["property"], result["status"]
            method = result["certificate"].get("method", result["method"])
            if job.get("family") in EVC_FAMILIES or job["kind"] == "lib":
                if prop == "mktp2" and method in EVC_BRANCH:
                    self.branches.add(EVC_BRANCH[method])
            if "rect_from" in job:
                if status != FAILS:
                    reasons.append({"check": "verdict", "prop": prop, "status": status,
                                    "expected": FAILS, "method": method})
                continue
            if prop in expect and status != expect[prop]:
                reasons.append({"check": "verdict", "prop": prop, "status": status,
                                "expected": expect[prop], "method": method})
            if status == FAILS and result["witness"] is not None:
                ok = self.reevaluate(job, prop, result["witness"], tol_strict)
                if ok is False:
                    reasons.append({"check": "witness", "prop": prop,
                                    "kind": result["witness"]["kind"], "method": method})
        return reasons

    @staticmethod
    def _expected_code(job):
        if job.get("command") != "witness":
            return {0}
        want = truth(job).get(job["prop"])
        if want == HOLDS:
            return {3}
        if want == FAILS:
            return {0}
        return {0, 3}

    def _check_sample(self, job, record):
        from mktp2 import registry

        path = record["out"]
        with open(path) as fh:
            header = fh.readline().strip()
        points = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n = int(job["argv"][job["argv"].index("--n") + 1])
        if header != "u,v" or points.shape != (n, 2):
            return [{"check": "sample", "detail": f"header {header!r}, shape {points.shape}"}]
        if not (np.all(np.isfinite(points)) and np.all((points >= 0.0) & (points <= 1.0))):
            return [{"check": "sample", "detail": "values outside [0, 1]"}]
        reasons = []
        for col, name in ((0, "u"), (1, "v")):
            d = ks_distance(points[:, col])
            if d > KS_BOUND / math.sqrt(n):
                reasons.append({"check": "sample", "detail": f"KS({name}) = {d:.5f}"})
        _, _, copula = registry.build(job["family"], job["params"])
        d = ecdf_distance(points, copula)
        if d > ECDF_BOUND / math.sqrt(n):
            reasons.append({"check": "sample", "detail": f"ECDF distance {d:.5f}"})
        return reasons


def ks_distance(x):
    x = np.sort(x)
    n = len(x)
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - x), np.max(x - (k - 1) / n)))


def ecdf_distance(points, copula):
    edges = np.concatenate([[-1.0], ECDF_AXIS, [2.0]])
    hist, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=[edges, edges])
    emp = hist.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / len(points)
    uu, vv = np.meshgrid(ECDF_AXIS, ECDF_AXIS, indexing="ij")
    return float(np.max(np.abs(emp - np.asarray(copula.cdf(uu, vv), dtype=float))))


# ---------------------------------------------------------------------------
# failures the code has today
# ---------------------------------------------------------------------------


def _is_phi_only(job, r):
    """make_generator(phi=...) inverts psi by bisection; the finite-difference D-psi of that
    psi fails the -D-psi log-convexity midpoint test, so SI/MK-TP2 read 'fails' for Clayton."""
    return (job["kind"] == "lib" and job["lib"].get("form") == "phi" and r["check"] == "verdict"
            and r["prop"] in ("si", "mktp2") and r["method"] == "analytic:neg-dminus-psi-log-convexity")


def _is_false_jump(job, r):
    """The numeric D-psi continuity scan uses an absolute 1e-3 gap, so a steep smooth
    generator (Frank, theta >~ 2.2) is called discontinuous and SI/MK-TP2 read 'fails'."""
    return (job["kind"] == "lib" and job["lib"].get("call") == "arch" and r["check"] == "verdict"
            and r["prop"] in ("si", "mktp2") and r["method"] == "analytic:dminus-psi-discontinuity")


def _is_jump_witness_miss(job, r):
    """construct_witness_jump raises 'jump data appear inconsistent' at some jump locations:
    Marshall-Olkin with 0 < beta < 1 then stays inconclusive on MK-TP2 and 'witness' exits 3
    as if it held; with declared jumps (branches 3a/3b) the SearchFailed escapes classify_evc."""
    if job["kind"] == "lib":
        return (job["lib"]["call"] == "evc" and r["check"] == "exit" and r["code"] == "exception"
                and "jump data appear inconsistent" in r["error"])
    if job["family"] != "mo" or not 0.0 < job["params"]["beta"] < 1.0:
        return False
    if r["check"] == "exit":
        return job["command"] == "witness" and r["code"] == 3
    return r["check"] == "verdict" and r["prop"] == "mktp2" and r["status"] == "inconclusive"


def _is_nonstrict_point(job, r):
    """The non-strict short-circuit (arch-w) reports the PQD point witness for LTD/SI/TP2/MK-TP2,
    and a point does not re-evaluate as a violation of those properties."""
    return (job.get("family") == "arch-w" and r["check"] == "witness" and r["kind"] == "point"
            and r["method"] == "analytic:non-strict")


BASELINE = {
    "phi-only-generator": _is_phi_only,
    "dminus-psi-false-jump": _is_false_jump,
    "jump-witness-miss": _is_jump_witness_miss,
    "nonstrict-point-witness": _is_nonstrict_point,
}


def baseline_class(job, reasons):
    """Name of the baseline entry covering every reason, or None."""
    names = set()
    for r in reasons:
        match = [name for name, pred in BASELINE.items() if pred(job, r)]
        if not match:
            return None
        names.add(match[0])
    return ",".join(sorted(names))
