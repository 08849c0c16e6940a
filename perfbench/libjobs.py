"""Library-level jobs: user-built generators and Pickands functions.

The registry cannot express these inputs, so the benchmark builds them
with the public constructors (``archimedean.make_generator``,
``extreme_value.validate_pickands``) and classifies them as a user of the
library would.  Results are rendered in the shape of a CLI report so the
oracle treats both kinds of job alike.
"""

from __future__ import annotations

import json

import numpy as np


def clayton(theta):
    def phi(t):
        return (np.power(np.asarray(t, dtype=float), -theta) - 1.0) / theta

    def psi(x):
        return np.power(1.0 + theta * np.asarray(x, dtype=float), -1.0 / theta)

    def d_minus_psi(x):
        return -np.power(1.0 + theta * np.asarray(x, dtype=float), -1.0 / theta - 1.0)

    return phi, psi, d_minus_psi


def frank(theta):
    c = -np.expm1(-theta)

    def psi(x):
        return -np.log1p(-c * np.exp(-np.asarray(x, dtype=float))) / theta

    return None, psi, None


def generator_spec(call):
    """GeneratorSpec for an ``arch`` call; ``form`` says which closed forms are given."""
    from mktp2 import archimedean

    phi, psi, d_minus_psi = {"clayton": clayton, "frank": frank}[call["generator"]](call["theta"])
    label = f"{call['generator']}-{call['form']}(theta={call['theta']:g})"
    if call["form"] == "phi":
        return archimedean.make_generator(phi=phi, label=label)
    return archimedean.make_generator(
        psi=psi, d_minus_psi=d_minus_psi, phi_at_zero=np.inf, strict=True, label=label
    )


def _two_kinks(t1, t2, slope):
    """Piecewise-linear A: slope -1, then ``slope``, then a line up to (1, 1)."""
    a2 = 1.0 - t1 + slope * (t2 - t1)
    slope3 = (1.0 - a2) / (1.0 - t2)

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t1, 1.0 - t, np.where(t < t2, 1.0 - t1 + slope * (t - t1), a2 + slope3 * (t - t2)))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t1, -1.0, np.where(t < t2, slope, slope3))

    return A, dA, (t1, t2), t1


def _curved_kink(tj, c):
    """A = 1 - t + c t^2 up to tj, then a line up to (1, 1): D+A(0) = -1, one jump."""
    aj = 1.0 - tj + c * tj * tj
    slope = (1.0 - aj) / (1.0 - tj)

    def A(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < tj, 1.0 - t + c * t * t, aj + slope * (t - tj))

    def dA(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < tj, -1.0 + 2.0 * c * t, slope)

    return A, dA, (tj,), 0.0


def pickands_spec(call):
    from mktp2 import extreme_value

    if call["shape"] == "two-kinks":
        A, dA, jumps, t_star = _two_kinks(call["t1"], call["t2"], call["slope"])
    else:
        A, dA, jumps, t_star = _curved_kink(call["tj"], call["c"])
    return extreme_value.validate_pickands(
        A, dA, declared_jumps=jumps, t_star=t_star, label=f"evc-{call['shape']}"
    )


def run(call, grid):
    """Classify one user-built input; returns the report as JSON text."""
    from mktp2 import archimedean, extreme_value

    if call["call"] == "arch":
        table = archimedean.property_verdicts(generator_spec(call), grid)
    else:
        table = extreme_value.property_verdicts(pickands_spec(call), grid)
    results = []
    for prop, verdict in table.items():
        entry = {"property": prop, **verdict.describe()}
        entry["method"] = str(verdict.certificate.get("method", "grid"))
        results.append(entry)
    report = {"tool": "library", "call": call, "grid": grid.describe(), "results": results}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
