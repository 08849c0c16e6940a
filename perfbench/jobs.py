"""Seeded job lists for the four benchmark workloads.

A job is what one client sends in the closed loop: a ``mktp2`` command line
(``kind == "cli"``) or one library call (``kind == "lib"``, see
:mod:`libjobs`).  The program sees only ``argv`` or the ``lib`` inputs; the
``family``/``params``/``prop`` fields are for the correctness oracle.

The same (workload, seed) always gives the same list.  Draws stay inside
each family's valid region and on a fixed side of every threshold that
changes cost or the expected verdict (|rho| <= 0.8 against > 0.8, beta > 0
against beta = 0, and so on), so the seed moves parameter values but not
how much work a pass does.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("grid-classify", "analytic-verdicts", "witness-ladder", "sample-export")
PROPERTIES = ("pqd", "ltd", "si", "tp2", "mktp2", "dtp2")

SAMPLE_N = 100_000


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def param_text(params):
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _cli(command, family, params, *extra, prop=None, **meta):
    argv = [command, "--family", family, "--param", param_text(params), *extra]
    if prop is not None:
        argv += ["--property", prop]
    job = {"kind": "cli", "argv": argv, "command": command, "family": family, "params": params}
    if prop is not None:
        job["prop"] = prop
    job.update(meta)
    return job


def _grid_classify(rng):
    cases = [
        ("pi", {}, 1024),
        ("m", {}, 1024),
        ("w", {}, 1024),
        ("frechet", {"alpha": _u(rng, 0.2, 0.6), "beta": _u(rng, 0.15, 0.35)}, 1024),
        ("frechet", {"alpha": _u(rng, 0.2, 0.8), "beta": 0.0}, 1024),
        ("fgm", {"theta": _u(rng, 0.2, 0.9)}, 1024),
        ("fgm", {"theta": -_u(rng, 0.2, 0.9)}, 1024),
        # |rho| <= 0.8 takes the one-panel quadrature, |rho| > 0.8 the refined panels
        ("gaussian", {"rho": _u(rng, 0.3, 0.8)}, 1024),
        ("gaussian", {"rho": -_u(rng, 0.85, 0.95)}, 512),
    ]
    return [_cli("classify", f, p, "--grid", str(n)) for f, p, n in cases]


def _mo_branch2(rng):
    return {"alpha": _u(rng, 0.1, 0.9), "beta": _u(rng, 0.1, 0.9)}


def _tawn_mix_branch2(rng):
    theta = _u(rng, 0.1, 0.8)
    kappa = _u(rng, -0.9 * theta / 3.0, 0.9 * (1.0 - theta) / 2.0)
    return {"theta": theta, "kappa": kappa}


def _tawn_mix_boundary(rng):
    theta = _u(rng, 1.0, 1.5)
    return {"theta": theta, "kappa": round(1.0 - theta, 4)}


def _analytic_verdicts(rng):
    entries = [
        ("gumbel", {"alpha": _u(rng, 1.2, 4.0)}),
        ("gumbel", {"alpha": _u(rng, 1.2, 4.0)}),
        ("arch-pi", {}),
        ("arch-w", {}),
        ("spreeuw", {}),
        ("evc-gumbel", {"alpha": 1.0}),                     # EVC branch 1
        ("evc-gumbel", {"alpha": _u(rng, 1.2, 4.0)}),       # 3d
        ("mo", _mo_branch2(rng)),                            # 2
        ("mo", _mo_branch2(rng)),
        ("mo", _mo_branch2(rng)),
        ("mo", {"alpha": _u(rng, 0.2, 0.9), "beta": 1.0}),   # 3d
        ("tawn-sym", {"theta": _u(rng, 0.1, 0.9)}),          # 2
        ("tawn-sym", {"theta": _u(rng, 0.1, 0.9)}),
        ("tawn-sym", {"theta": 1.0}),                        # 3d
        ("tawn-mix", _tawn_mix_branch2(rng)),                # 2
        ("tawn-mix", _tawn_mix_boundary(rng)),               # 3d
        ("evc-log", {}),                                     # 3e
        ("evc-jump", {}),                                    # 3c
    ]
    jobs = []
    for family, params in entries:
        jobs.append(_cli("classify", family, params))
        jobs.append(_cli("check", family, params, prop=rng.choice(PROPERTIES)))
        jobs.append(_cli("witness", family, params, prop="mktp2"))
    lib = [
        {"call": "arch", "generator": "clayton", "form": "psi", "theta": _u(rng, 0.5, 6.0)},
        {"call": "arch", "generator": "clayton", "form": "psi", "theta": _u(rng, 0.5, 6.0)},
        # the numeric D-psi continuity scan decides differently below and above
        # theta ~ 2.2, so one draw sits on each side
        {"call": "arch", "generator": "frank", "form": "psi", "theta": _u(rng, 0.5, 2.0)},
        {"call": "arch", "generator": "frank", "form": "psi", "theta": _u(rng, 2.5, 6.0)},
        {"call": "arch", "generator": "clayton", "form": "phi", "theta": _u(rng, 0.5, 2.0)},
        {
            "call": "evc",
            "shape": "two-kinks",                            # 3a
            "t1": _u(rng, 0.1, 0.2),
            "t2": _u(rng, 0.4, 0.55),
            "slope": _u(rng, -0.5, -0.2),
        },
        {"call": "evc", "shape": "curved-kink", "tj": _u(rng, 0.3, 0.45), "c": _u(rng, 0.3, 0.8)},  # 3b
    ]
    jobs += [{"kind": "lib", "lib": call} for call in lib]
    return jobs


def _witness_ladder(rng):
    cases = [("fgm", {"theta": -_u(rng, 0.2, 0.9)}, PROPERTIES)]
    cases.append(("gaussian", {"rho": -_u(rng, 0.3, 0.8)}, ("tp2", "mktp2")))
    cases.append(
        ("frechet", {"alpha": _u(rng, 0.2, 0.6), "beta": _u(rng, 0.15, 0.35)}, ("mktp2", "pqd"))
    )
    cases.append(("w", {}, ("pqd", "ltd", "si", "tp2", "mktp2")))
    jobs = []
    for family, params, props in cases:
        for prop in props:
            jobs.append(_cli("witness", family, params, prop=prop))
            jobs.append(
                _cli("check", family, params, "--rect", "{rect}", prop=prop, rect_from=len(jobs) - 1)
            )
    return jobs


def _sample_export(rng):
    cases = [
        ("gaussian", {"rho": _u(rng, 0.3, 0.8)}),
        ("mo", {"alpha": _u(rng, 0.2, 0.9), "beta": 1.0}),
        ("gumbel", {"alpha": _u(rng, 1.2, 4.0)}),
        ("m", {}),
        ("evc-log", {}),
    ]
    return [
        _cli(
            "sample", f, p,
            "--n", str(SAMPLE_N), "--seed", str(rng.randrange(2**31)), "--out", "{out}",
        )
        for f, p in cases
    ]


_BUILDERS = {
    "grid-classify": _grid_classify,
    "analytic-verdicts": _analytic_verdicts,
    "witness-ladder": _witness_ladder,
    "sample-export": _sample_export,
}

# jobs too heavy to repeat for the byte-identity probe
_HEAVY = {"gaussian"}


def build(workload, seed):
    """The job list of one workload, with ids and the byte-identity probe index."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    jobs = _BUILDERS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    light = [j["id"] for j in jobs if j.get("family") not in _HEAVY and "rect_from" not in j]
    return {"workload": workload, "seed": int(seed), "jobs": jobs, "probe": rng.choice(light)}


def digest(job_list):
    return hashlib.sha256(json.dumps(job_list, sort_keys=True).encode()).hexdigest()
