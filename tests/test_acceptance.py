"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json

import numpy as np

from conftest import ALL_FAMILIES
from mktp2.archimedean import (
    arch_copula,
    builtin_archimedean,
    generator_x_sample,
)
from mktp2.cli import main as cli_main
from mktp2.extreme_value import (
    builtin_pickands,
    cap_function,
    classify_evc,
    construct_witness_constant,
    construct_witness_gradient,
    construct_witness_jump,
    evc_copula,
    kernel_cross_ratio,
)
from mktp2.grids import GridConfig, Rectangle
from mktp2.properties import (
    Status,
    check_mktp2,
    check_tp2,
    log_convexity_test,
    property_verdicts,
    rectangle_defect,
)
from mktp2.registry import build
from mktp2.sampler import sample
from oracles import (
    cross_ratio_identity_check,
    disintegration_gap,
    empirical_cdf_distance,
    kernel_u_jumps,
    max_kernel_fd_mismatch,
)

GRID = GridConfig()
CHAIN_GRID = GridConfig(n_u=64, n_v=64)


def record(number, label, ok):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


def holds(verdict):
    return verdict.status is Status.HOLDS


def fails(verdict):
    return verdict.status is Status.FAILS


def ladder(name, params, grid=GRID):
    _, _, copula = build(name, params)
    return property_verdicts(copula, grid)


# ---------------------------------------------------------------------------
# 1. classification tables
# ---------------------------------------------------------------------------


def test_criterion_01_classification_tables():
    ok = True

    # FGM: all six hold iff theta >= 0
    for theta in (-0.5, 0.0, 0.7):
        table = ladder("fgm", {"theta": theta})
        expect = theta >= 0.0
        ok &= all(holds(v) == expect for v in table.values())

    # Gaussian at 256^2: all six hold iff rho > 0
    for rho in (0.5, -0.5):
        table = ladder("gaussian", {"rho": rho})
        expect = rho > 0.0
        ok &= all(holds(v) == expect for v in table.values())

    # Frechet mixtures: SI/TP2 iff beta = 0; MK-TP2 iff alpha in {0,1} and beta = 0;
    # d-TP2 holds exactly for the (0,0) member (the others carry singular parts)
    for alpha, beta in ((0.5, 0.0), (0.5, 0.25), (0.0, 0.0), (1.0, 0.0)):
        table = ladder("frechet", {"alpha": alpha, "beta": beta})
        ok &= holds(table["si"]) == (beta == 0.0)
        ok &= holds(table["tp2"]) == (beta == 0.0)
        ok &= holds(table["mktp2"]) == (alpha in (0.0, 1.0) and beta == 0.0)
        if (alpha, beta) == (0.0, 0.0):
            ok &= holds(table["dtp2"])
        else:
            expected = Status.HOLDS if alpha == 0.0 else Status.NOT_APPLICABLE
            ok &= table["dtp2"].status is expected

    # Marshall-Olkin: MK-TP2 iff beta = 1
    for alpha, beta in ((0.5, 1.0), (1.0, 1.0), (0.5, 0.5), (1.0, 0.5)):
        _, verdict = classify_evc(builtin_pickands("marshall-olkin", alpha=alpha, beta=beta), GRID)
        ok &= holds(verdict) == (beta == 1.0)

    # symmetric Tawn model: MK-TP2 iff theta in {0, 1}
    for theta in (0.0, 0.2, 1.0):
        _, verdict = classify_evc(builtin_pickands("tawn-symmetric", theta=theta), GRID)
        ok &= holds(verdict) == (theta in (0.0, 1.0))

    # asymmetric mixed model: MK-TP2 iff theta + kappa in {0, 1}
    for theta, kappa in ((0.0, 0.0), (0.25, 0.25), (1.25, -0.25)):
        _, verdict = classify_evc(builtin_pickands("tawn-asym-mixed", theta=theta, kappa=kappa), GRID)
        ok &= holds(verdict) == (theta + kappa in (0.0, 1.0))

    record(1, "classification tables reproduced", ok)


# ---------------------------------------------------------------------------
# 2. generator-level equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_archimedean_equivalence():
    ok = True
    for alpha in (1.0, 1.5, 2.0, 4.0):
        spec = builtin_archimedean("gumbel", alpha=alpha)
        xs = generator_x_sample(spec, GRID)
        neg = lambda x: -np.asarray(spec.d_minus_psi(x), dtype=float)
        ok &= holds(log_convexity_test(neg, xs, GRID.tol_eq, 1e-9))
        ok &= holds(check_mktp2(arch_copula(spec), GRID))

    spreeuw = builtin_archimedean("spreeuw")
    xs = generator_x_sample(spreeuw, GRID)
    ok &= holds(log_convexity_test(spreeuw.psi, xs, GRID.tol_eq, 1e-9))
    neg = lambda x: -np.asarray(spreeuw.d_minus_psi(x), dtype=float)
    verdict = log_convexity_test(neg, xs, GRID.tol_eq, 1e-9)
    ok &= fails(verdict) and verdict.witness is not None and len(verdict.witness.points) == 3
    ok &= holds(check_tp2(arch_copula(spreeuw), GRID))

    record(2, "MK-TP2 <-> SI <-> log-convex -D-psi at generator level", ok)


# ---------------------------------------------------------------------------
# 3. the smooth counterexample's printed numbers
# ---------------------------------------------------------------------------


def test_criterion_03_smooth_counterexample_numbers():
    spec = builtin_pickands("log-example")

    def ratio(t):
        f = float(cap_function(spec, t))
        fp = (1.0 - t) * float(spec.second(np.asarray(t)))
        return t * (1.0 - t) * fp / f

    ok = abs(ratio(0.1) - 0.474) <= 1e-3
    ok &= abs(ratio(0.2) - 0.505) <= 1e-3

    _, _, copula = build("evc-log")
    ok &= rectangle_defect(copula, "mktp2", Rectangle(0.9, 0.95, 0.5, 0.6))[0] > GRID.tol_strict
    record(3, "ratio values 0.474/0.505 and failing rectangle [0.9,0.95]x[0.5,0.6]", ok)


# ---------------------------------------------------------------------------
# 4. kernel oracles
# ---------------------------------------------------------------------------


def test_criterion_04_kernel_oracles():
    ok = True
    us = np.linspace(0.01, 0.99, 101)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    for alpha in (1.5, 3.0):
        gen = builtin_archimedean("gumbel", alpha=alpha)
        pick = builtin_pickands("gumbel", alpha=alpha)
        gap = np.abs(
            np.asarray(arch_copula(gen).kernel(uu, vv)) - np.asarray(evc_copula(pick).kernel(uu, vv))
        )
        ok &= float(np.max(gap)) <= 1e-10

    for name, params in ALL_FAMILIES:
        _, spec, copula = build(name, params)
        ok &= max_kernel_fd_mismatch(copula, kernel_u_jumps(spec, params)) <= 1e-5

    record(4, "cross-module and finite-difference kernel oracles", ok)


# ---------------------------------------------------------------------------
# 5. disintegration
# ---------------------------------------------------------------------------


def test_criterion_05_disintegration():
    ok = True
    for name, params in ALL_FAMILIES:
        _, spec, copula = build(name, params)
        jumps = kernel_u_jumps(spec, params)
        worst = max(disintegration_gap(copula, v, jumps) for v in np.arange(0.1, 0.95, 0.1))
        ok &= worst <= 1e-6
    record(5, "kernel integrates back to the uniform marginal (1e-6)", ok)


# ---------------------------------------------------------------------------
# 6. constructive witnesses
# ---------------------------------------------------------------------------


def test_criterion_06_witness_constructors():
    cases = []

    tawn = builtin_pickands("tawn-symmetric", theta=0.2)
    cases.append((tawn, construct_witness_gradient(tawn, GRID)))

    mo = builtin_pickands("marshall-olkin", alpha=0.5, beta=0.5)
    cases.append((mo, construct_witness_jump(mo, 0.25, 0.5, GRID)))

    jump = builtin_pickands("jump-example")
    cases.append((jump, construct_witness_constant(jump, 0.125, 0.25, 7.0 / 16.0, GRID)))

    ok = True
    for spec, witness in cases:
        ratio = kernel_cross_ratio(spec, witness.rectangle())
        ok &= ratio < 1.0 - 1e-6
    record(6, "constructed rectangles re-evaluate to cross-ratio < 1 - 1e-6", ok)


# ---------------------------------------------------------------------------
# 7. telescoping identity
# ---------------------------------------------------------------------------


def test_criterion_07_cross_ratio_identity():
    rng = np.random.Generator(np.random.Philox(key=7))
    worst = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-5.0, 5.0))
        u = np.sort(rng.uniform(0.01, 0.99, 2))
        v = np.sort(rng.uniform(0.01, 0.99, 2))
        rect = Rectangle(u[0], u[1], v[0], v[1])
        worst = max(worst, abs(cross_ratio_identity_check(a, rect) - 1.0))
    record(7, f"telescoping product equals 1 within 1e-11 (worst {worst:.2e})", worst <= 1e-11)


# ---------------------------------------------------------------------------
# 8. implication chain
# ---------------------------------------------------------------------------


def _random_parameterizations(count=20):
    rng = np.random.Generator(np.random.Philox(key=88))
    out = []
    while len(out) < count:
        kind = len(out) % 7
        if kind == 0:
            out.append(("fgm", {"theta": float(rng.uniform(-1.0, 1.0))}))
        elif kind == 1:
            rho = float(rng.uniform(-0.9, 0.9))
            if abs(rho) < 0.05:
                continue
            out.append(("gaussian", {"rho": rho}))
        elif kind == 2:
            a = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.0, 1.0 - a))
            out.append(("frechet", {"alpha": round(a, 3), "beta": round(b, 3)}))
        elif kind == 3:
            out.append(("gumbel", {"alpha": float(rng.uniform(1.0, 5.0))}))
        elif kind == 4:
            out.append(("mo", {"alpha": float(rng.uniform(0.05, 1.0)), "beta": float(rng.uniform(0.05, 1.0))}))
        elif kind == 5:
            out.append(("tawn-sym", {"theta": float(rng.uniform(0.0, 1.0))}))
        else:
            theta = float(rng.uniform(0.0, 1.2))
            kappa = float(rng.uniform(-0.3, 0.4))
            valid = (
                theta >= 0.0
                and theta + 3 * kappa >= 0.0
                and theta + kappa <= 1.0
                and theta + 2 * kappa <= 1.0
            )
            if not valid:
                continue
            out.append(("tawn-mix", {"theta": theta, "kappa": kappa}))
    return out


def test_criterion_08_implication_chain():
    implications = [
        ("dtp2", "mktp2"),
        ("mktp2", "tp2"),
        ("mktp2", "si"),
        ("tp2", "ltd"),
        ("si", "ltd"),
        ("ltd", "pqd"),
    ]
    ok = True
    cases = list(ALL_FAMILIES) + _random_parameterizations(20)
    for name, params in cases:
        table = ladder(name, params, CHAIN_GRID)
        for upper, lower in implications:
            if holds(table[upper]) and fails(table[lower]):
                print(f"chain violation for {name} {params}: {upper} holds, {lower} fails")
                ok = False
    record(8, "no verdict pattern violates the implication chain", ok)


# ---------------------------------------------------------------------------
# 9. sampler
# ---------------------------------------------------------------------------


def test_criterion_09_sampler():
    ok = True

    _, _, m = build("m")
    batch = sample(m, 1000, 7)
    ok &= float(np.max(np.abs(batch.points[:, 1] - batch.points[:, 0]))) <= 1e-9

    _, _, pi = build("pi")
    batch = sample(pi, 10_000, 7)
    ok &= empirical_cdf_distance(batch, pi, GRID) <= 0.025

    _, _, lg = build("evc-log")
    batch = sample(lg, 10_000, 42)
    ok &= empirical_cdf_distance(batch, lg, GRID) <= 0.025
    # upper-tail clustering, documented but not asserted: the EVC pushes mass
    # toward the (1,1) corner well beyond independence
    tail = float(np.mean((batch.points[:, 0] > 0.9) & (batch.points[:, 1] > 0.9)))
    print(f"criterion 9 note: upper-tail mass P(u>0.9, v>0.9) = {tail:.4f} vs 0.0100 under independence")

    _, _, mo = build("mo", {"alpha": 0.5, "beta": 0.5})
    batch = sample(mo, 10_000, 3)
    u, v = batch.points[:, 0], batch.points[:, 1]
    ok &= float(np.mean(np.abs(u**0.5 - v**0.5) <= 1e-8)) >= 0.05

    record(9, "kernel-inversion sampler hits its distributional targets", ok)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def _run_cli_suite(tmp_path, tag, capsys):
    outputs = {}
    invocations = {
        "classify-frechet": ["classify", "--family", "frechet", "--param", "alpha=0.5,beta=0.25", "--grid", "64"],
        "classify-mo": ["classify", "--family", "mo", "--param", "alpha=0.5,beta=1"],
        "classify-spreeuw": ["classify", "--family", "spreeuw"],
        "witness-evc-log": ["witness", "--family", "evc-log", "--property", "mktp2"],
    }
    for key, argv in invocations.items():
        path = tmp_path / f"{key}-{tag}.json"
        assert cli_main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        outputs[key] = path.read_bytes()
        json.loads(outputs[key])  # stays parseable
    csv_path = tmp_path / f"sample-{tag}.csv"
    assert cli_main(["sample", "--family", "evc-log", "--n", "1000", "--seed", "42", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    outputs["sample"] = csv_path.read_bytes()
    grid_path = tmp_path / f"grid-{tag}.csv"
    assert cli_main(["grid-export", "--family", "evc-jump", "--quantity", "FA", "--grid", "32", "--out", str(grid_path)]) == 0
    capsys.readouterr()
    outputs["grid-export"] = grid_path.read_bytes()
    return outputs


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    first = _run_cli_suite(tmp_path, "a", capsys)
    second = _run_cli_suite(tmp_path, "b", capsys)
    ok = set(first) == set(second) and all(first[k] == second[k] for k in first)
    record(10, "consecutive runs produce byte-identical reports and CSVs", ok)
