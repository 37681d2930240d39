"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is fixed here; the statistical criteria
use fixed seeds so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from privdist.analysis import (
    identification_check,
    inv_geometric_error_lower_bound,
    inv_krr_error_bound,
    log_likelihood,
    mle_oracle,
    rappor_concavity_prob_bound,
    strict_concavity_check,
)
from privdist.core import (
    INTEGER_LINE,
    CategoricalAlphabet,
    Distribution,
    FiniteMechanism,
    LinearAlphabet,
    ObsMatrix,
    ObservationSet,
    PlanarAlphabet,
    distribution_new,
    obs_matrix,
    to_empirical,
)
from privdist.dataio import Binomial, Explicit, empirical_distribution, sample_synthetic
from privdist.estimators import ibu, inv_normalize, inv_project, inv_raw
from privdist.experiment import derive_rng
from privdist.mechanisms import (
    build_geometric_linear,
    build_geometric_planar,
    build_geometric_truncated,
    build_krr,
    build_rappor,
    obfuscate_dataset,
)
from privdist.metrics import emd_1d, emd_planar, l2sq
from privdist.reduction import likely_krr, likely_linear, restrict_and_lift

MASTER = 20_240_808


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def ages_shaped_distribution(alphabet):
    """A plausible adult-age profile on {0..99}: zero below 17, a broad peak
    near 38, a long right tail."""
    x = np.arange(alphabet.size, dtype=float)
    w = np.exp(-0.5 * ((x - 38.0) / 14.0) ** 2)
    w[:17] = 0.0
    return distribution_new(alphabet, w)


def test_criterion_1_mle_optimality():
    start = time.perf_counter()
    rng = derive_rng(101)
    worst = -np.inf
    for _ in range(50):
        k = int(rng.integers(2, 5))
        labels = [chr(97 + i) for i in range(k)]
        alpha = CategoricalAlphabet(labels)
        mech = FiniteMechanism(alpha, alpha.values, rng.dirichlet(np.ones(k), size=k))
        theta = rng.dirichlet(np.ones(k))
        data = [labels[int(i)] for i in rng.choice(k, size=200, p=theta)]
        G = obs_matrix(mech, obfuscate_dataset(mech, data, rng))
        estimate = ibu(G, tol=1e-12, max_iter=300_000).estimate
        oracle = mle_oracle(G, grid_step=0.05)
        worst = max(worst, log_likelihood(G, oracle) - log_likelihood(G, estimate))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 120,
        f"worst oracle advantage {worst:.2e} (<= 1e-6) in {elapsed:.0f}s (< 120s)",
    )


def test_criterion_2_example_matrices():
    start = time.perf_counter()
    a3 = CategoricalAlphabet(["1", "2", "3"])
    rotating = FiniteMechanism(
        a3, a3.values,
        [[0.10, 0.45, 0.45], [0.45, 0.10, 0.45], [0.45, 0.45, 0.10]],
    )
    not_concave = not strict_concavity_check(
        obs_matrix(rotating, ObservationSet({"2": 1}))
    ).strictly_concave
    concave = strict_concavity_check(
        obs_matrix(rotating, ObservationSet({"2": 1, "1": 1}))
    ).strictly_concave

    peaked = FiniteMechanism(
        a3, a3.values,
        [[0.45, 0.10, 0.45], [0.05, 0.90, 0.05], [0.45, 0.10, 0.45]],
    )
    G = obs_matrix(peaked, ObservationSet({"2": 4}))
    peaked_flat = not strict_concavity_check(G).strictly_concave
    rng = derive_rng(MASTER, 2)
    target = np.array([0.0, 1.0, 0.0])
    tv_worst = 0.0
    for _ in range(10):
        start_dist = distribution_new(a3, rng.dirichlet(np.ones(3)))
        est = ibu(G, theta0=start_dist).estimate.probs
        tv_worst = max(tv_worst, 0.5 * np.abs(est - target).sum())
    elapsed = time.perf_counter() - start
    report(
        2,
        not_concave and concave and peaked_flat and tv_worst <= 1e-4 and elapsed < 60,
        f"flat/strict verdicts correct; unique-MLE instance reaches (0,1,0) "
        f"within TV {tv_worst:.1e} (<= 1e-4) in {elapsed:.1f}s",
    )


def test_criterion_3_consistency():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 9)
    mech = build_geometric_truncated(0, 9, 0.3)
    medians = {}
    for n in (1_000, 10_000, 100_000):
        errs = []
        for rep in range(20):
            rng = derive_rng(MASTER, 3, n, rep)
            data = sample_synthetic(Binomial(10, 0.5), n, rng)
            truth = empirical_distribution(alpha, data.values)
            obs = obfuscate_dataset(mech, data.values, rng)
            errs.append(emd_1d(ibu(obs_matrix(mech, obs)).estimate, truth))
        medians[n] = float(np.median(errs))
    decreasing = medians[1_000] > medians[10_000] > medians[100_000]
    small = medians[100_000] < 0.15
    elapsed = time.perf_counter() - start
    report(
        3,
        decreasing and small and elapsed < 300,
        f"median EMD {medians[1_000]:.3f} > {medians[10_000]:.3f} > "
        f"{medians[100_000]:.3f} (< 0.15) in {elapsed:.0f}s (< 300s)",
    )


def test_criterion_4_geometric_noise_gap():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 99)
    theta = ages_shaped_distribution(alpha)
    data = sample_synthetic(Explicit(theta), 48_842, derive_rng(MASTER, 4, 0))
    truth = empirical_distribution(alpha, data.values)
    mech = build_geometric_truncated(0, 99, 0.05)
    e_ibu, e_p, e_n = [], [], []
    for rep in range(10):
        obs = obfuscate_dataset(mech, data.values, derive_rng(MASTER, 4, 1, rep))
        e_ibu.append(emd_1d(ibu(obs_matrix(mech, obs)).estimate, truth))
        v = inv_raw(to_empirical(obs), mech)
        e_p.append(emd_1d(inv_project(v, alpha), truth))
        e_n.append(emd_1d(inv_normalize(v, alpha), truth))
    m_ibu, m_p, m_n = (float(np.median(e)) for e in (e_ibu, e_p, e_n))
    ordered = m_ibu < m_p < m_n
    gap = m_ibu < 0.5 * m_p
    elapsed = time.perf_counter() - start
    report(
        4,
        ordered and gap and elapsed < 600,
        f"median EMD ibu {m_ibu:.2f} < inv-p {m_p:.2f} < inv-n {m_n:.2f}, "
        f"ibu < half of inv-p, in {elapsed:.0f}s (< 600s)",
    )


def test_criterion_5_krr_parity():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 99)
    theta = ages_shaped_distribution(alpha)
    data = sample_synthetic(Explicit(theta), 48_842, derive_rng(MASTER, 4, 0))
    truth = empirical_distribution(alpha, data.values)
    details = []
    ok = True
    for eps in (1.0, 3.0, 5.0):
        mech = build_krr(alpha, eps)
        e_ibu, e_p = [], []
        for rep in range(20):
            obs = obfuscate_dataset(mech, data.values, derive_rng(MASTER, 5, rep))
            e_ibu.append(emd_1d(ibu(obs_matrix(mech, obs)).estimate, truth))
            v = inv_raw(to_empirical(obs), mech)
            e_p.append(emd_1d(inv_project(v, alpha), truth))
        m_ibu, m_p = float(np.median(e_ibu)), float(np.median(e_p))
        rel = abs(m_ibu - m_p) / m_p
        ok = ok and rel < 0.25
        details.append(f"eps={eps:g}: |{m_ibu:.3f} - {m_p:.3f}|/{m_p:.3f} = {rel:.2f}")
    elapsed = time.perf_counter() - start
    report(5, ok, "; ".join(details) + f" (all < 0.25) in {elapsed:.0f}s")


def test_criterion_6_krr_error_upper_bound():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 9)
    mech = build_krr(alpha, 2.0)
    theta = derive_rng(MASTER, 6, 0).dirichlet(np.ones(10))
    dist = Distribution(alpha, theta)
    errs = []
    for rep in range(200):
        rng = derive_rng(MASTER, 6, 1, rep)
        data = sample_synthetic(Explicit(dist), 10_000, rng)
        obs = obfuscate_dataset(mech, data.values, rng)
        errs.append(l2sq(inv_raw(to_empirical(obs), mech), theta))
    errs = np.asarray(errs)
    bound = inv_krr_error_bound(10, 2.0, 10_000)
    slack = 3.0 * errs.std(ddof=1) / math.sqrt(errs.size)
    elapsed = time.perf_counter() - start
    report(
        6,
        errs.mean() <= bound + slack and elapsed < 120,
        f"mean l2sq {errs.mean():.3e} <= bound {bound:.3e} + 3sem {slack:.1e} "
        f"in {elapsed:.0f}s (< 120s)",
    )


def test_criterion_7_geometric_error_lower_bound():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 99)
    mech = build_geometric_truncated(0, 99, 0.05)
    theta = derive_rng(MASTER, 7, 0).dirichlet(np.ones(100))
    dist = Distribution(alpha, theta)
    errs = []
    for rep in range(200):
        rng = derive_rng(MASTER, 7, 1, rep)
        data = sample_synthetic(Explicit(dist), 10_000, rng)
        obs = obfuscate_dataset(mech, data.values, rng)
        errs.append(l2sq(inv_raw(to_empirical(obs), mech), theta))
    errs = np.asarray(errs)
    bound = inv_geometric_error_lower_bound(0.05, 10_000)
    slack = 3.0 * errs.std(ddof=1) / math.sqrt(errs.size)
    elapsed = time.perf_counter() - start
    report(
        7,
        errs.mean() >= bound - slack,
        f"mean l2sq {errs.mean():.2f} >= bound {bound:.3f} - 3sem {slack:.1e} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_8_rappor_concavity_probability():
    start = time.perf_counter()
    alpha = LinearAlphabet.range(0, 9)
    mech = build_rappor(alpha, 1.0)
    bound = rappor_concavity_prob_bound(10, 1.0, 25)
    hits = 0
    trials = 500
    for trial in range(trials):
        rng = derive_rng(MASTER, 8, trial)
        data = [int(v) for v in rng.integers(0, 10, size=25)]
        obs = obfuscate_dataset(mech, data, rng)
        if strict_concavity_check(obs_matrix(mech, obs)).strictly_concave:
            hits += 1
    freq = hits / trials
    elapsed = time.perf_counter() - start
    report(
        8,
        freq >= bound and bound > 0.99,
        f"frequency {freq:.4f} >= bound {bound:.4f} > 0.99 in {elapsed:.0f}s",
    )


def test_criterion_9_non_identifiable_fixed_points():
    start = time.perf_counter()
    inp = PlanarAlphabet.grid(5, 5, 1.0)
    out = PlanarAlphabet.grid(4, 4, 1.0)
    mech = build_geometric_planar(inp, out, 0.5)
    no_ident = not identification_check(mech)

    theta = derive_rng(31, 0).dirichlet(np.ones(25) * 0.5)
    q = theta @ mech.matrix  # exact output distribution: infinite-data limit
    G = ObsMatrix(inp, mech.outputs, mech.matrix, q)
    estimates = []
    for s in range(3):
        start_dist = distribution_new(inp, derive_rng(31, 1, s).dirichlet(np.ones(25) * 0.4))
        estimates.append(ibu(G, theta0=start_dist, tol=1e-13, max_iter=200_000).estimate)
    min_emd = np.inf
    max_dl = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            min_emd = min(min_emd, emd_planar(estimates[i], estimates[j]))
            max_dl = max(max_dl, abs(
                log_likelihood(G, estimates[i]) - log_likelihood(G, estimates[j])
            ))
    elapsed = time.perf_counter() - start
    report(
        9,
        no_ident and min_emd > 0.05 and max_dl < 1e-6 and elapsed < 60,
        f"identification false; pairwise EMD >= {min_emd:.3f} (> 0.05); "
        f"loglik spread {max_dl:.1e} (< 1e-6) in {elapsed:.0f}s (< 60s)",
    )


def test_criterion_10_reduction_equivalence():
    mech = build_geometric_linear(1.0)
    rng = derive_rng(1010, 0)
    data = sample_synthetic(Binomial(10, 0.5), 10_000, rng)
    obs = obfuscate_dataset(mech, data.values, derive_rng(1010, 1))

    # both pipelines timed end to end: subset construction + estimation
    # against wide-window matrix construction + estimation
    def reduced_run():
        subset = likely_linear(INTEGER_LINE, obs)
        return restrict_and_lift(mech, obs, subset, tol=1e-12)

    wide_alpha = LinearAlphabet.range(-50, 54)

    def wide_run():
        return ibu(obs_matrix(mech, obs, alphabet=wide_alpha), tol=1e-12)

    t_reduced = min(_timed(reduced_run) for _ in range(5))
    t_wide = min(_timed(wide_run) for _ in range(5))
    lifted = reduced_run()
    G_wide = obs_matrix(mech, obs, alphabet=wide_alpha)
    wide = wide_run().estimate

    lift_vec = np.zeros(wide_alpha.size)
    for v, p in zip(lifted.alphabet.values, lifted.probs):
        lift_vec[wide_alpha.index(v)] = p
    dl = abs(log_likelihood(G_wide, lift_vec) - log_likelihood(G_wide, wide.probs))

    alpha = LinearAlphabet.range(0, 99)
    kmech = build_krr(alpha, 3.0)
    kdata = sample_synthetic(
        Explicit(Distribution(alpha, derive_rng(1011).dirichlet(np.ones(100)))),
        500, derive_rng(1012),
    )
    kobs = obfuscate_dataset(kmech, kdata.values, derive_rng(1013))
    klift = restrict_and_lift(kmech, kobs, likely_krr(alpha, kobs))
    observed = set(kobs.values())
    support_ok = all(
        p == 0.0 for v, p in zip(alpha.values, klift.probs) if v not in observed
    )

    report(
        10,
        dl < 1e-6 and t_reduced < t_wide and support_ok,
        f"loglik match {dl:.1e} (< 1e-6); reduced {t_reduced*1e3:.1f}ms < "
        f"wide {t_wide*1e3:.1f}ms; k-rr support inside observed set",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_11_invariant_suites():
    from test_invariants import (
        test_em_monotonicity_1000_cases,
        test_emd_metric_axioms_1000_cases,
        test_row_stochasticity_1000_cases,
        test_sampler_matches_kernel_1000_cases,
        test_simplex_projection_optimality_1000_cases,
    )

    start = time.perf_counter()
    test_em_monotonicity_1000_cases()
    test_row_stochasticity_1000_cases()
    test_simplex_projection_optimality_1000_cases()
    test_emd_metric_axioms_1000_cases()
    test_sampler_matches_kernel_1000_cases()
    elapsed = time.perf_counter() - start
    report(11, True, f"five 1000-case invariant suites green in {elapsed:.0f}s")
