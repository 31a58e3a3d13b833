"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Tolerances are pinned here and in the library contracts; the two
fits of the closed forms against the covariance engine share no code path
(the closed forms are direct formula transcriptions, the engine composes
elementary channel maps).
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gicirc import (
    NoisyPaParams,
    SisniParams,
    SqMziParams,
    advantage_vs_qng,
    apply,
    build_sisni,
    build_sq_mzi,
    coupling_factors,
    detect_stats,
    engine_report,
    fit_noise_model,
    fit_snr_vs_power,
    gain_from_qng,
    noisy_pa,
    parametric_amplifier,
    slope_vs_theta,
    snr_gain_db,
    snr_sisni_closed,
    snr_sq_mzi_closed,
    sql_baseline,
    wigner_panel,
)
from conftest import random_physical_state

PAPER_LOSSES = (0.16, 0.10, 0.15)


def criterion(label):
    """Print one PASS/FAIL line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")

        return wrapper

    return decorate


@criterion("criterion 1: engine matches both closed forms to 1e-6 over 1e4 random sets")
def test_c01_closed_form_oracle():
    rng = np.random.default_rng(20240809)
    dphi = 1e-4
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        g1, g2 = rng.uniform(0.0, 2.0, 2)
        l_is, l_ii, l_e = rng.uniform(0.0, 0.9, 3)
        alpha = math.sqrt(rng.uniform(1.0, 100.0))

        mzi = SqMziParams(alpha=alpha, g=g1, L_i=l_is, L_e=l_e)
        err = abs(engine_report(mzi, dphi).snr / snr_sq_mzi_closed(mzi, dphi) - 1.0)
        worst = max(worst, err)

        nested = SisniParams(alpha=alpha, g1=g1, g2=g2, L_is=l_is, L_ii=l_ii, L_e=l_e)
        err = abs(engine_report(nested, dphi).snr / snr_sisni_closed(nested, dphi) - 1.0)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"worst relative error {worst}"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"      worst rel err {worst:.2e}, {elapsed:.1f} s", end="  ")


@criterion("criterion 2: lossless matched-gain SNR ratio equals G2^2 = (10^0.6+1)/2")
def test_c02_lossless_sisni_ratio():
    g = gain_from_qng(6.0)
    params = SisniParams(alpha=6.0, g1=g.g, g2=g.g)
    expected = (10**0.6 + 1.0) / 2.0
    assert expected == pytest.approx(2.4905, abs=1e-4)

    closed_ratio = snr_sisni_closed(params, 1e-3) / snr_sq_mzi_closed(
        sql_baseline(params), 1e-3
    )
    assert closed_ratio == pytest.approx(expected, abs=1e-9)

    engine_ratio = engine_report(params, 1e-3).snr / engine_report(
        sql_baseline(params), 1e-3
    ).snr
    assert engine_ratio == pytest.approx(expected, abs=1e-9)


@criterion("criterion 3: external-loss immunity (flat) vs squeezed-MZI degradation")
def test_c03_external_loss_immunity():
    g = gain_from_qng(6.0)
    les = np.linspace(0.0, 0.99, 100)

    nested_adv = np.array(
        [snr_gain_db(SisniParams(alpha=6.0, g1=g.g, g2=g.g, L_e=le)) for le in les]
    )
    assert np.ptp(nested_adv) < 1e-9, f"spread {np.ptp(nested_adv)} dB"

    squeezed_adv = np.array(
        [snr_gain_db(SqMziParams(alpha=6.0, g=g.g, L_e=le)) for le in les]
    )
    assert np.all(np.diff(squeezed_adv) < 0.0)
    assert squeezed_adv[0] > 1.0
    assert squeezed_adv[-1] < 0.1


@criterion("criterion 4: g = 0 baseline has unit variance and SNR = eta dphi^2 alpha^2")
def test_c04_sql_identity():
    rng = np.random.default_rng(4)
    dphi = 1e-3
    for _ in range(200):
        l_i, l_e = rng.uniform(0.0, 0.95, 2)
        alpha = math.sqrt(rng.uniform(1.0, 100.0))
        params = SqMziParams(alpha=alpha, L_i=l_i, L_e=l_e)
        spec, mode = build_sq_mzi(params)
        assert detect_stats(spec).variance == pytest.approx(1.0, abs=1e-12)
        expected = (1.0 - l_i) * (1.0 - l_e) * dphi * dphi * alpha * alpha
        assert snr_sq_mzi_closed(params, dphi) == pytest.approx(expected, rel=1e-12)


@criterion("criterion 5: commutator identity to 1e-12; rho = 0 equals the ideal amplifier")
def test_c05_commutation_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10_000):
        rho = rng.uniform(0.0, 0.1)
        kappa = rng.uniform(0.0, 0.9 * (1.0 + rho) / 2.0)
        f = coupling_factors(NoisyPaParams(rho, kappa, 1.0))
        worst = max(worst, abs(f.commutator_defect()))
    assert worst < 1e-12, f"worst defect {worst}"

    for kappa in (0.1, 0.3, 0.45):
        p = NoisyPaParams(0.0, kappa, 17.0)
        f = coupling_factors(p)
        noisy = noisy_pa((0, 1), p, 2)
        ideal = parametric_amplifier((0, 1), f.g_bar, 2)
        for _ in range(20):
            st = random_physical_state(rng, 2)
            a, b = apply(st, noisy), apply(st, ideal)
            assert np.abs(a.cov - b.cov).max() < 1e-12
    print(f"      worst defect {worst:.2e}", end="  ")


@criterion("criterion 6: advantage saturates in QNG2; lower QNG1 wins in the studied window")
def test_c06_noise_model_shape():
    noise1, noise2 = (5e-4, 2.0), (4e-4, 208.0)

    sat_grid = np.linspace(2.0, 14.0, 13)
    curve = advantage_vs_qng(4.0, sat_grid, PAPER_LOSSES, noise1, noise2)
    inc = np.diff(curve)
    assert np.all(inc > 0.0)
    assert inc[-1] < 0.05 * inc[0], "no saturation"

    # Ordering window: up to the downstream operating gain (6 dB).  Beyond
    # it, gain matching starts to favor the larger upstream gain, so the
    # low-gain benefit is a low-to-moderate-gain statement.
    window = np.linspace(2.0, 6.0, 9)
    low = advantage_vs_qng(4.0, window, PAPER_LOSSES, noise1, noise2)
    high = advantage_vs_qng(8.0, window, PAPER_LOSSES, noise1, noise2)
    assert np.all(high < low)


@criterion("criterion 7: fit recovers eps^2 within 5% and rho within 10%, deterministically")
def test_c07_fit_recovery():
    truth1, truth2 = (5e-4, 2.0), (4e-4, 208.0)
    qng2s = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    data = []
    for q1 in (4.0, 8.0):
        curve = advantage_vs_qng(q1, qng2s, PAPER_LOSSES, truth1, truth2)
        data.extend((q1, q2, float(a)) for q2, a in zip(qng2s, curve))

    t0 = time.perf_counter()
    result = fit_noise_model(data, PAPER_LOSSES, seed=7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"fit took {elapsed:.1f} s"
    assert abs(result.rho1 / truth1[0] - 1.0) < 0.10
    assert abs(result.rho2 / truth2[0] - 1.0) < 0.10
    assert abs(result.eps1_sq / truth1[1] - 1.0) < 0.05
    assert abs(result.eps2_sq / truth2[1] - 1.0) < 0.05
    assert result.converged

    # Same seed, same bytes: exercised on a reduced budget to keep the
    # repeat cheap; the search path is identical code either way.
    small = dict(seed=11, restarts=2, max_evals=150)
    a = fit_noise_model(data[:6], PAPER_LOSSES, **small)
    b = fit_noise_model(data[:6], PAPER_LOSSES, **small)
    assert a == b
    print(f"      recovery at {elapsed:.1f} s, residual {result.residual_rms:.2e}", end="  ")


@criterion("criterion 8: SNR is exactly linear in input power; origin fit is exact")
def test_c08_power_linearity():
    nested = SisniParams(
        alpha=6.0,
        g1=gain_from_qng(4.0).g,
        g2=gain_from_qng(6.0).g,
        L_is=0.16,
        L_ii=0.10,
        L_e=0.15,
    )
    for factor in (2.0, 10.0):
        scaled = replace(nested, alpha=nested.alpha * math.sqrt(factor))
        assert snr_sisni_closed(scaled, 1e-3) == pytest.approx(
            factor * snr_sisni_closed(nested, 1e-3), rel=1e-13
        )
        assert engine_report(scaled, 1e-3).snr == pytest.approx(
            factor * engine_report(nested, 1e-3).snr, rel=1e-13
        )
        plain = SqMziParams(alpha=6.0, L_i=0.16, L_e=0.15)
        scaled_plain = replace(plain, alpha=plain.alpha * math.sqrt(factor))
        assert snr_sq_mzi_closed(scaled_plain, 1e-3) == pytest.approx(
            factor * snr_sq_mzi_closed(plain, 1e-3), rel=1e-13
        )

    points = [
        (alpha2, snr_sisni_closed(replace(nested, alpha=math.sqrt(alpha2)), 1e-2))
        for alpha2 in (1.0, 4.0, 16.0, 36.0, 64.0, 100.0)
    ]
    assert fit_snr_vs_power(points).residual_rms < 1e-9


@criterion("criterion 9: Wigner slices integrate to 1 within 1e-6; dark-fringe mean is 0")
def test_c09_wigner_panels():
    step = 0.05
    grid = np.arange(-12.0, 12.0, step) + step / 2
    phis = [math.pi - 0.05, math.pi, math.pi + 0.05]
    les = [0.0, 0.3, 0.6]

    squeezed = SqMziParams(alpha=6.0, g=gain_from_qng(4.0).g)
    nested = SisniParams(
        alpha=6.0,
        g1=gain_from_qng(4.0).g,
        g2=gain_from_qng(6.0).g,
        L_is=0.16,
        L_ii=0.10,
    )
    for params in (squeezed, nested):
        panel = wigner_panel(params, phis, les, grid, grid)
        totals = panel.density.sum(axis=(2, 3)) * step * step
        assert np.abs(totals - 1.0).max() < 1e-6

    for params, builder in ((squeezed, build_sq_mzi), (nested, build_sisni)):
        spec, mode = builder(params)
        assert abs(detect_stats(spec).mean) < 1e-12


@criterion("criterion 10: slope peaks on the phase quadrature; amplified peak ratio is G2")
def test_c10_slope_optimum():
    thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    dphi = 1e-4
    g = gain_from_qng(6.0)

    mzi_slopes = slope_vs_theta(SqMziParams(alpha=6.0), thetas, dphi)
    nested_slopes = slope_vs_theta(
        SisniParams(alpha=6.0, g1=g.g, g2=g.g), thetas, dphi
    )
    for slopes in (mzi_slopes, nested_slopes):
        peak = int(np.argmax(np.abs(slopes)))
        assert peak in (90, 270), f"peak at index {peak}"
        quarter_turn = (peak + 90) % 360
        assert abs(slopes[quarter_turn]) < 1e-9 * np.abs(slopes).max()

    ratio = np.abs(nested_slopes).max() / np.abs(mzi_slopes).max()
    assert ratio == pytest.approx(g.G, abs=1e-9)
