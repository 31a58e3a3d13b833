"""The engine and the closed forms against exact closed forms at high gain, and the engine's precision bound.

The closed-form noise variances are evaluated in 60-digit ``decimal``
arithmetic at the same float parameters the engine runs, so the reference
carries no rounding of its own: a relative error is the engine's (or the
float closed form's).
"""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import (
    InstabilityError,
    SisniParams,
    SqMziParams,
    build_sisni,
    detect_stats,
    engine_report,
    mean_signal_and_variance,
    snr_sq_mzi_closed,
)

PRECISION_REFUSAL = "engine: the precision bound eps * prod(G + g) = "


def _exact(kernel, *values) -> float:
    """``kernel`` of the float ``values``, each converted exactly, in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(kernel(*map(Decimal, values)))


def _sq_mzi_var(g, L_i, L_e):
    G = (1 + g * g).sqrt()
    eta = (1 - L_i) * (1 - L_e)
    return eta / ((G + g) * (G + g)) + L_i * (1 - L_e) + L_e


def _nested_var(g1, g2, L_is, L_ii, L_e):
    G1, G2 = (1 + g1 * g1).sqrt(), (1 + g2 * g2).sqrt()
    eta_s, eta_i = (1 - L_is) * (1 - L_e), (1 - L_ii) * (1 - L_e)
    loss_noise = L_e + g2 * g2 * (1 - L_e) * L_ii + G2 * G2 * (1 - L_e) * L_is
    rs, ri = eta_s.sqrt(), eta_i.sqrt()
    d1, d2 = rs * G1 * G2 - ri * g1 * g2, rs * g1 * G2 - ri * G1 * g2
    return loss_noise + d1 * d1 + d2 * d2


def _gains(top: float):
    """Gains spread over the decades up to ``top``, and 0."""
    return st.one_of(st.just(0.0), st.floats(-3.0, math.log10(top)).map(lambda e: 10.0**e))


# A lossless arm half of the time: the lossless circuits are the ones that cancel.
LOSSES = st.one_of(st.just(0.0), st.floats(0.0, 0.9))


@settings(max_examples=150, deadline=None)
@given(_gains(1e9), LOSSES, LOSSES)
def test_squeezed_mzi_variance_is_exact(g, L_i, L_e):
    var = engine_report(SqMziParams(alpha=6.0, g=g, L_i=L_i, L_e=L_e)).var_X2
    exact = _exact(_sq_mzi_var, g, L_i, L_e)
    assert abs(var - exact) <= 1e-9 * exact


@settings(max_examples=150, deadline=None)
@given(_gains(1e4), _gains(1e4), LOSSES, LOSSES, LOSSES)
def test_nested_variance_is_exact_or_refused(g1, g2, L_is, L_ii, L_e):
    params = SisniParams(alpha=6.0, g1=g1, g2=g2, L_is=L_is, L_ii=L_ii, L_e=L_e)
    try:
        var = engine_report(params).var_X2
    except InstabilityError as err:
        assert str(err).startswith(PRECISION_REFUSAL)
    else:
        exact = _exact(_nested_var, g1, g2, L_is, L_ii, L_e)
        assert abs(var - exact) <= 1e-6 * exact


@settings(max_examples=150, deadline=None)
@given(_gains(1e8), st.one_of(st.none(), _gains(1e8)), LOSSES, LOSSES, LOSSES)
def test_nested_closed_form_is_exact(g1, g2, L_is, L_ii, L_e):
    """Within 1e-9 of the exact variance, matched gains (``g2`` None) included."""
    g2 = g1 if g2 is None else g2
    params = SisniParams(alpha=6.0, g1=g1, g2=g2, L_is=L_is, L_ii=L_ii, L_e=L_e)
    var = mean_signal_and_variance(params).var_X2
    exact = _exact(_nested_var, g1, g2, L_is, L_ii, L_e)
    assert abs(var - exact) <= 1e-9 * exact


@pytest.mark.parametrize("g", [1e5, 1e6, 1e7, 1e8, 1e10, 1e150])
def test_lossless_nested_closed_form_is_not_refused(g):
    """Matched lossless gains give exactly the vacuum variance 1, once a difference of G² products."""
    assert mean_signal_and_variance(SisniParams(alpha=6.0, g1=g, g2=g)).var_X2 == pytest.approx(1.0, rel=1e-12)


class TestSqueezerAtHighGain:
    """The squeezed factor is ``1/(G + g)``, not the cancelling ``G - g``."""

    def test_snr_matches_the_closed_form(self):
        params, dphi = SqMziParams(alpha=6.0, g=1e7), 1e-3
        discretization = (math.sin(dphi) / dphi) ** 2
        closed = snr_sq_mzi_closed(params, dphi) * discretization
        assert engine_report(params, dphi).snr == pytest.approx(closed, rel=1e-9)

    def test_reports_below_the_precision_bound(self):
        report = engine_report(SqMziParams(alpha=6.0, g=1e9))
        assert all(map(math.isfinite, (report.mean_X2, report.var_X2, report.snr, report.phase_variance)))
        assert report.var_X2 == pytest.approx(_exact(_sq_mzi_var, 1e9, 0.0, 0.0), rel=1e-9)


class TestPrecisionBound:
    def test_refuses_the_lossless_nested_floor(self):
        with pytest.raises(InstabilityError) as err:
            engine_report(SisniParams(alpha=6.0, g1=1e5, g2=1e5))
        assert str(err.value) == (
            "engine: the precision bound eps * prod(G + g) = 8.9e-06 exceeds 1e-06 at gains g1 = 100000, g2 = 100000"
        )

    def test_is_conservative(self):
        """A lossy nested circuit at g = 1e5 is refused although the unguarded pass is accurate."""
        params = SisniParams(alpha=6.0, g1=1e5, g2=1e5, L_is=0.16, L_ii=0.1, L_e=0.15)
        with pytest.raises(InstabilityError, match="^engine: the precision bound"):
            engine_report(params)
        variance = detect_stats(build_sisni(params)[0]).variance
        assert variance == pytest.approx(_exact(_nested_var, 1e5, 1e5, 0.16, 0.1, 0.15), rel=1e-13)
