"""Element kinds beside their blocks: constructors are ``element_map`` of a kind."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicirc import (
    Coherent,
    LossSpec,
    ModeError,
    NoisyPaParams,
    PaGain,
    Thermal,
    Vacuum,
    beamsplitter,
    loss_channel,
    make_state,
    noisy_pa,
    parametric_amplifier,
    phase_shift,
    single_mode_squeezer,
)
from gicirc import circuits, elements, noise_model
from gicirc.circuits import (
    BsElement,
    LossElement,
    NoisyPaElement,
    PaElement,
    PhaseElement,
    SqueezerElement,
    element_map,
)

gains = st.floats(0.0, 3.0)
unit = st.floats(0.0, 1.0)
phases = st.floats(-20.0, 20.0)


@st.composite
def register(draw):
    """A mode count and two distinct modes in it."""
    n = draw(st.integers(2, 5))
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(0, n - 2))
    return n, a, b + (b >= a)


@st.composite
def amplifier(draw):
    rho = draw(st.floats(0.0, 0.5))
    kappa = draw(st.floats(0.0, 0.99)) * (1.0 + rho) / 2.0
    return NoisyPaParams(rho, kappa, draw(st.floats(1.0, 50.0)))


def same_map(built, expected):
    return all(
        np.array_equal(getattr(built, part), getattr(expected, part))
        for part in ("linear", "noise", "displacement")
    )


class TestOneDefinitionPerKind:
    def test_kinds_live_beside_their_blocks(self):
        for cls, block in (
            (PaElement, elements._pa_block),
            (SqueezerElement, elements._squeezer_block),
            (BsElement, elements._bs_block),
            (PhaseElement, elements._phase_block),
            (LossElement, elements._loss_block),
        ):
            assert cls.__module__ == "gicirc.elements" and cls.block is block
        assert NoisyPaElement.__module__ == "gicirc.noise_model"
        assert NoisyPaElement.block is noise_model._noisy_pa_block
        assert circuits.element_map is elements.element_map

    def test_table_rows_read_the_block_from_the_class(self):
        for kind in circuits._ELEMENTS.values():
            assert kind.block is kind.cls.block

    @settings(max_examples=60, deadline=None)
    @given(register(), gains, unit, phases, unit, st.sampled_from(elements.BS_CONVENTIONS), amplifier())
    def test_constructors_equal_element_map(self, reg, g, T, phi, L, convention, params):
        n, a, b = reg
        for built, element in (
            (parametric_amplifier((a, b), g, n), PaElement((a, b), g)),
            (parametric_amplifier((a, b), PaGain(g), n), PaElement((a, b), g)),
            (single_mode_squeezer(a, g, n), SqueezerElement(a, g)),
            (single_mode_squeezer(b, PaGain(g), n), SqueezerElement(b, g)),
            (beamsplitter((a, b), T, n, convention), BsElement((a, b), T, convention)),
            (phase_shift(b, phi, n), PhaseElement(b, phi)),
            (loss_channel(a, L, n), LossElement(a, L)),
            (loss_channel(b, LossSpec(L), n), LossElement(b, L)),
            (
                noisy_pa((a, b), params, n),
                NoisyPaElement((a, b), params.rho, params.kappa, params.epsilon2),
            ),
        ):
            assert same_map(built, element_map(element, n))

    def test_non_element_is_a_type_error(self):
        for thing in (Vacuum(), "bs", 3):
            with pytest.raises(TypeError, match="unknown element"):
                element_map(thing, 2)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# (constructor call, the same element through element_map, expected error)
INVALID = [
    (lambda: parametric_amplifier((0, 1), -0.5, 2), lambda: element_map(PaElement((0, 1), -0.5), 2),
     (ValueError, "parametric gain g must be >= 0, got -0.5")),
    (lambda: parametric_amplifier((0, 1), math.nan, 2), lambda: element_map(PaElement((0, 1), math.nan), 2),
     (ValueError, "parametric gain g must be finite, got nan")),
    (lambda: parametric_amplifier((1, 1), 0.5, 2), lambda: element_map(PaElement((1, 1), 0.5), 2),
     (ValueError, "pair modes must be distinct, got (1, 1)")),
    (lambda: parametric_amplifier(5, 0.1, 2), lambda: element_map(PaElement(5, 0.1), 2),
     (ValueError, "pair modes must be two mode indices, got 5")),
    (lambda: parametric_amplifier((0, 2), 0.5, 2), lambda: element_map(PaElement((0, 2), 0.5), 2),
     (ModeError, "mode 2 out of range for 2 modes")),
    (lambda: single_mode_squeezer(0, -1.0, 1), lambda: element_map(SqueezerElement(0, -1.0), 1),
     (ValueError, "parametric gain g must be >= 0, got -1.0")),
    (lambda: single_mode_squeezer(3, 0.5, 2), lambda: element_map(SqueezerElement(3, 0.5), 2),
     (ModeError, "mode 3 out of range for 2 modes")),
    (lambda: beamsplitter((0, 1), 1.5, 2), lambda: element_map(BsElement((0, 1), 1.5), 2),
     (ValueError, "beamsplitter transmission T must lie in [0, 1], got 1.5")),
    (lambda: beamsplitter((0, 1), 0.5, 2, "bogus"), lambda: element_map(BsElement((0, 1), 0.5, "bogus"), 2),
     (ValueError, "unknown beamsplitter convention 'bogus'; expected one of ('second_minus', 'first_plus')")),
    (lambda: beamsplitter((0, 0), 0.5, 2), lambda: element_map(BsElement((0, 0), 0.5), 2),
     (ValueError, "pair modes must be distinct, got (0, 0)")),
    (lambda: beamsplitter((0, 1, 2), 0.5, 3), lambda: element_map(BsElement((0, 1, 2)), 3),
     (ValueError, "pair modes must be two mode indices, got (0, 1, 2)")),
    (lambda: beamsplitter((-1, 0), 0.5, 2), lambda: element_map(BsElement((-1, 0), 0.5), 2),
     (ModeError, "mode -1 out of range for 2 modes")),
    (lambda: phase_shift(0, math.inf, 1), lambda: element_map(PhaseElement(0, math.inf), 1),
     (ValueError, "phase phi must be finite, got inf")),
    (lambda: phase_shift(1, 0.3, 1), lambda: element_map(PhaseElement(1, 0.3), 1),
     (ModeError, "mode 1 out of range for 1 modes")),
    (lambda: loss_channel(0, 1.2, 1), lambda: element_map(LossElement(0, 1.2), 1),
     (ValueError, "loss L must lie in [0, 1], got 1.2")),
    (lambda: loss_channel(-1, 0.2, 1), lambda: element_map(LossElement(-1, 0.2), 1),
     (ModeError, "mode -1 out of range for 1 modes")),
    (lambda: noisy_pa((1, 1), NoisyPaParams(0.1, 0.2), 2),
     lambda: element_map(NoisyPaElement((1, 1), 0.1, 0.2, 1.0), 2),
     (ValueError, "pair modes must be distinct, got (1, 1)")),
    (lambda: noisy_pa((0,), NoisyPaParams(0.1, 0.2), 2),
     lambda: element_map(NoisyPaElement((0,), 0.1, 0.2, 1.0), 2),
     (ValueError, "pair modes must be two mode indices, got (0,)")),
    (lambda: noisy_pa((0, 4), NoisyPaParams(0.1, 0.2), 3),
     lambda: element_map(NoisyPaElement((0, 4), 0.1, 0.2, 1.0), 3),
     (ModeError, "mode 4 out of range for 3 modes")),
]


class TestOneCheckPerField:
    @pytest.mark.parametrize("constructor, kind, expected", INVALID)
    def test_constructor_reports_what_the_kind_reports(self, constructor, kind, expected):
        assert raised(constructor) == raised(kind) == expected


class TestPreparations:
    @pytest.mark.parametrize(
        "prep, mean, variance",
        [
            (Vacuum(), (0.0, 0.0), 1.0),
            (Coherent(complex(1.5, -0.25)), (3.0, -0.5), 1.0),
            (Thermal(2.5), (0.0, 0.0), 2.5),
        ],
    )
    def test_each_preparation_gives_its_mode_mean_and_variance(self, prep, mean, variance):
        assert prep.mode_mean == mean and prep.variance == variance
        state = make_state(2, [Vacuum(), prep])
        assert state.mean.tolist() == [0.0, 0.0, *mean]
        assert np.array_equal(state.cov, np.diag([1.0, 1.0, variance, variance]))

    @pytest.mark.parametrize("bad", [None, "vacuum", PaElement((0, 1), 0.1)])
    def test_unknown_preparation_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match=r"^unknown preparation .* for mode 1$"):
            make_state(2, [Vacuum(), bad])
