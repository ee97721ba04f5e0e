"""The model's per-herald outcome law is the sampler's.

``model.readout_law`` feeds both the sampler's correlated-readout
probabilities (through ``montecarlo._kernel_args``) and the model's joint
coincidence probabilities. Here the sampler's outcome probabilities are
derived exactly from its integer keys, by the decision rule of the scalar
oracle in ``oracles.trial_records_oracle``, and compared with the model.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlczsim import _kernels, montecarlo
from dlczsim.model import (
    DecayModel,
    MeasurementSettings,
    SourceParams,
    coincidence_probabilities,
    readout_law,
)

WORDS = 2 ** 64


def _reference_law(sp, dm, t, eta, setting):
    """``(a, joint)`` by the scalar formulas of ``_kernel_args`` and
    ``coincidence_probabilities`` from before both came from
    ``readout_law``, with numpy's exp for both decay laws and a joint
    clipped to 1."""
    x = np.float64(t) / dm.tau0
    q = float(dm.r0 * (np.exp(-x * x) + np.exp(-x)) / 2.0) * eta
    xg = t / sp.vis_tau_gauss
    xe = t / sp.vis_tau_exp
    vis = sp.werner_p0 * (np.exp(-xg * xg) + np.exp(-xe)) / 2.0
    ts = math.radians(setting.theta_s)
    tas = math.radians(setting.theta_as)
    c = (math.cos(2 * ts) * math.cos(2 * tas)
         + math.cos(sp.phase_total) * math.sin(2 * ts) * math.sin(2 * tas))
    same = (1.0 + vis * c) / 4.0
    cross = (1.0 - vis * c) / 4.0
    w = (same, cross, cross, same)
    a = tuple(2.0 * q * wij for wij in w)
    joint = tuple(min(1.0, q * wij + sp.p_noise / 4.0) for wij in w)
    return a, joint


def _given_herald(b3, b4, p_noise):
    """Exact ``(corr3, corr4, P(D3), P(D4))`` of one herald detector.

    The oracle's rule on the words: draw 1 reads D3 below the key of
    ``b3`` and D4 below the key of ``b3 + b4``; when it misses, draw 2
    clicks in the background below the key of ``p_noise``, on D3 below the
    key of ``p_noise / 2``.
    """
    key = _kernels._threshold
    corr3 = Fraction(key(b3), WORDS)
    corr4 = Fraction(key(b3 + b4) - key(b3), WORDS)
    miss = 1 - corr3 - corr4
    bg3 = Fraction(key(p_noise * 0.5), WORDS)
    bg4 = Fraction(key(p_noise) - key(p_noise * 0.5), WORDS)
    return corr3, corr4, corr3 + miss * bg3, corr4 + miss * bg4


def _sampler_law(sp, dm, t, eta, setting):
    """The sampler's ``_kernel_args`` and, per herald detector, its exact
    outcome probabilities."""
    cfg = montecarlo.SequenceConfig(storage_time=t)
    args = montecarlo._kernel_args(cfg, sp, dm, 0.5, eta, setting)
    a13, a14, a23, a24, p_noise = args[2:7]
    return args, (_given_herald(a13, a14, p_noise),
                  _given_herald(a23, a24, p_noise))


unit = st.floats(0.0, 1.0)
lifetime = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)
angle = st.floats(-180.0, 180.0)


@st.composite
def herald_cases(draw):
    sp = SourceParams(chi=draw(st.floats(0.0, 0.99)),
                      phase_write=draw(st.floats(0.0, 7.0)),
                      phase_read=draw(st.floats(0.0, 7.0)),
                      werner_p0=draw(unit), vis_tau_gauss=draw(lifetime),
                      vis_tau_exp=draw(lifetime),
                      p_noise=draw(st.floats(0.0, 0.5)))
    dm = DecayModel(draw(unit), draw(lifetime))
    return (sp, dm, draw(st.floats(0.0, 0.1)), draw(unit),
            MeasurementSettings(draw(angle), draw(angle)))


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(herald_cases())
def test_sampler_inputs_and_joint_law_are_unchanged(case):
    # the joint half pins today's background, which ROADMAP item 2 changes
    sp, dm, t, eta, setting = case
    a, joint = _reference_law(sp, dm, t, eta, setting)
    args, _ = _sampler_law(sp, dm, t, eta, setting)
    assert _hex(args[2:6]) == _hex(a)
    assert _hex(coincidence_probabilities(sp, dm, t, eta, setting)) == \
        _hex(joint)


@settings(max_examples=300, deadline=None)
@given(herald_cases())
def test_model_readout_law_is_the_samplers(case):
    sp, dm, t, eta, setting = case
    law = readout_law(sp, dm, t, eta, setting)
    _, heralds = _sampler_law(sp, dm, t, eta, setting)
    for (b3, b4), (corr3, corr4, _, _) in zip((law.a[:2], law.a[2:]),
                                              heralds):
        # a key rounds its probability up by less than 2**-53; D4 lies
        # between two keys, the upper one of the float sum b3 + b4
        assert abs(corr3 - Fraction(b3)) < Fraction(1, 2 ** 53)
        assert abs(corr4 - Fraction(b4)) < Fraction(3, 2 ** 54)
    half = Fraction(sp.p_noise) / 2
    key = _kernels._threshold
    assert abs(Fraction(key(sp.p_noise * 0.5), WORDS) - half) < \
        Fraction(1, 2 ** 53)
    assert abs(Fraction(key(sp.p_noise) - key(sp.p_noise * 0.5), WORDS)
               - half) < Fraction(1, 2 ** 53)


def _sampler_joint(case):
    """The sampler's joint per-herald probabilities: each herald detector
    has marginal 1/2."""
    _, heralds = _sampler_law(*case)
    return [float(p / 2) for given_i in heralds for p in given_i[2:]]


@settings(max_examples=300, deadline=None)
@given(herald_cases())
def test_sampler_joint_is_item_2_formula(case):
    sp, dm, t, eta, setting = case
    law = readout_law(sp, dm, t, eta, setting)
    want = [law.q * wij + (1.0 - law.q) * sp.p_noise / 4.0 for wij in law.w]
    assert _sampler_joint(case) == pytest.approx(want, rel=0, abs=1e-15)


PAPER_SOURCE = SourceParams(chi=0.02, werner_p0=0.887, vis_tau_gauss=2.29e-3,
                            vis_tau_exp=6.6e-3, p_noise=1e-4)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: coincidence_probabilities adds p_noise/4 to every "
    "outcome, but the sampler draws a background click only when the "
    "correlated readout misses"))
@pytest.mark.parametrize("sp, t, eta", [
    (PAPER_SOURCE, 0.0, 0.15),
    (PAPER_SOURCE, 1.15e-3, 0.15),
    (PAPER_SOURCE, 2.6e-3, 0.15),
    (SourceParams(chi=0.3, werner_p0=0.6, p_noise=0.3), 2e-4, 0.8),
])
@pytest.mark.parametrize("setting", [MeasurementSettings(0.0, 22.5),
                                     MeasurementSettings(30.0, -70.0)])
def test_model_joint_is_the_samplers(sp, t, eta, setting):
    case = (sp, DecayModel(0.77, 1e-3), t, eta, setting)
    got = coincidence_probabilities(*case)
    assert list(got) == pytest.approx(_sampler_joint(case), rel=0,
                                      abs=1e-12)
