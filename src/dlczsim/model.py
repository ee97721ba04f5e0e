"""Closed-form model of a cavity-enhanced atom-photon entanglement source.

Pure functions only: retrieval-efficiency decay, detection-chain budgets,
polarization-correlation probabilities for the heralded photon pair, CHSH
statistics, and the intrinsic-retrieval estimators. Everything here is
deterministic and safe to call from any number of threads.

Conventions
-----------
* SI units internally (seconds, meters, Hz); analysis angles in degrees at
  the API surface, radians in the arithmetic.
* The effective two-photon state is a Werner mixture: a maximally entangled
  polarization pair with relative phase ``phase_write + phase_read``, mixed
  with white noise. Its mixing parameter decays in time with the same
  Gaussian-plus-exponential family used for the retrieval efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._keys import defaults
from .errors import InsufficientStatisticsError

SPEED_OF_LIGHT_VACUUM = 2.998e8  # m/s, for cavity arithmetic

TWO_PI = 2.0 * math.pi
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


def _check_unit_interval(name: str, value, *, hi_open: bool = False) -> None:
    # an array is checked at its extremes, which are NaN if it holds one
    lo, hi = ((value.min(), value.max()) if isinstance(value, np.ndarray)
              else (value, value))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    if hi_open and hi == 1.0:
        raise ValueError(f"{name} must be < 1")


@dataclass(frozen=True)
class SourceParams:
    """Per-trial source parameters of the write/read entanglement source.
    Its defaults are neutral and noise-free, not a run's (the key table's).

    chi            per-trial probability of creating an entangled pair
    phase_write    relative phase between the two write-out field paths
    phase_read     relative phase between the two readout field paths
    werner_p0      zero-delay mixing parameter of the effective pair state
    vis_tau_gauss  Gaussian visibility-decay constant (s)
    vis_tau_exp    exponential visibility-decay constant (s)
    p_noise        uncorrelated background probability per read pulse
    """

    chi: float
    phase_write: float = 0.0
    phase_read: float = 0.0
    werner_p0: float = 1.0
    vis_tau_gauss: float = 1.0
    vis_tau_exp: float = 1.0
    p_noise: float = 0.0

    def __post_init__(self) -> None:
        _check_unit_interval("chi", self.chi, hi_open=True)
        _check_unit_interval("werner_p0", self.werner_p0)
        _check_unit_interval("p_noise", self.p_noise, hi_open=True)
        for name in ("vis_tau_gauss", "vis_tau_exp"):
            v = getattr(self, name)
            if not (v > 0.0) or not np.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        for name in ("phase_write", "phase_read"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v % TWO_PI)

    @property
    def phase_total(self) -> float:
        """Combined pair phase; zero when the compensator is active."""
        return (self.phase_write + self.phase_read) % TWO_PI


@dataclass(frozen=True)
class DecayModel:
    """Zero-delay intrinsic retrieval efficiency and its decay constant."""

    r0: float
    tau0: float

    def __post_init__(self) -> None:
        _check_unit_interval("r0", self.r0)
        if not (self.tau0 > 0.0) or not np.isfinite(self.tau0):
            raise ValueError(f"tau0 must be positive and finite, got {self.tau0!r}")


@dataclass(frozen=True)
class DetectionChain:
    """Per-stage efficiencies of one detection channel.

    The cavity escape factor is derived from the output-coupler transmission
    and the round-trip loss; the remaining factors multiply directly. The
    frequency-conversion factor's default is that of no telecom interface.
    """

    t_ocm: float
    cavity_loss: float
    eta_smf: float
    eta_filter: float
    eta_mmf: float
    eta_det: float
    eta_fc: float = defaults("detection.write")["eta_fc"]

    def __post_init__(self) -> None:
        for name in ("t_ocm", "cavity_loss", "eta_smf", "eta_filter",
                     "eta_mmf", "eta_det", "eta_fc"):
            _check_unit_interval(name, getattr(self, name))
        if self.t_ocm + self.cavity_loss <= 0.0:
            raise ValueError("t_ocm + cavity_loss must be > 0")


@dataclass(frozen=True)
class MeasurementSettings:
    """Polarization analysis angles for the two detection channels, degrees."""

    theta_s: float
    theta_as: float

    def __post_init__(self) -> None:
        for name in ("theta_s", "theta_as"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


#: CHSH settings used throughout: (theta_s, theta_as) in degrees, ordered as
#: (a,b), (a,b'), (a',b), (a',b').
CANONICAL_SETTINGS = (
    MeasurementSettings(0.0, 22.5),
    MeasurementSettings(0.0, 67.5),
    MeasurementSettings(45.0, 22.5),
    MeasurementSettings(45.0, 67.5),
)


@dataclass(frozen=True)
class CoincidenceCounts:
    """Detector-pair coincidences plus herald singles for one angle setting.

    ``c13`` counts coincidences between the herald detector D1 and readout
    detector D3, and so on; ``s1``/``s2`` are the herald singles. At most one
    herald per trial, so ``s1 + s2 <= n_trials``.
    """

    c13: int
    c14: int
    c23: int
    c24: int
    s1: int
    s2: int
    n_trials: int = -1

    def __post_init__(self) -> None:
        fields = ("c13", "c14", "c23", "c24", "s1", "s2")
        for name in fields:
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_trials == -1:
            object.__setattr__(self, "n_trials", self.s1 + self.s2)
        if not isinstance(self.n_trials, (int, np.integer)) or self.n_trials < 0:
            raise ValueError(f"n_trials must be a non-negative integer, got {self.n_trials!r}")
        object.__setattr__(self, "n_trials", int(self.n_trials))
        if self.c13 + self.c14 > self.s1:
            raise ValueError("c13 + c14 exceeds the D1 herald singles")
        if self.c23 + self.c24 > self.s2:
            raise ValueError("c23 + c24 exceeds the D2 herald singles")
        if self.s1 + self.s2 > self.n_trials:
            raise ValueError("s1 + s2 exceeds n_trials (one herald at most per trial)")

    @property
    def coincidences(self) -> int:
        return self.c13 + self.c14 + self.c23 + self.c24

    def scaled(self, k: int) -> "CoincidenceCounts":
        """Counts with every entry multiplied by a positive integer factor."""
        if k <= 0:
            raise ValueError("scale factor must be positive")
        return CoincidenceCounts(self.c13 * k, self.c14 * k, self.c23 * k,
                                 self.c24 * k, self.s1 * k, self.s2 * k,
                                 self.n_trials * k)


@dataclass(frozen=True)
class CavityParams:
    """Ring-cavity geometry; the stated length is the full round trip."""

    length: float

    def __post_init__(self) -> None:
        if not (self.length > 0.0):
            raise ValueError(f"cavity length must be positive, got {self.length!r}")


def decay_law(t, amplitude, tau_gauss, tau_exp):
    """The decay family of both the retrieval efficiency and the
    visibility, ``amplitude * (exp(-(t/tau_gauss)^2) + exp(-t/tau_exp)) / 2``,
    with numpy's exp. ``t`` broadcasts against the other three. A ratio or
    a square past the largest float is inf, whose exp(-inf) is 0.
    """
    with np.errstate(over="ignore"):
        xg = t / tau_gauss
        xg2 = xg * xg
        xe = t / tau_exp
    return amplitude * (np.exp(-xg2) + np.exp(-xe)) / 2.0


def _decay_at(t, amplitude, tau_gauss, tau_exp):
    """``decay_law`` at a storage time ``t`` (seconds), a scalar, which
    gives a float, or an array; every time must be finite and >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("storage time must be finite and >= 0")
    out = decay_law(t_arr, amplitude, tau_gauss, tau_exp)
    return float(out) if out.ndim == 0 else out


def retrieval_efficiency(t, model: DecayModel):
    """Intrinsic retrieval efficiency after a storage time ``t`` (seconds).

    ``decay_law(t, r0, tau0, tau0)`` at a scalar or an array of finite
    times >= 0. Monotone non-increasing, bounded by ``[0, r0]``.
    """
    return _decay_at(t, model.r0, model.tau0, model.tau0)


def escape_efficiency(chain: DetectionChain) -> float:
    """Probability that an intracavity photon leaves through the output coupler."""
    return chain.t_ocm / (chain.t_ocm + chain.cavity_loss)


def total_detection_efficiency(chain: DetectionChain) -> float:
    """End-to-end detection efficiency of one channel.

    Product of the cavity escape factor, fiber couplings, spectral filter,
    detector quantum efficiency, and (when modeling a telecom node) the
    frequency-conversion efficiency.
    """
    return (escape_efficiency(chain) * chain.eta_smf * chain.eta_filter
            * chain.eta_mmf * chain.eta_det * chain.eta_fc)


def visibility(sp: SourceParams, t):
    """Werner mixing parameter of the pair state after a storage time ``t``.

    ``decay_law(t, werner_p0, vis_tau_gauss, vis_tau_exp)`` at a scalar or
    an array of finite times >= 0.
    """
    return _decay_at(t, sp.werner_p0, sp.vis_tau_gauss, sp.vis_tau_exp)


def _correlation_kernel(settings: MeasurementSettings, phase: float) -> float:
    # <A(theta_s) B(theta_as)> for the pure pair state with relative phase.
    ts = math.radians(settings.theta_s)
    tas = math.radians(settings.theta_as)
    return (math.cos(2 * ts) * math.cos(2 * tas)
            + math.cos(phase) * math.sin(2 * ts) * math.sin(2 * tas))


class JointProbabilities(NamedTuple):
    """Per-herald probabilities of the four detector-pair coincidences."""

    p13: float
    p14: float
    p23: float
    p24: float

    @property
    def total(self) -> float:
        return self.p13 + self.p14 + self.p23 + self.p24


def werner_joint_projections(p, settings: MeasurementSettings,
                             phase: float = 0.0) -> JointProbabilities:
    """Joint projection probabilities of a Werner pair onto the four outcomes.

    ``p`` is the mixing parameter, a number or an array; the four entries
    sum to 1. Computed in closed form; the brute-force density-matrix route
    lives in the tests.
    """
    _check_unit_interval("werner mixing parameter", p)
    c = _correlation_kernel(settings, phase)
    same = (1.0 + p * c) / 4.0
    cross = (1.0 - p * c) / 4.0
    return JointProbabilities(same, cross, cross, same)


class ReadoutLaw(NamedTuple):
    """A herald's conditional readout law: ``q``, the probability that the
    stored excitation is retrieved and detected, and ``w``, the Werner
    projections of the pair (each herald detector has marginal 1/2)."""

    q: float
    w: JointProbabilities

    @property
    def a(self) -> tuple:
        """``(a13, a14, a23, a24)``, ``a_ij = 2 q w_ij = P(correlated
        readout Dj | herald Di)``: the sampler's readout probabilities."""
        return tuple(2.0 * self.q * wij for wij in self.w)


def readout_law(sp: SourceParams, dm: DecayModel, t, readout_eta: float,
                settings: MeasurementSettings) -> ReadoutLaw:
    """The ``ReadoutLaw`` after a storage time ``t`` (seconds), a scalar,
    which gives floats, or an array."""
    _check_unit_interval("readout_eta", readout_eta)
    q = retrieval_efficiency(t, dm) * readout_eta
    w = werner_joint_projections(visibility(sp, t), settings, sp.phase_total)
    return ReadoutLaw(q, w)


def coincidence_probabilities(sp: SourceParams, dm: DecayModel, t,
                              readout_eta: float,
                              settings: MeasurementSettings) -> JointProbabilities:
    """Per-herald coincidence probabilities, ``a_ij / 2 + p_noise / 4``.

    Halves the ``readout_law`` (each herald detector has marginal 1/2),
    written ``q * w_ij`` so that no entry below ``2**-1022`` is rounded
    twice, and adds a flat background that fires within the read gate,
    ``p_noise / 2`` per readout detector. Every entry is at most
    ``1/2 + 1/4``, and the four sum to ``q + p_noise``. ``t`` is a
    scalar or an array, as in ``readout_law``.
    """
    law = readout_law(sp, dm, t, readout_eta, settings)
    bg = sp.p_noise / 4.0
    return JointProbabilities(*(law.q * wij + bg for wij in law.w))


def expected_correlation(sp: SourceParams, dm: DecayModel, t,
                         readout_eta: float, settings: MeasurementSettings):
    """Correlation function implied by the model, from the
    ``coincidence_probabilities`` of the same arguments.

    Raises ``InsufficientStatisticsError`` naming the first storage time
    at which the model gives every coincidence outcome zero probability.
    """
    p = coincidence_probabilities(sp, dm, t, readout_eta, settings)
    denom = p.total
    zero = denom <= 0.0
    if np.any(zero):
        t0 = np.broadcast_to(t, np.shape(denom))[zero].flat[0]
        raise InsufficientStatisticsError(
            f"storage time {t0:.6g} s: model assigns zero probability to "
            f"every coincidence outcome")
    return (p.p13 + p.p24 - p.p14 - p.p23) / denom


def expected_bell(sp: SourceParams, dm: DecayModel, t, readout_eta: float,
                  settings=CANONICAL_SETTINGS):
    """CHSH parameter implied by the model at the four given settings.

    ``t`` is a scalar, which gives a float, or an array of storage times
    (seconds), which gives an array of the same shape.
    """
    s = bell_parameter(*(expected_correlation(sp, dm, t, readout_eta, x)
                         for x in settings))
    return s if np.ndim(s) else float(s)


def correlation_E(counts: CoincidenceCounts) -> float:
    """Polarization correlation function from measured coincidences.

    ``(c13 + c24 - c14 - c23) / (c13 + c24 + c14 + c23)``; raises
    InsufficientStatisticsError when every coincidence count is zero rather
    than silently returning 0.
    """
    total = counts.coincidences
    if total <= 0:
        raise InsufficientStatisticsError(
            "all four coincidence counts are zero; E is undefined")
    return (counts.c13 + counts.c24 - counts.c14 - counts.c23) / total


def bell_parameter(e1, e2, e3, e4):
    """CHSH combination ``|e1 - e2 + e3 + e4|`` of four correlation values,
    numbers or arrays of one shape."""
    for e in (e1, e2, e3, e4):
        if np.any(np.abs(e) > 1.0 + 1e-12):
            raise ValueError(f"correlation value {e!r} lies outside [-1, 1]")
    return abs(e1 - e2 + e3 + e4)


def fidelity_from_bell(s: float) -> float:
    """Entanglement fidelity of a Werner pair inferred from its CHSH value.

    Inverts the one-parameter family linking the mixing parameter to both
    quantities: S = 2*sqrt(2)*p and F = (3p + 1)/4, hence
    F = (3*S/(2*sqrt(2)) + 1)/4. Values above the Tsirelson bound are
    rejected.
    """
    if s < 0.0:
        raise ValueError("Bell parameter must be >= 0")
    if s > TSIRELSON_BOUND + 1e-12:
        raise ValueError(f"Bell parameter {s!r} exceeds the Tsirelson bound")
    return (3.0 * s / TSIRELSON_BOUND + 1.0) / 4.0


class Estimate(NamedTuple):
    """Point estimate with a 1-sigma standard error."""

    value: float
    error: float


@dataclass(frozen=True)
class RetrievalEstimates:
    """Intrinsic retrieval efficiencies for the qubit and each memory mode."""

    qubit: Estimate
    left: Estimate
    right: Estimate


def _check_eta_td(eta_td: float) -> None:
    """Refuse a detection efficiency outside (0, 1], NaN included."""
    if not 0.0 < eta_td <= 1.0:
        raise ValueError(f"eta_td must lie in (0, 1], got {eta_td!r}")


def _ratio_estimate(x: int, singles: int, eta_td: float) -> Estimate:
    # Poisson propagation; a zero numerator gets unit absolute uncertainty
    # so degenerate datasets still report a finite error bar.
    value = x / (eta_td * singles)
    sx = math.sqrt(x) if x > 0 else 1.0
    var = sx * sx + (x / singles) ** 2 * singles
    return Estimate(value, math.sqrt(var) / (eta_td * singles))


def estimate_intrinsic_retrieval(counts: CoincidenceCounts,
                                 eta_td: float) -> RetrievalEstimates:
    """Intrinsic retrieval efficiencies with detection losses divided out.

    Expects counts taken with both analysis angles at 0 degrees. The qubit
    estimate pools both polarization-matched coincidence channels; the
    per-mode estimates use one channel each. Errors are Poissonian.
    """
    _check_eta_td(eta_td)
    if counts.s1 <= 0 or counts.s2 <= 0:
        raise InsufficientStatisticsError(
            "herald singles are zero; retrieval efficiency is undefined")
    return RetrievalEstimates(
        qubit=_ratio_estimate(counts.c13 + counts.c24, counts.s1 + counts.s2, eta_td),
        left=_ratio_estimate(counts.c13, counts.s1, eta_td),
        right=_ratio_estimate(counts.c24, counts.s2, eta_td),
    )


def cavity_fsr(cav: CavityParams) -> float:
    """Free spectral range (Hz) of the ring cavity: c over the round trip."""
    return SPEED_OF_LIGHT_VACUUM / cav.length
