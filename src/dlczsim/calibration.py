"""Deterministic fits tying the model's free parameters to measured points.

Two fitters: the retrieval-efficiency decay (amplitude and lifetime) and
the CHSH-decay model (zero-delay mixing parameter plus the two visibility
decay constants). Both are one fit of the model's ``decay_law``, a fixed
starting grid followed by bounded least-squares refinement, so repeated
runs give identical parameters; the resulting calibration is stored as
JSON and shipped as a package fixture.
Both curves are the model's: the decay fit's is ``retrieval_efficiency``,
the Bell fit's is ``expected_bell``, which is linear in the visibility.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from ._keys import defaults
from .errors import FitConvergenceError
from .model import DecayModel, SourceParams, decay_law, expected_bell


@dataclass(frozen=True)
class DataPoint:
    """One calibration sample: time (s), measured value, standard error."""

    t: float
    value: float
    sigma: float

    def __post_init__(self) -> None:
        for name, v in (("time", self.t), ("value", self.value),
                        ("sigma", self.sigma)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.t < 0.0:
            raise ValueError("time must be >= 0")
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be positive")


def _best_amplitude(shape: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares amplitude of ``shape`` against ``y`` along the
    last axis, clipped to ``[0, 1]``; 0 where the shape vanishes."""
    denom = np.sum(w * shape * shape, axis=-1)
    num = np.sum(w * shape * y, axis=-1)
    amp = np.divide(num, denom, out=np.zeros_like(denom), where=denom > 0.0)
    return np.clip(amp, 0.0, 1.0)


def _fit_decay_law(ts, ys, ws, scale, reach: float, n: int, tied: bool):
    """Least-squares fit of ``scale * decay_law(ts, a, tau_g, tau_e)`` to
    ``ys`` with weights ``ws``: ``(a, tau_g, tau_e, residuals, converged)``.

    The decay times start from a fixed grid of ``n`` log-spaced values
    within ``reach`` times the time span on either side, or of all ``n``
    x ``n`` pairs of them unless ``tied`` (then ``tau_g = tau_e``), every
    start evaluated in one pass. The amplitude enters linearly and gets
    its closed-form value per start; the best start is refined in log
    time, with a budget of 200 evaluations per parameter.
    """
    from scipy.optimize import least_squares  # 0.5 s to import: only fits pay

    span = max(ts.max(), 1e-9)
    taus = np.geomspace(span / reach, span * reach, n)
    tg, te = (taus, taus) if tied else (np.repeat(taus, n), np.tile(taus, n))
    shape = scale * decay_law(ts, 1.0, tg[:, None], te[:, None])
    amp = _best_amplitude(shape, ys, ws)
    k = np.argmin(np.sum(ws * (shape * amp[:, None] - ys) ** 2, axis=-1))
    start = [amp[k], math.log(tg[k])] + ([] if tied else [math.log(te[k])])

    def resid(x):
        return np.sqrt(ws) * (scale * decay_law(ts, x[0], math.exp(x[1]),
                                                math.exp(x[-1])) - ys)

    lo = math.log(span / 1e3)
    hi = math.log(span * 1e3)
    sol = least_squares(resid, start,
                        bounds=([0.0] + [lo] * (len(start) - 1),
                                [1.0] + [hi] * (len(start) - 1)),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=200 * len(start))
    a, tau_g, tau_e = float(sol.x[0]), math.exp(sol.x[1]), math.exp(sol.x[-1])
    res = tuple(float(v) for v in scale * decay_law(ts, a, tau_g, tau_e) - ys)
    return a, tau_g, tau_e, res, bool(sol.success)


@dataclass(frozen=True)
class DecayFit:
    model: DecayModel
    residuals: tuple
    converged: bool


def fit_decay(points: Sequence[DataPoint]) -> DecayFit:
    """Least-squares fit of the retrieval-efficiency decay law.

    Needs at least three points at distinct times. The fit is
    ``_fit_decay_law`` with one lifetime, started from a fixed grid of 40,
    so it is deterministic and start-point independent.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least three calibration points")
    ts = np.array([p.t for p in points])
    if np.unique(ts).size < 3:
        raise ValueError("calibration points must cover three distinct times")
    ys = np.array([p.value for p in points])
    ws = np.array([1.0 / p.sigma ** 2 for p in points])

    r0, tau0, _, res, converged = _fit_decay_law(
        ts, ys, ws, 1.0, reach=30.0, n=40, tied=True)
    fit = DecayFit(DecayModel(r0=r0, tau0=tau0), res, converged)
    if not converged:
        raise FitConvergenceError("decay fit did not converge", best=fit)
    return fit


@dataclass(frozen=True)
class BellFit:
    """Calibrated CHSH-decay parameters with per-point residuals."""

    werner_p0: float
    vis_tau_gauss: float
    vis_tau_exp: float
    residuals: tuple
    converged: bool
    decay_constrained: bool = True


# decay times so long that the visibility's decay shape rounds to 1 at any
# storage time below 1e292 s
_NO_DECAY_S = float(np.finfo(float).max)


def fit_bell_model(points: Sequence[DataPoint], dm: DecayModel,
                   readout_eta: float, p_noise: float) -> BellFit:
    """Fit the mixing parameter and its two decay constants to CHSH data.

    With points at several distinct times the three parameters are fitted
    jointly by ``_fit_decay_law``, started from a fixed 14 x 14 grid of
    decay-constant pairs. When every point sits at zero delay only the
    mixing parameter is identifiable; the decay constants are then
    reported unconstrained at their defaults. Raises
    ``InsufficientStatisticsError`` naming the first point time at which
    the model gives every coincidence outcome zero probability.
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one calibration point")
    ts = np.array([p.t for p in points])
    ys = np.array([p.value for p in points])
    ws = np.array([1.0 / p.sigma ** 2 for p in points])
    # The model's S is linear in the visibility V(t) = p0 * h(t), because
    # the background cancels in the numerator of each E: the curve is the
    # model's S at unit visibility times V(t). The model names the first
    # time at which no coincidence outcome has any probability.
    unit = SourceParams(chi=0.0, vis_tau_gauss=_NO_DECAY_S,
                        vis_tau_exp=_NO_DECAY_S, p_noise=p_noise)
    scale = expected_bell(unit, dm, ts, readout_eta)

    if np.all(ts == 0.0):
        # only the zero-delay mixing parameter is identifiable
        p0 = float(_best_amplitude(scale, ys, ws))
        res = tuple(float(v) for v in scale * p0 - ys)
        return BellFit(werner_p0=p0, vis_tau_gauss=1.0, vis_tau_exp=1.0,
                       residuals=res, converged=True, decay_constrained=False)

    fit = BellFit(*_fit_decay_law(ts, ys, ws, scale, reach=20.0, n=14,
                                  tied=False))
    if not fit.converged:
        raise FitConvergenceError("Bell-model fit did not converge", best=fit)
    return fit


# -- calibration files ------------------------------------------------------

def read_datapoints_csv(path) -> list:
    """Read calibration points from a ``t_s,value,sigma`` CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["t_s", "value", "sigma"]
        if reader.fieldnames != expected:
            raise ValueError(f"expected CSV header {','.join(expected)!r}, "
                             f"got {reader.fieldnames!r}")
        points = []
        for row in reader:
            fields = [row[k] for k in expected]
            try:
                if None in fields or None in row:
                    raise ValueError(f"expected {len(expected)} fields")
                points.append(DataPoint(*map(float, fields)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"{exc}") from None
        return points


# The calibration file's format: JSON section -> JSON key -> the field it
# sets, of SourceParams (and BellFit) for "bell" and of DecayModel for
# "decay". Every value is in SI units.
FILE_FORMAT = {
    "bell": {"werner_p0": "werner_p0", "vis_tau_gauss_s": "vis_tau_gauss",
             "vis_tau_exp_s": "vis_tau_exp"},
    "decay": {"r0": "r0", "tau0_s": "tau0"},
}


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def calibration_fields(cal, origin: str) -> dict:
    """The fields a calibration JSON object sets: section -> field -> value.

    The ``bell`` and ``decay`` sections are each optional, but a section
    that is present must hold every one of its keys as a finite number.
    """
    if not isinstance(cal, dict):
        raise ValueError(f"calibration {origin}: not a JSON object")
    fields: dict = {}
    for section, keys in FILE_FORMAT.items():
        if section not in cal:
            continue
        if not isinstance(cal[section], dict):
            raise ValueError(
                f"calibration {origin}: {section!r} is not a JSON object")
        fields[section] = {}
        for key, field in keys.items():
            if key not in cal[section]:
                raise ValueError(
                    f"calibration {origin}: {section}.{key} is missing")
            value = cal[section][key]
            if not _finite_number(value):
                raise ValueError(f"calibration {origin}: {section}.{key} "
                                 f"must be a finite number, got {value!r}")
            fields[section][field] = value
    return fields


def _to_file(section: str, params) -> dict:
    return {key: getattr(params, field)
            for key, field in FILE_FORMAT[section].items()}


def calibration_to_dict(decay: Optional[DecayFit] = None,
                        bell: Optional[BellFit] = None) -> dict:
    out: dict = {}
    if decay is not None:
        out["decay"] = dict(_to_file("decay", decay.model),
                            residuals=list(decay.residuals))
    if bell is not None:
        out["bell"] = dict(_to_file("bell", bell),
                           residuals=list(bell.residuals),
                           decay_constrained=bell.decay_constrained)
    return out


def load_calibration_json(path) -> dict:
    """``calibration_fields`` of the calibration file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            cal = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"calibration {path}: {exc}") from None
    return calibration_fields(cal, path)


def default_calibration() -> dict:
    """Packaged calibration fixture (decay and Bell parameters)."""
    payload = resources.files("dlczsim").joinpath(
        "data/calibration_default.json").read_text(encoding="utf-8")
    return json.loads(payload)


def default_calibration_fields() -> dict:
    """``calibration_fields`` of the packaged calibration fixture."""
    return calibration_fields(default_calibration(), "packaged default")


def default_decay_model() -> DecayModel:
    return DecayModel(**default_calibration_fields()["decay"])


def default_source_params(**fields) -> SourceParams:
    """The configuration's default source, with ``fields`` set over it."""
    return SourceParams(**{**defaults("source"),
                           **default_calibration_fields()["bell"], **fields})
