"""Strict section-structured run configuration for the command line.

INI-style files parsed with configparser. Every key carries its unit in the
name; values are converted to SI on load. Unknown sections or keys are
fatal, so a figure-reproduction recipe can't silently drift. All values are
validated through the domain types before any command runs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .calibration import default_calibration, load_calibration_json
from .model import DecayModel, DetectionChain, SourceParams, total_detection_efficiency
from .montecarlo import SeedSpec, SequenceConfig
from .repeater import RepeaterParams

_DETECTION_KEYS = ("t_ocm", "cavity_loss", "eta_smf", "eta_filter",
                   "eta_mmf", "eta_det", "eta_fc")


def _ms_to_s(text: str) -> float:
    return float(text) * 1e-3


# The calibrated decay times: INI keys in ms, read into the keys in s that
# a calibration JSON file and the model use, so a calibrated value reaches
# the model unscaled.
_SI_NAMES = {"vis_tau_gauss_ms": "vis_tau_gauss_s",
             "vis_tau_exp_ms": "vis_tau_exp_s",
             "tau0_ms": "tau0_s"}

# schema: section -> key -> converter of its text
_SCHEMA = {
    "source": {
        "chi": float,
        "p_noise": float,
        "werner_p0": float,
        "vis_tau_gauss_ms": _ms_to_s,
        "vis_tau_exp_ms": _ms_to_s,
        "phase_write_rad": float,
        "phase_read_rad": float,
        "calibration_json": str,
    },
    "decay": {"r0": float, "tau0_ms": _ms_to_s},
    "detection.write": {k: float for k in _DETECTION_KEYS},
    "detection.read": {k: float for k in _DETECTION_KEYS},
    "sequence": {
        "prep_ms": float,
        "run_ms": float,
        "write_ns": float,
        "trial_period_ns": float,
        "storage_us": float,
    },
    "repeater": {
        "nest_level": int,
        "mode_count": int,
        "memory_lifetime_s": float,
        "eta_td": float,
        "eta_fc": float,
        "chi": float,
        "l_att_km": float,
        "r0": float,
        "fiber_speed_m_per_s": float,
        "link_convention": str,
        "pr_exponent": str,
    },
    "output": {"seed": int},
}


# calibration JSON section -> (config section, keys), in the file's SI units
_CALIBRATION_KEYS = {
    "bell": ("source", ("werner_p0", "vis_tau_gauss_s", "vis_tau_exp_s")),
    "decay": ("decay", ("r0", "tau0_s")),
}


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _apply_calibration(cfg: dict, cal, origin: str) -> None:
    """Set the config keys that a calibration JSON object carries, unscaled.

    The ``bell`` and ``decay`` sections are each optional, but a section
    that is present must hold every one of its keys as a finite number.
    """
    if not isinstance(cal, dict):
        raise ValueError(f"calibration {origin}: not a JSON object")
    for section, (cfg_section, keys) in _CALIBRATION_KEYS.items():
        if section not in cal:
            continue
        if not isinstance(cal[section], dict):
            raise ValueError(
                f"calibration {origin}: {section!r} is not a JSON object")
        for key in keys:
            if key not in cal[section]:
                raise ValueError(
                    f"calibration {origin}: {section}.{key} is missing")
            value = cal[section][key]
            if not _finite_number(value):
                raise ValueError(f"calibration {origin}: {section}.{key} "
                                 f"must be a finite number, got {value!r}")
            cfg[cfg_section][key] = value


def _defaults() -> dict:
    det = dict(t_ocm=0.20, cavity_loss=0.13, eta_smf=0.71, eta_filter=0.56,
               eta_mmf=0.92, eta_det=0.68, eta_fc=1.0)
    cfg = {
        "source": {
            "chi": 0.02,
            "p_noise": 1e-4,
            "phase_write_rad": 0.0,
            "phase_read_rad": 0.0,
            "calibration_json": "",
        },
        "decay": {},
        "detection.write": dict(det),
        "detection.read": dict(det),
        "sequence": {
            "prep_ms": 42.0, "run_ms": 8.0, "write_ns": 300.0,
            "trial_period_ns": 2000.0, "storage_us": 1.0,
        },
        "repeater": {
            "nest_level": 4, "mode_count": 1000, "memory_lifetime_s": 16.0,
            "eta_td": 0.90, "eta_fc": 0.33, "chi": 0.02, "l_att_km": 22.0,
            "r0": 0.77, "fiber_speed_m_per_s": 2.0e8,
            "link_convention": "L_over_n",
            "pr_exponent": "total_elapsed_time",
        },
        "output": {"seed": 20260808},
    }
    # werner_p0, the visibility decay times and [decay] come from here
    _apply_calibration(cfg, default_calibration(), "packaged default")
    return cfg


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration consumed by the CLI commands."""

    source: SourceParams
    decay: DecayModel
    detection_write: DetectionChain
    detection_read: DetectionChain
    sequence: SequenceConfig
    repeater: RepeaterParams
    seed: SeedSpec

    @property
    def write_eta(self) -> float:
        return total_detection_efficiency(self.detection_write)

    @property
    def read_eta(self) -> float:
        return total_detection_efficiency(self.detection_read)


def _parse_file(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        raw[section] = {}
        for key, text in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            conv = _SCHEMA[section][key]
            try:
                raw[section][_SI_NAMES.get(key, key)] = conv(text)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for [{section}] {key}: {text!r}") from exc
    return raw


def load_config(path=None, seed_override=None) -> RunConfig:
    """Build a validated RunConfig from defaults plus an optional file.

    ``calibration_json`` in [source], when set, loads fitted source and
    decay parameters from a calibration file; explicit keys in the config
    file still win over it.
    """
    cfg = _defaults()
    overrides: dict = {}
    if path is not None:
        overrides = _parse_file(path)

    cal_path = overrides.get("source", {}).get("calibration_json", "")
    if cal_path:
        _apply_calibration(cfg, load_calibration_json(cal_path), cal_path)

    for section, kv in overrides.items():
        for key, value in kv.items():
            if key != "calibration_json":
                cfg[section][key] = value

    if seed_override is not None:
        cfg["output"]["seed"] = seed_override

    src = cfg["source"]
    seq = cfg["sequence"]
    rep = cfg["repeater"]
    return RunConfig(
        source=SourceParams(
            chi=src["chi"], p_noise=src["p_noise"],
            werner_p0=src["werner_p0"],
            vis_tau_gauss=src["vis_tau_gauss_s"],
            vis_tau_exp=src["vis_tau_exp_s"],
            phase_write=src["phase_write_rad"],
            phase_read=src["phase_read_rad"]),
        decay=DecayModel(r0=cfg["decay"]["r0"], tau0=cfg["decay"]["tau0_s"]),
        detection_write=DetectionChain(**cfg["detection.write"]),
        detection_read=DetectionChain(**cfg["detection.read"]),
        sequence=SequenceConfig(
            prep_duration=seq["prep_ms"] * 1e-3,
            run_duration=seq["run_ms"] * 1e-3,
            write_pulse=seq["write_ns"] * 1e-9,
            trial_period=seq["trial_period_ns"] * 1e-9,
            storage_time=seq["storage_us"] * 1e-6),
        repeater=RepeaterParams(
            nest_level=rep["nest_level"], mode_count=rep["mode_count"],
            memory_lifetime=rep["memory_lifetime_s"], eta_td=rep["eta_td"],
            eta_fc=rep["eta_fc"], chi=rep["chi"],
            attenuation_length=rep["l_att_km"], r0=rep["r0"],
            fiber_speed=rep["fiber_speed_m_per_s"],
            link_convention=rep["link_convention"],
            pr_exponent=rep["pr_exponent"]),
        seed=SeedSpec(cfg["output"]["seed"]),
    )
