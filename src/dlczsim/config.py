"""Strict section-structured run configuration for the command line.

INI-style files parsed with configparser. ``KEYS`` names every section and
key once, with the field it sets, the converter of its text to SI (each key
carries its unit in its name) and its default. Values resolve in layers:
the defaults, the packaged calibration, the file that ``calibration_json``
names, the file's keys, then the seed override. Unknown sections or keys
are fatal, so a figure-reproduction recipe can't silently drift. All
values are validated through the domain types before any command runs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .calibration import default_calibration_fields, load_calibration_json
from .model import DecayModel, DetectionChain, SourceParams, total_detection_efficiency
from .montecarlo import SeedSpec, SequenceConfig
from .repeater import RepeaterParams


def _si(scale: float):
    """Converter of a key's text in a unit worth ``scale`` in SI."""
    return lambda text: float(text) * scale


_DETECTION = {
    "t_ocm": ("t_ocm", float, "0.20"),
    "cavity_loss": ("cavity_loss", float, "0.13"),
    "eta_smf": ("eta_smf", float, "0.71"),
    "eta_filter": ("eta_filter", float, "0.56"),
    "eta_mmf": ("eta_mmf", float, "0.92"),
    "eta_det": ("eta_det", float, "0.68"),
    "eta_fc": ("eta_fc", float, "1.0"),
}

# section -> INI key -> (the field it sets, the converter of its text to SI,
# its default as INI text: None where the packaged calibration sets it)
KEYS = {
    "source": {
        "chi": ("chi", float, "0.02"),
        "p_noise": ("p_noise", float, "1e-4"),
        "werner_p0": ("werner_p0", float, None),
        "vis_tau_gauss_ms": ("vis_tau_gauss", _si(1e-3), None),
        "vis_tau_exp_ms": ("vis_tau_exp", _si(1e-3), None),
        "phase_write_rad": ("phase_write", float, "0.0"),
        "phase_read_rad": ("phase_read", float, "0.0"),
        "calibration_json": (None, str, None),  # the file to read, no field
    },
    "decay": {"r0": ("r0", float, None),
              "tau0_ms": ("tau0", _si(1e-3), None)},
    "detection.write": _DETECTION,
    "detection.read": _DETECTION,
    "sequence": {
        "prep_ms": ("prep_duration", _si(1e-3), "42"),
        "run_ms": ("run_duration", _si(1e-3), "8"),
        "write_ns": ("write_pulse", _si(1e-9), "300"),
        "trial_period_ns": ("trial_period", _si(1e-9), "2000"),
        "storage_us": ("storage_time", _si(1e-6), "1"),
    },
    "repeater": {
        "nest_level": ("nest_level", int, "4"),
        "mode_count": ("mode_count", int, "1000"),
        "memory_lifetime_s": ("memory_lifetime", float, "16.0"),
        "eta_td": ("eta_td", float, "0.90"),
        "eta_fc": ("eta_fc", float, "0.33"),
        "chi": ("chi", float, "0.02"),
        "l_att_km": ("attenuation_length", float, "22.0"),
        "r0": ("r0", float, "0.77"),
        "fiber_speed_m_per_s": ("fiber_speed", float, "2.0e8"),
        "link_convention": ("link_convention", str, "L_over_n"),
        "pr_exponent": ("pr_exponent", str, "total_elapsed_time"),
    },
    "output": {"seed": ("master_seed", int, "20260808")},
}

# section -> the RunConfig field it builds and the type it builds it with
_BUILDS = {"source": ("source", SourceParams), "decay": ("decay", DecayModel),
           "detection.write": ("detection_write", DetectionChain),
           "detection.read": ("detection_read", DetectionChain),
           "sequence": ("sequence", SequenceConfig),
           "repeater": ("repeater", RepeaterParams),
           "output": ("seed", SeedSpec)}

# calibration-file section -> the section whose fields it sets
_CALIBRATES = {"bell": "source", "decay": "decay"}


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
    """section -> field -> SI value; calibration_json keeps its own name."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path, encoding="utf-8"):
        raise ValueError(f"config file {path!r} not found or unreadable")
    raw: dict = {}
    for section in parser.sections():
        if section not in KEYS:
            raise ValueError(f"unknown config section [{section}]")
        raw[section] = {}
        for key, text in parser[section].items():
            if key not in KEYS[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            field, conv, _ = KEYS[section][key]
            try:
                raw[section][field or key] = conv(text)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for [{section}] {key}: {text!r}") from exc
    return raw


def load_config(path=None, seed_override=None) -> RunConfig:
    """Build a validated RunConfig from the layers of the module docstring:
    keys in the file win over the calibration file they name."""
    fields = {section: {field: conv(default) for field, conv, default
                        in keys.values() if default is not None}
              for section, keys in KEYS.items()}
    calibrations = [default_calibration_fields()]
    given = _parse_file(path) if path is not None else {}
    cal_path = given.get("source", {}).pop("calibration_json", "")
    if cal_path:
        calibrations.append(load_calibration_json(cal_path))
    for calibrated in calibrations:
        for cal_section, values in calibrated.items():
            fields[_CALIBRATES[cal_section]].update(values)
    for section, values in given.items():
        fields[section].update(values)
    if seed_override is not None:
        fields["output"]["master_seed"] = seed_override
    return RunConfig(**{name: build(**fields[section])
                        for section, (name, build) in _BUILDS.items()})
