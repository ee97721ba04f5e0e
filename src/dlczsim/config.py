"""Strict section-structured run configuration for the command line.

INI-style files parsed with configparser. ``KEYS`` names every section and
key once, with the field it sets, the converter of its text to SI (each key
carries its unit in its name) and its default, the only one in the package.
Values resolve in layers: the defaults, the packaged calibration, the file
that ``calibration_json`` names, the file's keys, then the seed override.
Unknown sections or keys are fatal, so a figure-reproduction recipe can't
silently drift. All values are validated before any command runs.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

from ._keys import KEYS, defaults
from .calibration import default_calibration_fields, load_calibration_json
from .model import DecayModel, DetectionChain, SourceParams, total_detection_efficiency
from .montecarlo import SeedSpec, SequenceConfig
from .repeater import RepeaterParams

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


def _syntax_error(path, exc: configparser.Error) -> ValueError:
    """An INI syntax error as a ValueError that names the file and line: a
    ParsingError lists the lines it failed on, the other errors carry one."""
    if isinstance(exc, configparser.DuplicateOptionError):
        what = f"[{exc.section}] {exc.option} given twice"
    elif isinstance(exc, configparser.DuplicateSectionError):
        what = f"section [{exc.section}] given twice"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        what = "a key before any [section] header"
    else:
        what = "not a [section] or a key = value"
    line = getattr(exc, "lineno", None) or exc.errors[0][0]
    return ValueError(f"config file {path}, line {line}: {what}")


def _parse_file(path) -> dict:
    """section -> field -> SI value; calibration_json keeps its own name."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.ParsingError, configparser.DuplicateSectionError,
            configparser.DuplicateOptionError) as exc:
        raise _syntax_error(path, exc) from None
    if not found:
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
    fields = {section: defaults(section) for section in KEYS}
    calibrations = [default_calibration_fields()]
    given = _parse_file(path) if path is not None else {}
    cal_path = given.get("source", {}).pop("calibration_json", "")
    if cal_path:
        try:
            calibrations.append(load_calibration_json(cal_path))
        except OSError as exc:
            raise ValueError(
                f"config [source] calibration_json: {exc}") from None
    for calibrated in calibrations:
        for cal_section, values in calibrated.items():
            fields[_CALIBRATES[cal_section]].update(values)
    for section, values in given.items():
        fields[section].update(values)
    if seed_override is not None:
        fields["output"]["master_seed"] = seed_override
    return RunConfig(**{name: _build(section, fields[section])
                        for section, (name, _) in _BUILDS.items()})


def _build(section, fields):
    """The object that ``section``'s fields build. Its validation names
    fields, so a ValueError is raised again naming the section and the INI
    keys of the fields its message names (``trial_periods`` names
    ``trial_period``), whichever layer set them."""
    try:
        return _BUILDS[section][1](**fields)
    except ValueError as exc:
        keys = [key for key, (field, _, _) in KEYS[section].items()
                if field and re.search(rf"\b{field}s?\b", str(exc))]
        where = " ".join([f"[{section}]", *keys])
        raise ValueError(f"config {where}: {exc}") from None
