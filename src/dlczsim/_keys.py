"""The INI key table, the only place a default setting is written: the
configuration and the domain types' defaults are read from it, so it
imports nothing from ``dlczsim``."""


def _si(scale: float):
    """Converter of a key's text in a unit worth ``scale`` in SI."""
    return lambda text: float(text) * scale


_DETECTION = {key: (key, float, text) for key, text in (
    ("t_ocm", "0.20"), ("cavity_loss", "0.13"), ("eta_smf", "0.71"),
    ("eta_filter", "0.56"), ("eta_mmf", "0.92"), ("eta_det", "0.68"),
    ("eta_fc", "1.0"))}

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


def defaults(section: str) -> dict:
    """field -> SI default of every key of ``section`` that has one."""
    return {field: conv(text) for field, conv, text in KEYS[section].values()
            if text is not None}
