"""The shipped feeder cases, loaded from ``configs/`` as `obro bess` loads
them."""

from dataclasses import replace
from pathlib import Path

from obro.configio import bess_case_from_config, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def feeder_case(name, scheme="benchmark"):
    """(feeder, inputs) of ``configs/<name>.json``; ``scheme`` is one of the
    config's scheme names, or a step or piece list as `make_partition`
    takes it."""
    feeder, inputs, schemes, _ = bess_case_from_config(load_config(CONFIGS / f"{name}.json"))
    return feeder, replace(inputs, scheme=schemes[scheme] if isinstance(scheme, str) else scheme)
