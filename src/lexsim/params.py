"""Model parameters and the key=value parameter file format.

All connection weights, rest levels, thresholds and the cycle limit live in
one flat ``Parameters`` record so that a complete configuration can be
written as a plain text file, one ``NAME = VALUE`` per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import IO

from .errors import ConfigError


@dataclass(frozen=True)
class Parameters:
    # activation range and decay
    MIN_ACT: float = -0.2
    MAX_ACT: float = 1.0
    DECAY_RATE: float = 0.07

    # resting levels
    MIN_REST: float = -0.2
    MAX_REST: float = 0.0
    # normalisation constant for frequency-derived rest levels; None means
    # "use the maximum observed in the loaded lexicon", a number switches to
    # the fixed-constant compatibility mode.
    MAX_OPB: float | None = None
    I_rest: float = 1.0
    S_rest: float = -0.2
    L_rest: float = -0.2

    # input-to-orthography weighting
    IO_multiplier: float = 0.2

    # excitatory connection weights (alpha), one per direction
    OP_alpha: float = 0.03
    OS_alpha: float = 0.03
    PO_alpha: float = 0.03
    PS_alpha: float = 0.3
    SO_alpha: float = 0.03
    SP_alpha: float = 0.3
    LO_alpha: float = 0.0
    LP_alpha: float = 0.0
    OL_alpha: float = 0.0
    PL_alpha: float = 0.0

    # inhibitory pool weights (gamma), all <= 0
    OO_gamma: float = -0.001
    PP_gamma: float = -0.001
    SS_gamma: float = -0.5
    LL_gamma: float = 0.0
    LO_gamma: float = 0.0
    LP_gamma: float = 0.0
    OL_gamma: float = 0.0
    PL_gamma: float = 0.0

    SS_multiplier: float = 0.0

    # task/decision thresholds
    criterion_value: float = 0.72
    shortlist_input_threshold: float = 0.7
    shortlist_output_threshold: float = 0.5

    # linear cycles -> milliseconds report mapping
    timestep_multiplier: float = 1.0
    timestep_adder: float = 0.0

    max_cycles: int = 40

    def __post_init__(self):
        # value + 0.0 maps -0.0 to +0.0 and leaves every other value as it
        # is: the model gives a zero's sign no meaning, and with no -0.0
        # parameter no activation is ever -0.0 (see dynamics)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                object.__setattr__(self, f.name, value + 0.0)
        # every Parameters is in range, however it was made (replace included)
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if type(self.max_cycles) is not int:
            raise ConfigError(f"max_cycles must be an int, got {self.max_cycles!r}")
        if self.max_cycles < 1:
            raise ConfigError("max_cycles must be >= 1")
        if not (self.MIN_ACT <= self.MIN_REST <= self.MAX_REST <= self.MAX_ACT):
            raise ConfigError("rest range must satisfy MIN_ACT <= MIN_REST <= MAX_REST <= MAX_ACT")
        # activations and rest levels lie in [MIN_ACT, MAX_ACT]: a finite span
        # keeps the update's a - MIN_ACT, MAX_ACT - a and a - rest finite
        if not math.isfinite(self.MAX_ACT - self.MIN_ACT):
            raise ConfigError(f"MAX_ACT - MIN_ACT must be finite; got MIN_ACT={self.MIN_ACT!r}, "
                              f"MAX_ACT={self.MAX_ACT!r}")
        for name in ("S_rest", "L_rest"):
            value = getattr(self, name)
            if not (self.MIN_ACT <= value <= self.MAX_REST):
                raise ConfigError(f"{name}={value} outside [MIN_ACT, MAX_REST]")
        # the input node rests at I_rest; outside the clamp range the update
        # rule would move a node that no input reaches
        if not (self.MIN_ACT <= self.I_rest <= self.MAX_ACT):
            raise ConfigError(f"I_rest={self.I_rest} outside [MIN_ACT, MAX_ACT]")
        for name in GAMMA_NAMES:
            if getattr(self, name) > 0:
                raise ConfigError(f"{name} must be <= 0")
        for name in UNREAD_GAMMA_NAMES:
            if getattr(self, name) != 0.0:
                raise ConfigError(f"{name} is not read by the model; it must be 0")
        for name in ALPHA_NAMES + ("IO_multiplier", "SS_multiplier"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.DECAY_RATE <= 1.0:
            raise ConfigError(f"DECAY_RATE={self.DECAY_RATE} outside [0, 1]")
        # monitors compare with >=, so a threshold above MAX_ACT never fires
        for name in THRESHOLD_NAMES:
            value = getattr(self, name)
            if value > self.MAX_ACT:
                raise ConfigError(f"{name}={value} above MAX_ACT={self.MAX_ACT}; "
                                  "no trial could respond")
        if self.MAX_OPB is not None and self.MAX_OPB <= 0:
            raise ConfigError("MAX_OPB must be positive when given")

    def updated(self, **changes) -> "Parameters":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


ALPHA_NAMES = tuple(f.name for f in fields(Parameters) if f.name.endswith("_alpha"))
GAMMA_NAMES = ("OO_gamma", "PP_gamma", "SS_gamma")
THRESHOLD_NAMES = ("criterion_value", "shortlist_input_threshold", "shortlist_output_threshold")
# accepted so stock parameter files load, but no connection uses them
UNREAD_GAMMA_NAMES = ("LL_gamma", "LO_gamma", "LP_gamma", "OL_gamma", "PL_gamma")
# the fields in which a trial's Parameters may differ from its network's (dynamics.run)
TRIAL_NAMES = (GAMMA_NAMES + ("SS_multiplier", "DECAY_RATE") + THRESHOLD_NAMES
               + ("timestep_multiplier", "timestep_adder", "max_cycles"))

PARAMETER_NAMES = tuple(f.name for f in fields(Parameters))


def _convert(name: str, raw: str):
    raw = raw.strip()
    try:
        if name == "max_cycles":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"parameter {name}: cannot parse value {raw!r}") from None


def parse_assignment(text: str) -> tuple[str, float | int]:
    """Parse one ``NAME = VALUE`` (or ``NAME=VALUE``) assignment."""
    if "=" not in text:
        raise ConfigError(f"expected NAME=VALUE, got {text!r}")
    name, raw = text.split("=", 1)
    name = name.strip()
    if name not in PARAMETER_NAMES:
        known = ", ".join(sorted(PARAMETER_NAMES))
        raise ConfigError(f"unknown parameter {name!r}; valid names: {known}")
    return name, _convert(name, raw)


def load_parameters(source: str | IO[str]) -> Parameters:
    """Read a parameter file; a name it does not set keeps its default.

    Blank lines and lines starting with ``#`` are skipped.
    """
    text = source if isinstance(source, str) else source.read()
    changes = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            name, value = parse_assignment(stripped)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        changes[name] = value
    return Parameters(**changes)

