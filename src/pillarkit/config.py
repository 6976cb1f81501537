"""Run configuration: every threshold of the search pipeline that follows
the host graph size n, plus the seed, in one record, with two modes.

``formula`` mode derives each constant from the host graph size n via its
asymptotic definition; those values only fire at astronomically large n,
so ``relaxed`` mode (the default) uses explicit desk-scale integers.  Any
field set explicitly wins in either mode.  Serializes to a flat
"key = value" file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import PreconditionError
from .expander import ExpanderParams

_CLAMP = 10 ** 15
_B = 10  # the exponent unit b of the paper's polylog sizes (leg, anchor, caps)
_SAMPLE_CAP = 2000  # relaxed mode's cap on the size of a sampled expansion-check set

def _powint(base: float, expo: float) -> int:
    """ceil(base**expo) computed in log space, clamped to 1.._CLAMP."""
    if base <= 1.0:
        return 1
    log_val = expo * math.log(base)
    if log_val > math.log(_CLAMP):
        return _CLAMP
    return max(1, math.ceil(math.exp(log_val)))


# (field, relaxed default, formula)  -- the formula sees (n, cfg, partial resolved dict)
_CONSTANTS: list[tuple[str, int, object]] = [
    # growth horizon for leg balls and the cap on paths to high-degree vertices
    ("ell0", 3, lambda n, c, r: _powint(math.log(max(math.log(n), 1.001)), 20)),
    # degree threshold defining the high-degree set L
    ("delta_threshold", 64, lambda n, c, r: _powint(math.e, math.log(max(math.log(n), 1.001)) ** 2)),
    # base radius unit: 200 * ln^3(n) / eps1
    ("m", 64, lambda n, c, r: max(1, math.ceil(200 * math.log(n) ** 3 / c.eps1))),
    ("anchor_size", 24, lambda n, c, r: _powint(math.log(n), 100 * _B)),
    ("anchor_count", 6, lambda n, c, r: r["m"] ** 2),
    # minimum pairwise distance between anchors / low-degree legs
    ("separation", 2, lambda n, c, r: _powint(math.log(n), 0.1)),
    # carve radius isolating each new kraken from the previous ones
    # (radius 0 still removes every used vertex)
    ("kraken_separation", 0, lambda n, c, r: 10 * r["ell0"]),
    # how many krakens the collection stage tries to amass
    ("kraken_count", 3, lambda n, c, r: _powint(n, 0.125)),
    ("leg_size", 2, lambda n, c, r: _powint(math.log(n), _B)),
    # cap on the cycle length of a found kraken
    ("k_max", 12, lambda n, c, r: max(3, math.floor(math.log(n)))),
    ("p_len_cap", 3, lambda n, c, r: r["ell0"]),
    ("q_len_cap", 100_000, lambda n, c, r: 3 * r["m"]),
    ("u_cap", 100_000, lambda n, c, r: _powint(math.log(n), 2 * _B)),
    ("u0_cap", 100_000, lambda n, c, r: _powint(math.log(n), 6 * _B)),
    # size of the trimmed expansions handed to the exact-length connector
    ("link_expansion_size", 2, lambda n, c, r: _powint(math.log(n), 4 * _B)),
    ("ell_min", 1, lambda n, c, r: _powint(math.log(n), 7)),
    ("ell_max", 10 ** 9, lambda n, c, r: max(1, math.floor(n / _powint(math.log(n), 10)))),
    # where the pillar driver starts its choice of rung length
    ("pillar_ell_min", 3, lambda n, c, r: _powint(math.log(n), 7)),
]

# the least value a threshold override may take; 1 for the thresholds not named
_FLOORS = {"k_max": 3, "kraken_separation": 0, "u_cap": 0, "u0_cap": 0}

# settable values with no formula
_KNOBS_INT = [
    ("seed", 0),
]


@dataclass
class RunConfig:
    """Tunable parameters plus the expansion triple (eps1, eps2, d).

    Fields left at None fall back to the mode defaults at resolve time.
    """

    eps1: float = 0.1
    eps2: float = 0.2
    d: int = 4
    mode: str = "relaxed"
    overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("relaxed", "formula"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        thresholds = {name for name, *_ in _CONSTANTS}
        knobs = {name for name, _ in _KNOBS_INT}
        for key, value in self.overrides.items():
            if key not in thresholds | knobs:
                raise PreconditionError(f"unknown config key {key!r}")
            floor = _FLOORS.get(key, 1)
            if key in thresholds and value < floor:
                raise PreconditionError(f"config key {key} = {value} is below its floor {floor}")
        self.params  # raises PreconditionError on a bad (eps1, eps2, d) triple

    @property
    def params(self) -> ExpanderParams:
        return ExpanderParams(self.eps1, self.eps2, self.d)

    def resolve(self, n: int) -> "ResolvedConfig":
        """Materialize every constant for an n-vertex host graph."""
        values: dict[str, int] = {}
        for name, default in _KNOBS_INT:
            values[name] = self.overrides.get(name, default)
        for name, relaxed, formula in _CONSTANTS:
            if name in self.overrides:
                values[name] = self.overrides[name]
            elif self.mode == "formula" and n >= 3:
                values[name] = formula(n, self, values)
            else:
                values[name] = relaxed
        cap = _SAMPLE_CAP if self.mode == "relaxed" else None
        return ResolvedConfig(params=self.params, mode=self.mode,
                              expansion_sample_cap=cap, **values)

    # -- key = value serialization ----------------------------------

    def to_text(self) -> str:
        lines = [
            f"mode = {self.mode}",
            f"eps1 = {self.eps1!r}",
            f"eps2 = {self.eps2!r}",
            f"d = {self.d}",
        ]
        for name, relaxed, _ in _CONSTANTS:
            lines.append(f"{name} = {self.overrides.get(name, relaxed)}")
        for name, default in _KNOBS_INT:
            lines.append(f"{name} = {self.overrides.get(name, default)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: dict = {}
        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(f"config line {line_no}: expected key = value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key == "mode":
                values[key] = val
            else:
                kind = float if key in ("eps1", "eps2") else int
                try:
                    values[key] = kind(val)
                except ValueError:
                    what = "a number" if kind is float else "an integer"
                    raise PreconditionError(
                        f"config line {line_no}: {key} = {val!r} is not {what}") from None
        fields = {k: values.pop(k) for k in ("eps1", "eps2", "d", "mode") if k in values}
        return cls(**fields, overrides=values)


@dataclass(frozen=True)
class ResolvedConfig:
    """Concrete thresholds for one run; see RunConfig for derivation."""

    params: ExpanderParams
    mode: str
    ell0: int
    delta_threshold: int
    m: int
    anchor_size: int
    anchor_count: int
    separation: int
    kraken_separation: int
    kraken_count: int
    leg_size: int
    k_max: int
    p_len_cap: int
    q_len_cap: int
    u_cap: int
    u0_cap: int
    link_expansion_size: int
    ell_min: int
    ell_max: int
    pillar_ell_min: int
    seed: int
    expansion_sample_cap: int | None  # _SAMPLE_CAP in relaxed mode, None in formula mode


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_text(fh.read())


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
