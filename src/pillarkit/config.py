"""Run configuration: every threshold of the search pipeline, plus the
seed, in one record.

Each threshold is a desk-scale integer, the same at every host graph size
n.  The paper defines them as expressions in n (the README lists them),
but those only take effect at astronomically large n.  Any value set
explicitly wins over its default.  Serializes to a flat "key = value"
file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .expander import ExpanderParams

# (field, default)
_CONSTANTS: list[tuple[str, int]] = [
    # growth horizon for leg balls and the cap on paths to high-degree vertices
    ("ell0", 3),
    # degree threshold defining the high-degree set L
    ("delta_threshold", 64),
    # base radius unit: 200 * ln^3(n) / eps1
    ("m", 64),
    ("anchor_size", 24),
    ("anchor_count", 6),
    # minimum pairwise distance between anchors / low-degree legs
    ("separation", 2),
    # carve radius isolating each new kraken from the previous ones
    # (radius 0 still removes every used vertex)
    ("kraken_separation", 0),
    # how many krakens the collection stage tries to amass
    ("kraken_count", 3),
    ("leg_size", 2),
    # cap on the cycle length of a found kraken
    ("k_max", 12),
    ("p_len_cap", 3),
    ("q_len_cap", 100_000),
    ("u_cap", 100_000),
    ("u0_cap", 100_000),
    # size of the trimmed expansions handed to the exact-length connector
    ("link_expansion_size", 2),
    ("ell_min", 1),
    ("ell_max", 10 ** 9),
    # where the pillar driver starts its choice of rung length
    ("pillar_ell_min", 3),
]

# the least value a threshold override may take; 1 for the thresholds not named
_FLOORS = {"k_max": 3, "kraken_separation": 0, "u_cap": 0, "u0_cap": 0}

# settable values that are not thresholds
_KNOBS_INT = [
    ("seed", 0),
]

# every override key, with its default, in to_text order
_DEFAULTS = dict(_CONSTANTS + _KNOBS_INT)


@dataclass
class RunConfig:
    """Tunable parameters plus the expansion triple (eps1, eps2, d).

    Keys missing from ``overrides`` take their defaults at resolve time.
    """

    eps1: float = 0.1
    eps2: float = 0.2
    d: int = 4
    overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._check_overrides()
        self.params  # raises PreconditionError on a bad (eps1, eps2, d) triple

    def _check_overrides(self) -> None:
        for key, value in self.overrides.items():
            if key not in _DEFAULTS:
                raise PreconditionError(f"unknown config key {key!r}")
            floor = _FLOORS.get(key, 1)
            if key not in dict(_KNOBS_INT) and value < floor:
                raise PreconditionError(f"config key {key} = {value} is below its floor {floor}")

    @property
    def params(self) -> ExpanderParams:
        return ExpanderParams(self.eps1, self.eps2, self.d)

    def resolve(self, n: int) -> "ResolvedConfig":
        """Materialize every threshold for an n-vertex host graph; the
        record is the same at every n.  Overrides set after construction
        are checked here as at construction."""
        self._check_overrides()
        values = {name: self.overrides.get(name, default)
                  for name, default in _DEFAULTS.items()}
        return ResolvedConfig(params=self.params, **values)

    # -- key = value serialization ----------------------------------

    def to_text(self) -> str:
        lines = [f"eps1 = {self.eps1!r}", f"eps2 = {self.eps2!r}", f"d = {self.d}"]
        lines += [f"{name} = {self.overrides.get(name, default)}"
                  for name, default in _DEFAULTS.items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: dict = {}
        seen: dict[str, int] = {}  # the line that first names each key
        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(f"config line {line_no}: expected key = value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _DEFAULTS and key not in ("eps1", "eps2", "d"):
                raise PreconditionError(f"config line {line_no}: unknown config key {key!r}")
            if seen.setdefault(key, line_no) != line_no:
                raise PreconditionError(f"config line {line_no}: {key} repeats line {seen[key]}")
            kind = float if key in ("eps1", "eps2") else int
            try:
                values[key] = kind(val)
            except ValueError:
                what = "a number" if kind is float else "an integer"
                raise PreconditionError(
                    f"config line {line_no}: {key} = {val!r} is not {what}") from None
        fields = {k: values.pop(k) for k in ("eps1", "eps2", "d") if k in values}
        return cls(**fields, overrides=values)


@dataclass(frozen=True)
class ResolvedConfig:
    """Concrete thresholds for one run; see RunConfig for derivation."""

    params: ExpanderParams
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


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_text(fh.read())


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
