"""Domain types, scenario generation, and scenario file I/O.

A scenario bundles the M2M cluster layout (cluster-head positions and member
counts) with the radio parameters of the uplink. Scenarios are immutable and
can be written to / read from a plain-text ``key = value`` file, see
`save_scenario` / `load_scenario` for the format.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import BER_MAX

# Wavelength convention: lambda = C_LIGHT / carrier_hz with the usual
# engineering value for the speed of light.
C_LIGHT = 3.0e8


class ScenarioFormatError(ValueError):
    """Raised when a scenario file cannot be parsed."""


@dataclass(frozen=True)
class Cluster:
    """One M2M cluster, located at its cluster head (CH)."""

    id: int
    position: tuple[float, float]
    members: int  # cluster members excluding the CH itself

    def __post_init__(self):
        if self.members < 1:
            raise ValueError(f"cluster {self.id}: members must be >= 1, got {self.members}")


@dataclass(frozen=True)
class UavFleet:
    """Available UAVs and their (fixed) serving altitudes in meters."""

    altitudes: tuple[float, ...]

    def __post_init__(self):
        if len(self.altitudes) < 1:
            raise ValueError("fleet must contain at least one UAV")
        for i, h in enumerate(self.altitudes):
            if not h > 0:
                raise ValueError(f"uav {i}: altitude must be > 0, got {h}")

    @property
    def count(self) -> int:
        return len(self.altitudes)


@dataclass(frozen=True)
class RadioParams:
    """The scalar parameters of a scenario, in scenario-file order, with their
    range checks (defaults: 500 m area side, 2 GHz carrier, 15 kHz RBs,
    -170 dBm/Hz noise, 100-bit packets, 1 W power cap, 12 RBs)."""

    area_side: float = 500.0
    carrier_hz: float = 2.0e9
    rb_bandwidth_hz: float = 15.0e3
    noise_psd: float = 1.0e-20
    pathloss_exp: float = 2.5
    ber_target: float = 1.0e-7
    packet_bits: float = 100.0
    p_tx: float = 0.1
    pmax_w: float = 1.0
    total_rbs: int = 12
    slot_seconds: float = 1.0

    def __post_init__(self):
        if not (0 <= self.p_tx <= 1):
            raise ValueError(f"p_tx must be in [0, 1], got {self.p_tx}")
        if not 0 < self.packet_bits < np.inf:
            raise ValueError(f"packet_bits must be finite and > 0, got {self.packet_bits}")
        if not isinstance(self.total_rbs, (int, np.integer)) or self.total_rbs < 1:
            raise ValueError(f"total_rbs must be a whole number >= 1, got {self.total_rbs!r}")
        if not 0 < self.pmax_w < np.inf:
            raise ValueError(f"pmax_w must be finite and > 0, got {self.pmax_w}")
        if not 2 <= self.pathloss_exp < np.inf:
            raise ValueError(f"pathloss_exp must be finite and >= 2, got {self.pathloss_exp}")
        # the range where channel.snr_gap is defined
        if not (0 < self.ber_target < BER_MAX):
            raise ValueError(f"ber_target must be in (0, {BER_MAX}), got {self.ber_target}")
        if not 0 < self.area_side < np.inf:
            raise ValueError(f"area_side must be finite and > 0, got {self.area_side}")
        if not 0 < self.slot_seconds < np.inf:
            raise ValueError(f"slot_seconds must be finite and > 0, got {self.slot_seconds}")
        for name in ("carrier_hz", "rb_bandwidth_hz", "noise_psd"):
            if not 0 < (value := getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True, kw_only=True)
class ClusterScenario(RadioParams):
    """Full problem instance: clusters plus the radio parameters it inherits.

    ``fleet`` is optional because the UAV count is usually only known after
    planning; a scenario file without ``[uavs]`` rows loads with fleet=None.
    """

    clusters: tuple[Cluster, ...]
    fleet: UavFleet | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self.clusters) < 1:
            raise ValueError("scenario needs at least one cluster")
        for c in self.clusters:
            x, y = c.position
            if not (0 <= x <= self.area_side and 0 <= y <= self.area_side):
                raise ValueError(f"cluster {c.id}: position {c.position} outside area")

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.carrier_hz

    def member_counts(self) -> np.ndarray:
        return np.array([c.members for c in self.clusters], dtype=float)

    def with_fleet(self, fleet: UavFleet) -> "ClusterScenario":
        return replace(self, fleet=fleet)


@dataclass(frozen=True)
class DwellMatrix:
    """Per-(UAV, CH) dwelling-time fractions of one slot, shape U x G.

    Every entry is finite and >= 0, and each UAV's row sums to at most 1 (a
    UAV cannot dwell longer than the slot).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"dwell matrix must be 2-D, got shape {arr.shape}")
        if not np.all((-1e-12 <= arr) & (arr < np.inf)):
            raise ValueError("dwell fractions must be finite and nonnegative")
        row_sums = arr.sum(axis=1)
        if np.any(row_sums > 1 + 1e-9):
            raise ValueError(f"per-UAV dwell budget exceeded: row sums {row_sums}")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def num_uavs(self) -> int:
        return self.entries.shape[0]

    @property
    def num_clusters(self) -> int:
        return self.entries.shape[1]

    def total_per_ch(self) -> np.ndarray:
        """Total dwell each CH receives, summed over UAVs."""
        return self.entries.sum(axis=0)

    def __eq__(self, other):
        if not isinstance(other, DwellMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and np.array_equal(
            self.entries, other.entries
        )


# RadioParams field of each scenario file scalar key, in writing order; three
# keys differ from their field names
_KEY_FIELDS = {{"area_side": "area_m", "noise_psd": "noise_psd_w_per_hz",
                "pathloss_exp": "pathloss_exponent"}.get(f.name, f.name): f
               for f in fields(RadioParams)}


def generate_scenario(
    seed: int,
    num_clusters: int,
    member_min: int,
    member_max: int,
    radio: RadioParams = RadioParams(),
) -> ClusterScenario:
    """Draw a random scenario: CH positions uniform over the square area,
    member counts uniform integers in [member_min, member_max].

    Deterministic for a fixed seed (positions are drawn first, then member
    counts, from a single numpy Generator).
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if member_min < 1 or member_min > member_max:
        raise ValueError(f"invalid member range [{member_min}, {member_max}]")
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, radio.area_side, size=(num_clusters, 2))
    members = rng.integers(member_min, member_max + 1, size=num_clusters)
    clusters = tuple(
        Cluster(id=g, position=(float(xy[g, 0]), float(xy[g, 1])), members=int(members[g]))
        for g in range(num_clusters)
    )
    return ClusterScenario(clusters=clusters,
                           **{f.name: getattr(radio, f.name) for f in fields(RadioParams)})


def save_scenario(scenario: ClusterScenario) -> str:
    """Serialize a scenario to the text format read by `load_scenario`.

    Floats use repr so that load(save(s)) reproduces s exactly.
    """
    lines = ["# uavm2m scenario"]
    for key, f in _KEY_FIELDS.items():
        value = getattr(scenario, f.name)  # f.type is a string: annotations are lazy
        lines.append(f"{key} = {int(value) if f.type == 'int' else repr(float(value))}")
    lines.append("[clusters]")
    for c in scenario.clusters:
        lines.append(f"{c.id},{c.position[0]!r},{c.position[1]!r},{c.members}")
    lines.append("[uavs]")
    if scenario.fleet is not None:
        for i, h in enumerate(scenario.fleet.altitudes):
            lines.append(f"{i},{h!r}")
    return "\n".join(lines) + "\n"


def _parse_number(token: str, lineno: int, key: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: invalid number for {key}: {token!r}") from None


def _parse_int(token: str, lineno: int, key: str) -> int:
    value = _parse_number(token, lineno, key)
    if not value.is_integer():
        raise ScenarioFormatError(f"line {lineno}: {key} must be a whole number, got {token!r}")
    return int(value)


def load_scenario(text: str) -> ClusterScenario:
    """Parse a scenario file. Raises ScenarioFormatError naming the offending
    line for malformed input, and "missing key <k>" when a scalar is absent."""
    scalars: dict[str, float] = {}
    scalar_lines: dict[str, int] = {}
    clusters: list[Cluster] = []
    altitudes: list[float] = []
    section = None  # None -> scalars, else "clusters" / "uavs"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[clusters]":
                section = "clusters"
            elif line == "[uavs]":
                section = "uavs"
            else:
                raise ScenarioFormatError(f"line {lineno}: unknown section {line}")
            continue
        if section is None:
            if "=" not in line:
                raise ScenarioFormatError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEY_FIELDS:
                raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
            f = _KEY_FIELDS[key]
            if f.name in scalars:
                raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
            parse = _parse_int if f.type == "int" else _parse_number
            scalars[f.name] = parse(value.strip(), lineno, key)
            scalar_lines[f.name] = lineno
        elif section == "clusters":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ScenarioFormatError(
                    f"line {lineno}: cluster row needs 'id,x_m,y_m,members', got {line!r}"
                )
            cid = _parse_int(parts[0], lineno, "cluster id")
            x = _parse_number(parts[1], lineno, "x_m")
            y = _parse_number(parts[2], lineno, "y_m")
            members = _parse_int(parts[3], lineno, "members")
            try:
                clusters.append(Cluster(id=cid, position=(x, y), members=members))
            except ValueError as exc:
                raise ScenarioFormatError(f"line {lineno}: {exc}") from None
        else:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ScenarioFormatError(
                    f"line {lineno}: uav row needs 'id,altitude_m', got {line!r}"
                )
            _parse_int(parts[0], lineno, "uav id")  # checked only: UAVs keep row order
            altitudes.append(_parse_number(parts[1], lineno, "altitude_m"))

    for key, f in _KEY_FIELDS.items():
        if f.name not in scalars:
            raise ScenarioFormatError(f"missing key {key}")
    if not clusters:
        raise ScenarioFormatError("missing [clusters] section or no cluster rows")

    fleet = UavFleet(altitudes=tuple(altitudes)) if altitudes else None
    try:
        return ClusterScenario(clusters=tuple(clusters), fleet=fleet, **scalars)
    except ValueError as exc:
        message = str(exc)
        lineno = scalar_lines.get(message.split(" ", 1)[0])
        if lineno is not None:  # a scalar failed its range check: name its line
            message = f"line {lineno}: {message}"
        raise ScenarioFormatError(message) from None
