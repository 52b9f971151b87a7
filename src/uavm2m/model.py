"""Domain types, scenario generation, and scenario file I/O.

A scenario bundles the M2M cluster layout (cluster-head positions and member
counts) with the radio parameters of the uplink. Scenarios are immutable and
can be written to / read from a plain-text ``key = value`` file, see
`save_scenario` / `load_scenario` for the format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    """Radio/traffic parameters of a scenario (defaults: 15 kHz RBs, 2 GHz
    carrier, -170 dBm/Hz noise, 100-bit packets, 1 W power cap)."""

    area_m: float = 500.0
    carrier_hz: float = 2.0e9
    rb_bandwidth_hz: float = 15.0e3
    noise_psd_w_per_hz: float = 1.0e-20
    pathloss_exponent: float = 2.5
    ber_target: float = 1.0e-7
    packet_bits: float = 100.0
    p_tx: float = 0.1
    pmax_w: float = 1.0
    total_rbs: int = 12
    slot_seconds: float = 1.0


@dataclass(frozen=True)
class ClusterScenario:
    """Full problem instance: clusters plus radio parameters.

    ``fleet`` is optional because the UAV count is usually only known after
    planning; a scenario file without ``[uavs]`` rows loads with fleet=None.
    """

    area_side: float
    clusters: tuple[Cluster, ...]
    p_tx: float
    packet_bits: float
    rb_bandwidth_hz: float
    total_rbs: int
    noise_psd: float
    carrier_hz: float
    pathloss_exp: float
    ber_target: float
    pmax_w: float
    slot_seconds: float = 1.0
    fleet: UavFleet | None = None

    def __post_init__(self):
        if not (0 <= self.p_tx <= 1):
            raise ValueError(f"p_tx must be in [0, 1], got {self.p_tx}")
        if not self.packet_bits > 0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")
        if self.total_rbs < 1:
            raise ValueError(f"total_rbs must be >= 1, got {self.total_rbs}")
        if not self.pmax_w > 0:
            raise ValueError(f"pmax_w must be > 0, got {self.pmax_w}")
        if self.pathloss_exp < 2:
            raise ValueError(f"pathloss_exp must be >= 2, got {self.pathloss_exp}")
        if not (0 < self.ber_target < 1):
            raise ValueError(f"ber_target must be in (0, 1), got {self.ber_target}")
        if not self.area_side > 0:
            raise ValueError(f"area_side must be > 0, got {self.area_side}")
        if not self.slot_seconds > 0:
            raise ValueError(f"slot_seconds must be > 0, got {self.slot_seconds}")
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

    Every entry is >= 0 and each UAV's row sums to at most 1 (a UAV cannot
    dwell longer than the slot).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"dwell matrix must be 2-D, got shape {arr.shape}")
        if np.any(arr < -1e-12):
            raise ValueError("dwell fractions must be nonnegative")
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
    xy = rng.uniform(0.0, radio.area_m, size=(num_clusters, 2))
    members = rng.integers(member_min, member_max + 1, size=num_clusters)
    clusters = tuple(
        Cluster(id=g, position=(float(xy[g, 0]), float(xy[g, 1])), members=int(members[g]))
        for g in range(num_clusters)
    )
    return ClusterScenario(
        area_side=radio.area_m,
        clusters=clusters,
        p_tx=radio.p_tx,
        packet_bits=radio.packet_bits,
        rb_bandwidth_hz=radio.rb_bandwidth_hz,
        total_rbs=radio.total_rbs,
        noise_psd=radio.noise_psd_w_per_hz,
        carrier_hz=radio.carrier_hz,
        pathloss_exp=radio.pathloss_exponent,
        ber_target=radio.ber_target,
        pmax_w=radio.pmax_w,
        slot_seconds=radio.slot_seconds,
    )


# scenario file scalar keys, in writing order -> attribute name
_SCALAR_KEYS = (
    ("area_m", "area_side"),
    ("carrier_hz", "carrier_hz"),
    ("rb_bandwidth_hz", "rb_bandwidth_hz"),
    ("noise_psd_w_per_hz", "noise_psd"),
    ("pathloss_exponent", "pathloss_exp"),
    ("ber_target", "ber_target"),
    ("packet_bits", "packet_bits"),
    ("p_tx", "p_tx"),
    ("pmax_w", "pmax_w"),
    ("total_rbs", "total_rbs"),
    ("slot_seconds", "slot_seconds"),
)
_INT_KEYS = {"total_rbs"}


def save_scenario(scenario: ClusterScenario) -> str:
    """Serialize a scenario to the text format read by `load_scenario`.

    Floats use repr so that load(save(s)) reproduces s exactly.
    """
    lines = ["# uavm2m scenario"]
    for key, attr in _SCALAR_KEYS:
        value = getattr(scenario, attr)
        lines.append(f"{key} = {int(value) if key in _INT_KEYS else repr(float(value))}")
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
            if key not in {k for k, _ in _SCALAR_KEYS}:
                raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
            if key in scalars:
                raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
            parse = _parse_int if key in _INT_KEYS else _parse_number
            scalars[key] = parse(value.strip(), lineno, key)
            scalar_lines[key] = lineno
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

    for key, _ in _SCALAR_KEYS:
        if key not in scalars:
            raise ScenarioFormatError(f"missing key {key}")
    if not clusters:
        raise ScenarioFormatError("missing [clusters] section or no cluster rows")

    fleet = UavFleet(altitudes=tuple(altitudes)) if altitudes else None
    try:
        return ClusterScenario(
            area_side=scalars["area_m"],
            clusters=tuple(clusters),
            p_tx=scalars["p_tx"],
            packet_bits=scalars["packet_bits"],
            rb_bandwidth_hz=scalars["rb_bandwidth_hz"],
            total_rbs=scalars["total_rbs"],
            noise_psd=scalars["noise_psd_w_per_hz"],
            carrier_hz=scalars["carrier_hz"],
            pathloss_exp=scalars["pathloss_exponent"],
            ber_target=scalars["ber_target"],
            pmax_w=scalars["pmax_w"],
            slot_seconds=scalars["slot_seconds"],
            fleet=fleet,
        )
    except ValueError as exc:
        message = str(exc)
        for key, attr in _SCALAR_KEYS:  # name the offending line when a
            if message.startswith(attr):  # scalar fails its range check
                message = f"line {scalar_lines[key]}: {message}"
                break
        raise ScenarioFormatError(message) from None
