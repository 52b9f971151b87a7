"""Deterministic CH-UAV link model: path gain, SNR gap, and the closed-form
power/rate pair used by the resource-allocation constraints."""

from __future__ import annotations

import math


class InfeasibleLinkError(ValueError):
    """A link cannot carry the packet at any finite power (e.g. zero dwell)."""


def snr_gap(ber: float) -> float:
    """SNR gap for M-QAM at target bit error rate: -1.5 / ln(5 * ber).

    Only defined for ber < 0.2 (the log argument must stay below 1).
    """
    if not (0 < ber < 0.2):
        raise ValueError(f"ber must be in (0, 0.2), got {ber}")
    return -1.5 / math.log(5.0 * ber)


def path_gain(distance_m: float, wavelength_m: float, nu: float) -> float:
    """Free-space style power-law gain (4*pi*d / wavelength) ** -nu."""
    if not distance_m > 0:
        raise ValueError(f"distance must be > 0, got {distance_m}")
    if not wavelength_m > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    if nu < 2:
        raise ValueError(f"pathloss exponent must be >= 2, got {nu}")
    return (4.0 * math.pi * distance_m / wavelength_m) ** -nu


def required_power(
    packet_bits: float,
    z: float,
    bz: float,
    dwell: float,
    beta: float,
    gain: float,
    n0: float,
    slot_s: float = 1.0,
) -> float:
    """Minimum total transmit power (W) that delivers `packet_bits` over `z`
    resource blocks of bandwidth `bz` within the dwell fraction of a slot,
    with power split equally across the blocks.

        P = bz * n0 * (2 ** (bits / (z * bz * dwell * slot_s)) - 1) * z / (beta * gain)
    """
    if dwell == 0:
        raise InfeasibleLinkError("zero dwell time: packet cannot be sent at finite power")
    packet_bits, z, bz, dwell = float(packet_bits), float(z), float(bz), float(dwell)
    beta, gain, n0, slot_s = float(beta), float(gain), float(n0), float(slot_s)
    for name, v in (("packet_bits", packet_bits), ("z", z), ("bz", bz), ("dwell", dwell),
                    ("beta", beta), ("gain", gain), ("n0", n0), ("slot_s", slot_s)):
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v}")
    exponent = packet_bits / (z * bz * dwell * slot_s)
    return bz * n0 * (2.0 ** exponent - 1.0) * z / (beta * gain)


def achievable_bits(
    power: float,
    z: float,
    bz: float,
    dwell: float,
    beta: float,
    gain: float,
    n0: float,
    slot_s: float = 1.0,
) -> float:
    """Bits deliverable at `power` W under the same equal-split model; exact
    inverse of `required_power`. power = 0 yields 0 bits."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    for name, v in (("z", z), ("bz", bz), ("dwell", dwell), ("beta", beta),
                    ("gain", gain), ("n0", n0), ("slot_s", slot_s)):
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v}")
    snr = power * beta * gain / (z * bz * n0)
    return z * bz * dwell * slot_s * math.log2(1.0 + snr)
