"""Deterministic CH-UAV link model: path gain, SNR gap, and the closed-form
power/rate pair used by the resource-allocation constraints."""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
# the SNR gap's log argument 5 * ber must stay below 1
BER_MAX = 0.2


class InfeasibleLinkError(ValueError):
    """A link cannot carry the packet at any finite power (e.g. zero dwell)."""


def snr_gap(ber: float) -> float:
    """SNR gap for M-QAM at target bit error rate: -1.5 / ln(5 * ber).

    Only defined for ber < BER_MAX = 0.2 (the log argument must stay below 1).
    """
    if not (0 < ber < BER_MAX):
        raise ValueError(f"ber must be in (0, {BER_MAX}), got {ber}")
    return -1.5 / math.log(5.0 * ber)


def path_gain(distance_m: float, wavelength_m: float, nu: float) -> float:
    """Free-space style power-law gain (4*pi*d / wavelength) ** -nu."""
    if not distance_m > 0:
        raise ValueError(f"distance must be > 0, got {distance_m}")
    if not wavelength_m > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    if not 2 <= nu < math.inf:
        raise ValueError(f"pathloss exponent must be finite and >= 2, got {nu}")
    return (4.0 * math.pi * distance_m / wavelength_m) ** -nu


def _all(ok) -> bool:
    """Whether a comparison holds everywhere: `ok` is one bool for numbers,
    an array of them for arrays (read without a numpy call for numbers)."""
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _check_positive(**fields) -> None:
    """ValueError naming the first field with an element that is not > 0."""
    for name, v in fields.items():
        if not _all(v > 0):
            v = np.asarray(v, dtype=float)
            raise ValueError(f"{name} must be > 0, got {v[~(v > 0)][0]}")


def required_power(packet_bits, z, bz, dwell, beta, gain, n0, slot_s=1.0):
    """Minimum total transmit power (W) that delivers `packet_bits` over `z`
    resource blocks of bandwidth `bz` within the dwell fraction of a slot,
    with power split equally across the blocks.

        P = bz * n0 * (2 ** (bits / (z * bz * dwell * slot_s)) - 1) * z / (beta * gain)

    2**t - 1 is evaluated as expm1(t ln2), which keeps full precision at
    small t where the difference would cancel. Takes scalars or arrays that
    broadcast, element-wise; a power past the float range is inf.
    """
    if not _all(dwell != 0):
        raise InfeasibleLinkError("zero dwell time: packet cannot be sent at finite power")
    _check_positive(packet_bits=packet_bits, z=z, bz=bz, dwell=dwell, beta=beta, gain=gain,
                    n0=n0, slot_s=slot_s)
    with np.errstate(over="ignore"):
        exponent = packet_bits / (z * bz * dwell * slot_s)
        return bz * n0 * np.expm1(exponent * _LN2) * z / (beta * gain)


def achievable_bits(power, z, bz, dwell, beta, gain, n0, slot_s=1.0):
    """Bits deliverable at `power` W under the same equal-split model; exact
    inverse of `required_power`. power = 0 yields 0 bits. Takes scalars or
    arrays that broadcast, element-wise; a rate past the float range is inf."""
    power = np.asarray(power, dtype=float)
    if np.any(power < 0):
        raise ValueError(f"power must be >= 0, got {power[power < 0][0]}")
    _check_positive(z=z, bz=bz, dwell=dwell, beta=beta, gain=gain, n0=n0, slot_s=slot_s)
    with np.errstate(over="ignore"):
        snr = power * beta * gain / (z * bz * n0)
        return z * bz * dwell * slot_s * np.log2(1.0 + snr)
