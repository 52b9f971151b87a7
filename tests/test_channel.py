import math

import numpy as np
import pytest

from uavm2m import channel


def test_snr_gap_value():
    # direct evaluation of -1.5 / ln(5e-7)
    assert channel.snr_gap(1e-7) == pytest.approx(0.1033865453, abs=1e-6)


def test_snr_gap_unity_point():
    # ln(5 * ber) = -1.5 exactly at ber = e^-1.5 / 5
    assert channel.snr_gap(math.exp(-1.5) / 5.0) == pytest.approx(1.0, rel=1e-12)


def test_snr_gap_monotone_in_ber():
    # a stricter (smaller) error target shrinks the gap factor, i.e. demands
    # more power for the same rate; the frozen points above already show it:
    # snr_gap(1e-7) = 0.1034 < snr_gap(0.0446) = 1.0
    assert channel.snr_gap(1e-9) < channel.snr_gap(1e-7)
    bers = np.logspace(-9, -1.2, 40)
    gaps = [channel.snr_gap(b) for b in bers]
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_snr_gap_domain():
    for ber in (0.2, 0.5, 0.0, -0.1, 1.0):
        with pytest.raises(ValueError):
            channel.snr_gap(ber)


def test_path_gain_value():
    assert channel.path_gain(500.0, 0.15, 2.5) == pytest.approx(2.7845e-12, rel=1e-3)
    # tighter pin from direct evaluation
    assert channel.path_gain(500.0, 0.15, 2.5) == pytest.approx(2.784700e-12, rel=1e-5)


def test_path_gain_unit_base():
    lam = 0.15
    for nu in (2.0, 2.5, 3.7):
        assert channel.path_gain(lam / (4 * math.pi), lam, nu) == pytest.approx(1.0, rel=1e-12)


def test_path_gain_inverse_square():
    g1 = channel.path_gain(400.0, 0.15, 2.0)
    g2 = channel.path_gain(200.0, 0.15, 2.0)
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_path_gain_at_most_one_beyond_reference():
    lam = 0.15
    for d in np.linspace(lam / (4 * math.pi), 2000.0, 50):
        assert channel.path_gain(float(d), lam, 2.5) <= 1.0 + 1e-15


def test_path_gain_parameter_errors():
    with pytest.raises(ValueError):
        channel.path_gain(0.0, 0.15, 2.5)
    with pytest.raises(ValueError):
        channel.path_gain(100.0, -1.0, 2.5)
    with pytest.raises(ValueError):
        channel.path_gain(100.0, 0.15, 1.5)


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_path_gain_rejects_non_finite_exponent(nu):
    # nan passed the `< 2` test and gave a nan gain
    with pytest.raises(ValueError, match="pathloss exponent must be finite and >= 2"):
        channel.path_gain(100.0, 0.15, nu)


def test_required_power_values():
    p_full = channel.required_power(100, 1, 15e3, 1.0, 0.103386, 2.7845e-12, 1e-20, 1.0)
    assert p_full == pytest.approx(2.413e-6, rel=0.01)
    p_tenth = channel.required_power(100, 1, 15e3, 0.1, 0.103386, 2.7845e-12, 1e-20, 1.0)
    assert p_tenth == pytest.approx(2.464e-5, rel=0.01)
    assert p_tenth > p_full


def test_required_power_monotonicity():
    base = dict(packet_bits=100, z=2, bz=15e3, dwell=0.5, beta=0.103386,
                gain=2.7845e-12, n0=1e-20, slot_s=1.0)
    p0 = channel.required_power(**base)
    assert channel.required_power(**{**base, "gain": 2 * base["gain"]}) < p0
    assert channel.required_power(**{**base, "dwell": 0.9}) < p0
    assert channel.required_power(**{**base, "z": 4}) <= p0


def test_required_power_zero_dwell():
    with pytest.raises(channel.InfeasibleLinkError):
        channel.required_power(100, 1, 15e3, 0.0, 0.1, 1e-12, 1e-20, 1.0)


def test_achievable_bits_examples():
    bits = channel.achievable_bits(2.413e-6, 1, 15e3, 1.0, 0.103386, 2.7845e-12, 1e-20, 1.0)
    assert bits == pytest.approx(100.0, abs=0.1)
    assert channel.achievable_bits(0.0, 1, 15e3, 1.0, 0.1, 1e-12, 1e-20, 1.0) == 0.0


def test_power_bits_inverse_pair(rng):
    """required_power and achievable_bits undo each other across random draws."""
    for _ in range(10_000):
        bits = rng.uniform(10, 5_000)
        z = rng.uniform(0.5, 24)
        bz = rng.uniform(1e3, 1e6)
        dwell = rng.uniform(0.01, 1.0)
        beta = rng.uniform(0.05, 1.0)
        gain = 10.0 ** rng.uniform(-14, -8)
        n0 = 10.0 ** rng.uniform(-21, -17)
        slot = rng.uniform(0.5, 2.0)
        p = channel.required_power(bits, z, bz, dwell, beta, gain, n0, slot)
        back = channel.achievable_bits(p, z, bz, dwell, beta, gain, n0, slot)
        assert back == pytest.approx(bits, rel=1e-9)


def test_rb_cost_convexity_witness(rng):
    """(2**(c/z) - 1) * z satisfies the midpoint inequality in z."""
    for _ in range(500):
        c = rng.uniform(0.01, 20.0)
        a = rng.uniform(0.2, 30.0)
        b = rng.uniform(0.2, 30.0)
        f = lambda z: (2.0 ** (c / z) - 1.0) * z
        mid = f((a + b) / 2.0)
        assert mid <= (f(a) + f(b)) / 2.0 + 1e-12 * max(f(a), f(b))


def _link_arrays(rng, n=200):
    return dict(z=rng.uniform(0.5, 24, n), bz=rng.uniform(1e3, 1e6, n),
                dwell=rng.uniform(0.01, 1.0, n), beta=rng.uniform(0.05, 1.0, n),
                gain=10.0 ** rng.uniform(-14, -8, n), n0=10.0 ** rng.uniform(-21, -17, n),
                slot_s=rng.uniform(0.5, 2.0, n))


def test_array_inputs_equal_element_wise_scalar_calls(rng):
    link = _link_arrays(rng)
    bits = rng.uniform(10, 5_000, len(link["z"]))
    power = channel.required_power(bits, **link)
    back = channel.achievable_bits(power, **link)
    for i, (b, p) in enumerate(zip(bits, power)):
        one = {name: float(v[i]) for name, v in link.items()}
        assert channel.required_power(float(b), **one) == p
        assert channel.achievable_bits(float(p), **one) == back[i]
    # scalars broadcast against arrays
    spread = channel.required_power(100.0, link["z"], 15e3, 0.5, 0.1, 1e-12, 1e-20)
    assert spread.tolist() == [channel.required_power(100.0, z, 15e3, 0.5, 0.1, 1e-12, 1e-20)
                               for z in link["z"]]


@pytest.mark.parametrize("name", ["packet_bits", "z", "bz", "dwell", "beta", "gain", "n0",
                                  "slot_s", "power"])
def test_one_bad_element_names_its_field(rng, name):
    # power is only checked against < 0, so a nan power passes, as it does
    # in a scalar call
    for bad in (-1.0,) if name == "power" else (-1.0, math.nan):
        values = {"packet_bits": np.full(5, 100.0), "power": np.full(5, 1e-6),
                  **_link_arrays(rng, n=5)}
        values[name][3] = bad
        if name != "power":
            with pytest.raises(ValueError, match=f"^{name} must be > 0, got {bad}$"):
                channel.required_power(**{k: v for k, v in values.items() if k != "power"})
        if name != "packet_bits":
            op = ">=" if name == "power" else ">"
            with pytest.raises(ValueError, match=f"^{name} must be {op} 0, got {bad}$"):
                channel.achievable_bits(**{k: v for k, v in values.items()
                                           if k != "packet_bits"})


def test_zero_dwell_anywhere_is_an_infeasible_link(rng):
    link = _link_arrays(rng, n=5)
    link["dwell"][2] = 0.0
    with pytest.raises(channel.InfeasibleLinkError):
        channel.required_power(np.full(5, 100.0), **link)
    with pytest.raises(channel.InfeasibleLinkError):
        channel.required_power(100.0, 1.0, 15e3, link["dwell"], 0.1, 1e-12, 1e-20)


def test_overflow_gives_inf_without_a_warning():
    # exponent 1e4 * ln2 is past expm1's range, and 1e300 W past log2's
    # argument; pytest turns any warning into an error
    power = channel.required_power(np.array([100.0, 1.5e8]), 1.0, 15e3, 1.0, 0.1, 1e-12, 1e-20)
    assert np.isfinite(power[0]) and power[1] == math.inf
    assert channel.required_power(1.5e8, 1.0, 15e3, 1.0, 0.1, 1e-12, 1e-20) == math.inf
    bits = channel.achievable_bits(np.array([1e-6, 1e300]), 1.0, 15e3, 1.0, 1.0, 1e8, 1e-300)
    assert np.isfinite(bits[0]) and bits[1] == math.inf
