import dataclasses

import numpy as np
import pytest

from uavm2m import model
from uavm2m.model import (
    Cluster,
    ClusterScenario,
    DwellMatrix,
    RadioParams,
    ScenarioFormatError,
    UavFleet,
    generate_scenario,
    load_scenario,
    save_scenario,
)


def test_generate_default_area_and_count():
    scenario = generate_scenario(7, 20, 1, 10)
    assert scenario.num_clusters == 20
    assert scenario.area_side == 500.0
    for c in scenario.clusters:
        assert 0 <= c.position[0] <= 500 and 0 <= c.position[1] <= 500
        assert 1 <= c.members <= 10


def test_generate_is_deterministic():
    a = generate_scenario(7, 20, 1, 10)
    b = generate_scenario(7, 20, 1, 10)
    assert a == b
    c = generate_scenario(8, 20, 1, 10)
    assert a != c


def test_generate_degenerate_member_range():
    scenario = generate_scenario(7, 1, 5, 5)
    assert scenario.num_clusters == 1
    assert scenario.clusters[0].members == 5


def test_generate_member_counts_cover_range():
    scenario = generate_scenario(3, 500, 2, 6)
    counts = {c.members for c in scenario.clusters}
    assert counts == {2, 3, 4, 5, 6}


def test_generate_rejects_bad_ranges():
    with pytest.raises(ValueError):
        generate_scenario(1, 0, 1, 10)
    with pytest.raises(ValueError):
        generate_scenario(1, 5, 4, 2)
    with pytest.raises(ValueError):
        generate_scenario(1, 5, 0, 3)


def test_round_trip_without_fleet():
    scenario = generate_scenario(11, 20, 1, 10)
    again = load_scenario(save_scenario(scenario))
    assert again == scenario


def test_round_trip_with_fleet():
    scenario = generate_scenario(2, 4, 1, 10).with_fleet(
        UavFleet(altitudes=(412.5, 598.0, 500.0)))
    again = load_scenario(save_scenario(scenario))
    assert again == scenario
    assert again.fleet.count == 3


_SAVED_HEAD = """\
# uavm2m scenario
area_m = 500.0
carrier_hz = 2000000000.0
rb_bandwidth_hz = 15000.0
noise_psd_w_per_hz = 1e-20
pathloss_exponent = 2.5
ber_target = 1e-07
packet_bits = 80.0
p_tx = 0.25
pmax_w = 1.0
total_rbs = 6
slot_seconds = 1.0
[clusters]
0,42.824583571812184,118.40525329804986,1
1,400.63723260319847,291.0810180321839,1
[uavs]
"""


@pytest.mark.parametrize("fleet,tail", [(None, ""), ((412.5, 598.0), "0,412.5\n1,598.0\n")])
def test_saved_file_format_is_pinned(fleet, tail):
    # key names, key order and number format, byte for byte
    scenario = generate_scenario(3, 2, 1, 10, RadioParams(p_tx=0.25, total_rbs=6,
                                                          packet_bits=80.0))
    if fleet is not None:
        scenario = scenario.with_fleet(UavFleet(altitudes=fleet))
    assert save_scenario(scenario) == _SAVED_HEAD + tail


_MINIMAL_LINES = (
    "area_m = 100.0", "carrier_hz = 2e9", "rb_bandwidth_hz = 15000.0",
    "noise_psd_w_per_hz = 1e-20", "pathloss_exponent = 2.5",
    "ber_target = 1e-7", "packet_bits = 100.0", "p_tx = 0.1",
    "pmax_w = 1.0", "total_rbs = 6", "slot_seconds = 1.0",
    "[clusters]", "0,10.0,20.0,3", "[uavs]",
)


def test_minimal_file_parses():
    scenario = load_scenario("\n".join(_MINIMAL_LINES))
    assert scenario.num_clusters == 1
    assert scenario.clusters[0] == Cluster(id=0, position=(10.0, 20.0), members=3)
    assert scenario.fleet is None


def test_missing_key_reported_by_name():
    scenario = generate_scenario(1, 2, 1, 4)
    text = "\n".join(line for line in save_scenario(scenario).splitlines()
                     if not line.startswith("p_tx"))
    with pytest.raises(ScenarioFormatError, match="missing key p_tx"):
        load_scenario(text)


def test_malformed_line_names_line_number():
    scenario = generate_scenario(1, 2, 1, 4)
    lines = save_scenario(scenario).splitlines()
    lines[3] = "rb_bandwidth_hz fifteen thousand"
    with pytest.raises(ScenarioFormatError, match="line 4"):
        load_scenario("\n".join(lines))


def test_bad_cluster_row_names_line_number():
    scenario = generate_scenario(1, 2, 1, 4)
    lines = save_scenario(scenario).splitlines()
    idx = lines.index("[clusters]") + 1
    lines[idx] = "0,1.0,2.0"
    with pytest.raises(ScenarioFormatError, match=f"line {idx + 1}"):
        load_scenario("\n".join(lines))


def test_out_of_range_value_rejected():
    scenario = generate_scenario(1, 2, 1, 4)
    text = save_scenario(scenario).replace("p_tx = 0.1", "p_tx = 1.5")
    with pytest.raises(ScenarioFormatError, match=r"line \d+: p_tx"):
        load_scenario(text)


@pytest.mark.parametrize("lineno,row,field", [
    (10, "total_rbs = 6.5", "total_rbs"),
    (13, "0.5,10.0,20.0,3", "cluster id"),
    (13, "0,10.0,20.0,3.9", "members"),
    (15, "0.5,400.0", "uav id"),
])
def test_fractional_count_or_id_names_its_line(lineno, row, field):
    # a count or id that is not a whole number is an error, not truncated
    lines = [*_MINIMAL_LINES, "0,400.0"]
    assert load_scenario("\n".join(lines)).fleet.count == 1
    lines[lineno - 1] = row
    with pytest.raises(ScenarioFormatError, match=f"line {lineno}: {field} must be a whole number"):
        load_scenario("\n".join(lines))


def test_comments_and_blank_lines_ignored():
    scenario = generate_scenario(5, 3, 1, 10)
    text = save_scenario(scenario)
    noisy = "# leading comment\n\n" + text.replace(
        "[clusters]", "# about to list clusters\n[clusters]")
    assert load_scenario(noisy) == scenario


def test_scenario_invariants():
    base = dict(area_side=100.0, clusters=(Cluster(0, (5.0, 5.0), 2),),
                p_tx=0.1, packet_bits=100.0, rb_bandwidth_hz=15e3, total_rbs=6,
                noise_psd=1e-20, carrier_hz=2e9, pathloss_exp=2.5,
                ber_target=1e-7, pmax_w=1.0)
    ClusterScenario(**base)
    for key, bad in [("p_tx", 1.5), ("packet_bits", 0.0), ("total_rbs", 0),
                     ("pmax_w", 0.0), ("pathloss_exp", 1.9), ("ber_target", 1.0)]:
        with pytest.raises(ValueError):
            ClusterScenario(**{**base, key: bad})
    with pytest.raises(ValueError):
        ClusterScenario(**{**base, "clusters": (Cluster(0, (500.0, 5.0), 2),)})


def test_radio_params_hold_the_range_checks():
    # the scenario inherits its scalars, defaults and checks from RadioParams
    names = [f.name for f in dataclasses.fields(ClusterScenario)]
    assert names == [f.name for f in dataclasses.fields(RadioParams)] + ["clusters", "fleet"]
    for field, bad in [("p_tx", -0.1), ("packet_bits", 0.0), ("total_rbs", 0),
                       ("pmax_w", 0.0), ("pathloss_exp", 1.9), ("ber_target", 0.0),
                       ("area_side", 0.0), ("slot_seconds", 0.0)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            RadioParams(**{field: bad})


def test_cluster_and_fleet_invariants():
    with pytest.raises(ValueError):
        Cluster(0, (1.0, 1.0), 0)
    with pytest.raises(ValueError):
        UavFleet(altitudes=())
    with pytest.raises(ValueError):
        UavFleet(altitudes=(400.0, -1.0))


def test_dwell_matrix_invariants():
    DwellMatrix(entries=np.array([[0.5, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        DwellMatrix(entries=np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        DwellMatrix(entries=np.array([[-0.2, 0.1]]))
    with pytest.raises(ValueError):
        DwellMatrix(entries=np.zeros(3))


def test_dwell_matrix_totals():
    d = DwellMatrix(entries=np.array([[0.5, 0.0], [0.25, 0.5]]))
    assert d.total_per_ch() == pytest.approx([0.75, 0.5])
    assert d.num_uavs == 2 and d.num_clusters == 2


def test_wavelength_uses_engineering_light_speed():
    scenario = generate_scenario(1, 1, 1, 1)
    assert scenario.wavelength_m == pytest.approx(0.15, rel=1e-12)
    assert model.C_LIGHT == 3.0e8
