"""Scenario documents: canonical text, round trip, error attribution, sweep points."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonkey.channel import EAVESDROPPER_POSITIONS, ChannelParams, PlatoonGeometry
from platoonkey.keygen import KeygenConfig
from platoonkey.protocol import CYCLE_FAILURES, ProtocolConfig
from platoonkey.quantizer import QuantizerConfig
from platoonkey.scenario import (
    SWEEP_AXES,
    ParseError,
    Scenario,
    parse_scenario,
    serialize_scenario,
)
from platoonkey.sweep import point_cycle

DEFAULT_TEXT = """\
channel_constant_db = 3.0
path_loss_exponent = 2.0
shadowing_sigma_db = 3.0
rss_decode_floor_db = -15.0
shadowing_common_fraction = 0.0
shadowing_autocorr = 0.0
reciprocity_sigma_db = 0.0
measurement_noise_db = 0.0
n_vehicles = 4
pair_distance_m = 2.0
eavesdropper_position = P1
eavesdropper_distance_m = 3.0
z_iterations = 1
beacon_bits = 8
beacon_loss_prob = 0.0
data_loss_prob = 0.0
dissemination_timeout_ms = 3000.0
slot_duration_ms = 1.0
retransmission_cap = 10
n_intervals = 2
grid_size = 64
codeword_bits = 0
slots = 200
sweep_axis = none
seeds = 0..99
"""


class TestSerialize:
    def test_default_document(self):
        assert serialize_scenario(Scenario()) == DEFAULT_TEXT

    def test_empty_document_is_default(self):
        assert parse_scenario("") == Scenario()
        assert parse_scenario("# only a comment\n\n   \n") == Scenario()

    def test_sweep_values_sit_between_axis_and_seeds(self):
        s = Scenario(
            keygen=KeygenConfig(codeword_bits=3),
            sweep_axis="eavesdropper",
            sweep_values=(("P1", 3.0), ("P3", 5.5)),
            seeds=(0, 1, 2, 7, 9, 10))
        tail = serialize_scenario(s).splitlines()[-5:]
        assert tail == [
            "codeword_bits = 3",
            "slots = 200",
            "sweep_axis = eavesdropper",
            "sweep_values = P1:3.0,P3:5.5",
            "seeds = 0..2,7,9..10",
        ]

    def test_partial_document_keeps_other_defaults(self):
        s = parse_scenario("n_vehicles = 6\ngrid_size = 32\ncodeword_bits = 3\n")
        d = Scenario()
        assert s == replace(
            d, geometry=replace(d.geometry, n_vehicles=6),
            quantizer=replace(d.quantizer, grid_size=32),
            keygen=replace(d.keygen, codeword_bits=3))


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw):
    channel = ChannelParams(
        channel_constant_db=draw(st.floats(**finite)),
        path_loss_exponent=draw(st.floats(min_value=1e-3, max_value=10.0)),
        shadowing_sigma_db=draw(st.floats(min_value=0.0, max_value=20.0)),
        rss_decode_floor_db=draw(st.floats(**finite)),
        shadowing_common_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        shadowing_autocorr=draw(st.floats(min_value=-0.99, max_value=0.99)),
        reciprocity_sigma_db=draw(st.floats(min_value=0.0, max_value=5.0)),
        measurement_noise_db=draw(st.floats(min_value=0.0, max_value=5.0)),
    )
    n = draw(st.integers(3, 40))
    geometry = PlatoonGeometry(
        n_vehicles=n,
        pair_distance_m=draw(st.floats(min_value=0.01, max_value=100.0)),
        eavesdropper_position=draw(st.sampled_from(
            [p for p in EAVESDROPPER_POSITIONS if n >= 4 or p != "P2"])),
        eavesdropper_distance_m=draw(st.floats(min_value=3.0, max_value=1e4)),
    )
    protocol = ProtocolConfig(
        z_iterations=draw(st.integers(1, 50)),
        beacon_bits=draw(st.integers(1, 10**4)),
        beacon_loss_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        data_loss_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        dissemination_timeout_ms=draw(st.floats(min_value=1e-3, max_value=1e6)),
        slot_duration_ms=draw(st.floats(min_value=1e-3, max_value=1e3)),
        retransmission_cap=draw(st.integers(0, 100)),
    )
    n_intervals = draw(st.integers(2, 64))
    quantizer = QuantizerConfig(
        n_intervals=n_intervals,
        grid_size=draw(st.integers(n_intervals, n_intervals + 300)))
    min_bits = math.ceil(math.log2(n_intervals))
    keygen = KeygenConfig(
        codeword_bits=draw(st.sampled_from([0]) | st.integers(min_bits, min_bits + 4)))
    axis = draw(st.sampled_from(SWEEP_AXES))
    if axis == "none":
        values = ()
    elif axis == "pair_distance":
        values = draw(st.lists(st.floats(**finite), min_size=1, max_size=5,
                               unique=True))
    elif axis == "eavesdropper":
        values = draw(st.lists(st.tuples(st.sampled_from(EAVESDROPPER_POSITIONS),
                                         st.floats(**finite)),
                               min_size=1, max_size=5, unique=True))
    elif axis == "shadowing_common_fraction":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5,
                               unique=True))
    elif axis == "shadowing_autocorr":
        values = draw(st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=5,
                               unique=True))
    else:
        values = draw(st.lists(st.integers(-5, 10**6), min_size=1, max_size=5,
                               unique=True))
    return Scenario(
        channel=channel, geometry=geometry, protocol=protocol,
        quantizer=quantizer, keygen=keygen,
        slots=draw(st.integers(1, 10**6)),
        sweep_axis=axis, sweep_values=tuple(values),
        seeds=tuple(draw(st.lists(st.integers(0, 300), min_size=1, max_size=30,
                                  unique=True))),
    )


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_round_trip(s):
    text = serialize_scenario(s)
    try:
        s.points()
    except ValueError as exc:
        # a document whose sweep points are invalid is refused at parse time
        with pytest.raises(ParseError) as info:
            parse_scenario(text)
        assert info.value.fieldname == "sweep_values"
        assert str(info.value).startswith(str(exc))
        return
    back = parse_scenario(text)
    assert back == s
    assert serialize_scenario(back) == text


@pytest.mark.parametrize("axis, values", [
    ("pair_distance", (np.float64(2.5), 3.0)),
    ("eavesdropper", (("P1", np.float64(4.5)),)),
    # an int axis writes 4.0 as 4: a document's int line refuses "4.0"
    ("n_vehicles", (4.0, np.float64(5.0))),
])
def test_numpy_floats_round_trip(axis, values):
    # repr writes a numpy float as "np.float64(2.5)", which no document parses
    s = Scenario(channel=ChannelParams(shadowing_sigma_db=np.float64(3.5)),
                 sweep_axis=axis, sweep_values=values, seeds=(0,))
    text = serialize_scenario(s)
    assert parse_scenario(text) == s
    assert "np." not in text


@st.composite
def cycle_points(draw):
    """A sweep point of ``scenarios()`` small enough to run: at most 64
    slots, 8 vehicles, 3 passes and 3 retries.  Half of the points move
    into physical ranges, where cycles also complete."""
    s = draw(scenarios())
    try:
        points = s.points()
    except ValueError:  # the parser refuses these sweep values; drop them
        points = [replace(s, sweep_axis="none", sweep_values=())]
    p = draw(st.sampled_from(points))
    channel, geometry, protocol = p.channel, p.geometry, p.protocol
    if draw(st.booleans()):
        channel = replace(
            channel,
            channel_constant_db=draw(st.floats(-10.0, 10.0)),
            path_loss_exponent=draw(st.floats(1.5, 4.0)),
            shadowing_sigma_db=draw(st.floats(1.0, 8.0)),
            rss_decode_floor_db=draw(st.floats(-40.0, 0.0)),
            shadowing_common_fraction=draw(st.floats(0.9, 1.0)),
            measurement_noise_db=draw(st.floats(0.0, 0.5)))
        geometry = replace(geometry, pair_distance_m=draw(st.floats(1.0, 20.0)))
        protocol = replace(protocol,
                           beacon_loss_prob=draw(st.floats(0.0, 0.1)),
                           data_loss_prob=draw(st.floats(0.0, 0.1)))
    return replace(
        p, channel=channel, slots=min(p.slots, 64),
        geometry=replace(geometry, n_vehicles=min(geometry.n_vehicles, 8)),
        protocol=replace(protocol, z_iterations=min(protocol.z_iterations, 3),
                         retransmission_cap=min(protocol.retransmission_cap, 3)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cycle_points())
# finite distinct passes that sum past the float range
@example(replace(Scenario(), channel=ChannelParams(
    channel_constant_db=1.7976931348623155e308, reciprocity_sigma_db=0.5), slots=64,
    protocol=ProtocolConfig(z_iterations=3)))
# vehicle 2 reads above the fitted top in the one fitted slot, which stays in the key
@example(replace(Scenario(), channel=ChannelParams(reciprocity_sigma_db=20.0),
                 slots=5))
def test_every_accepted_point_runs_or_fails_for_a_modeled_reason(point):
    try:
        point_cycle(point, point.seeds[0])
    except CYCLE_FAILURES:
        pass
    except ValueError as exc:
        # a rejected configuration: the noise scale leaves the float range
        assert str(exc).startswith("measurement_noise_db")
        assert str(exc).endswith("noise scale overflows")


SWEEP_AXES_MESSAGE = (
    "sweep_axis must be one of ('none', 'pair_distance', 'n_intervals', "
    "'z_iterations', 'n_vehicles', 'shadowing_common_fraction', "
    "'shadowing_autocorr', 'eavesdropper')")


@pytest.mark.parametrize("text, line, fieldname, message", [
    ("slots = 5\nbogus line", 2, None,
     "expected 'key = value', got 'bogus line'"),
    ("slots = 5\nfoo = 1", 2, "foo", "unknown key 'foo'"),
    ("slots = 5\n\nslots = 6", 3, "slots", "duplicate key 'slots'"),
    ("# c\nslots = five", 2, "slots",
     "invalid literal for int() with base 10: 'five'"),
    ("pair_distance_m = far", 1, "pair_distance_m",
     "could not convert string to float: 'far'"),
    ("tx_power_dbm = 0", 1, "tx_power_dbm", "unknown key 'tx_power_dbm'"),
    ("channel_constant_db = nan", 1, "channel_constant_db", "must be finite"),
    ("\nchannel_constant_db = -inf", 2, "channel_constant_db", "must be finite"),
    # keys are the direct Gray code: the codeword-map keys are unknown
    ("append_complement = maybe", 1, "append_complement",
     "unknown key 'append_complement'"),
    ("map_mode = grouped", 1, "map_mode", "unknown key 'map_mode'"),
    # a hop decodes only with the leader's whole key: no command length
    ("data_payload_bits = 800", 1, "data_payload_bits",
     "unknown key 'data_payload_bits'"),
    ("slots = 5\nappend_complement = true", 2, "append_complement",
     "unknown key 'append_complement'"),
    ("seeds = 1,x", 1, "seeds", "invalid literal for int() with base 10: 'x'"),
    ("seeds = 3..b", 1, "seeds", "invalid literal for int() with base 10: 'b'"),
    ("slots = 5\nsweep_axis = speed", 2, "sweep_axis", SWEEP_AXES_MESSAGE),
    ("sweep_axis = eavesdropper\nsweep_values = P1:3,P9:4", 2, "sweep_values",
     "expected TAG:distance, got 'P9:4'"),
    ("sweep_axis = eavesdropper\nsweep_values = P1", 2, "sweep_values",
     "expected TAG:distance, got 'P1'"),
    ("sweep_axis = eavesdropper\nsweep_values = P1:far", 2, "sweep_values",
     "could not convert string to float: 'far'"),
    ("sweep_axis = n_intervals\nsweep_values = 2,3.5", 2, "sweep_values",
     "invalid literal for int() with base 10: '3.5'"),
    ("sweep_values = 2,x\nsweep_axis = pair_distance", 1, "sweep_values",
     "could not convert string to float: 'x'"),
    # values without an axis would run one point and be ignored
    ("slots = 5\nsweep_values = 1,2", 2, "sweep_values",
     "sweep_values need a sweep_axis"),
    # every sweep point is built at parse time
    ("sweep_axis = pair_distance\nsweep_values = nan", 2, "sweep_values",
     "must be finite"),
    ("sweep_axis = pair_distance\nsweep_values = 1,inf", 2, "sweep_values",
     "must be finite"),
    ("sweep_axis = eavesdropper\nsweep_values = P1:3,P3:-inf", 2, "sweep_values",
     "must be finite"),
    ("sweep_axis = n_vehicles\nsweep_values = 2,4", 2, "sweep_values",
     "n_vehicles must be >= 3"),
    ("sweep_values = 1,-1\nsweep_axis = pair_distance", 1, "sweep_values",
     "pair_distance_m must be > 0"),
    ("sweep_axis = eavesdropper\nsweep_values = P1:3,P2:4\nn_vehicles = 3", 2,
     "sweep_values", "position P2 requires at least 4 vehicles"),
    ("sweep_axis = eavesdropper\nsweep_values = P1:2", 2, "sweep_values",
     "eavesdropper closer than 3 m would be identified"),
    ("sweep_axis = n_intervals\nsweep_values = 2,100", 2, "sweep_values",
     "grid_size must be >= n_intervals"),
    # wider codewords only pad always-zero bits, so codeword_bits is no axis
    ("n_intervals = 4\nsweep_axis = codeword_bits\nsweep_values = 0,1", 2,
     "sweep_axis", SWEEP_AXES_MESSAGE),
    ("sweep_axis = z_iterations\nsweep_values = 0", 2, "sweep_values",
     "z_iterations must be >= 1"),
    ("sweep_axis = shadowing_common_fraction\nsweep_values = 0,1.5", 2,
     "sweep_values", "shadowing_common_fraction must be in [0, 1]"),
    ("sweep_values = 0.5,1\nsweep_axis = shadowing_autocorr", 1, "sweep_values",
     "shadowing_autocorr must be in (-1, 1)"),
    # a cycle is named by its seed: a repeat is another seed, not a count
    ("slots = 5\nreplications = 2", 2, "replications",
     "unknown key 'replications'"),
    # a repeated sweep value would run the same point twice
    ("sweep_axis = z_iterations\nsweep_values = 2,2", 2, "sweep_values",
     "sweep value 2 repeats 2"),
    ("sweep_axis = n_vehicles\nsweep_values = 4,5,04", 2, "sweep_values",
     "sweep value 04 repeats 4"),
    ("sweep_axis = pair_distance\nsweep_values = 2, 3, 2.0", 2, "sweep_values",
     "sweep value 2.0 repeats 2"),
    ("sweep_values = 1e0,1\nsweep_axis = pair_distance", 1, "sweep_values",
     "sweep value 1 repeats 1e0"),
    ("sweep_axis = eavesdropper\nsweep_values = P1:3,P3:3,P1:3.0", 2,
     "sweep_values", "sweep value P1:3.0 repeats P1:3"),
    ("seeds = -2..0", 1, "seeds", "seeds must be non-negative, got -2"),
    ("slots = 5\nseeds = 3,-1", 2, "seeds", "seeds must be non-negative, got -1"),
    ("seeds = 0..2,1", 1, "seeds", "seed 1 is listed more than once"),
    ("slots = 5\nseeds = 5..2", 2, "seeds", "seed range 5..2 is descending"),
    ("seeds = ", 1, "seeds", "at least one seed is required"),
    ("slots = 5\nseeds = ,", 2, "seeds", "at least one seed is required"),
])
def test_parse_error_attribution(text, line, fieldname, message):
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    err = info.value
    assert (err.line, err.fieldname) == (line, fieldname)
    where = f"line {line}" + (f", field '{fieldname}'" if fieldname else "")
    assert str(err) == f"{message} ({where})"


@pytest.mark.parametrize("text, line, fieldname", [
    # every line's syntax is checked before any value is converted
    ("slots = five\nn_vehicles = 4\nslots = 6", 3, "slots"),
    ("slots = five\nn_vehicles = 4\nbogus = 1", 3, "bogus"),
    ("slots = five\nno equals sign", 2, None),
    # values are converted in line order, before the sweep axis is checked
    ("slots = 5\nchannel_constant_db = nan\nslots_x", 3, None),
    ("grid_size = x\nchannel_constant_db = nan", 1, "grid_size"),
    ("sweep_axis = speed\nslots = five", 2, "slots"),
    ("sweep_values = x\nsweep_axis = speed", 2, "sweep_axis"),
])
def test_error_order(text, line, fieldname):
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.fieldname) == (line, fieldname)


@pytest.mark.parametrize("text, message", [
    ("codeword_bits = 2\nn_intervals = 8",
     "codeword_bits 2 too small for 8 intervals"),
    ("n_vehicles = 2", "n_vehicles must be >= 3"),
    ("eavesdropper_position = P2\nn_vehicles = 3",
     "position P2 requires at least 4 vehicles"),
    ("grid_size = 1", "grid_size must be >= n_intervals"),
    ("sweep_axis = z_iterations", "sweep_values required when sweep_axis is set"),
    ("slots = 0", "slots must be >= 1"),
])
def test_semantic_errors_carry_no_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.fieldname) == (None, None)
    assert str(info.value) == message


@pytest.mark.parametrize("changes, message", [
    (dict(sweep_axis="z_iterations", sweep_values=(2, 2)), "sweep value 2 repeats 2"),
    (dict(sweep_axis="eavesdropper", sweep_values=(("P1", 3.0), ("P3", 3.0), ("P1", 3))),
     "sweep value ('P1', 3) repeats ('P1', 3.0)"),
    (dict(seeds=(4, 1, 1)), "seed 1 is listed more than once"),
    (dict(seeds=(1, 1, -3)), "seeds must be non-negative, got -3"),
    (dict(sweep_values=(1.0, 2.0)), "sweep_values need a sweep_axis"),
    # at_point's int cast would run both points at N=4
    (dict(sweep_axis="n_vehicles", sweep_values=(4.5, 4.7)),
     "sweep value 4.5 is not an integer"),
])
def test_scenario_built_in_code_keeps_the_document_rules(changes, message):
    # the parser's repeat, seed and axis rules hold without a document, too
    with pytest.raises(ValueError) as info:
        Scenario(**changes)
    assert str(info.value) == message


@pytest.mark.parametrize("axis, values, section, name, expected", [
    ("pair_distance", "1.5,3", "geometry", "pair_distance_m", (1.5, 3.0)),
    ("n_intervals", "2,4", "quantizer", "n_intervals", (2, 4)),
    ("z_iterations", "1,10", "protocol", "z_iterations", (1, 10)),
    ("n_vehicles", "3,12", "geometry", "n_vehicles", (3, 12)),
    ("shadowing_common_fraction", "0,0.999", "channel",
     "shadowing_common_fraction", (0.0, 0.999)),
    ("shadowing_autocorr", "-0.5,0.9", "channel", "shadowing_autocorr", (-0.5, 0.9)),
])
def test_points_on_each_numeric_axis(axis, values, section, name, expected):
    s = parse_scenario(f"sweep_axis = {axis}\nsweep_values = {values}\nslots = 50")
    points = s.points()
    base = replace(s, sweep_axis="none", sweep_values=())
    assert len(points) == len(expected)
    for point, value in zip(points, expected):
        got = getattr(getattr(point, section), name)
        assert got == value and type(got) is type(value)
        assert point == replace(base, **{section: replace(
            getattr(base, section), **{name: value})})
        assert point.points() == [point]


def test_points_on_eavesdropper_axis():
    s = parse_scenario("sweep_axis = eavesdropper\nsweep_values = P2:3,P3:7.5\n"
                       "n_vehicles = 5")
    points = s.points()
    assert [(p.geometry.eavesdropper_position, p.geometry.eavesdropper_distance_m)
            for p in points] == [("P2", 3.0), ("P3", 7.5)]
    assert all(p.sweep_axis == "none" and p.sweep_values == () for p in points)
    assert all(p.geometry.n_vehicles == 5 for p in points)


def test_at_point_casts_by_axis_type():
    s = Scenario(sweep_axis="n_vehicles", sweep_values=(5,))
    assert s.at_point(6.0).geometry.n_vehicles == 6
    assert type(s.at_point(6.0).geometry.n_vehicles) is int
    d = replace(s, sweep_axis="pair_distance", sweep_values=(1.0,))
    assert type(d.at_point(3).geometry.pair_distance_m) is float


def test_points_without_axis_is_self():
    s = Scenario()
    assert s.points() == [s]


# each field the parser reads as a float and a config guards with a
# comparison, mapped to its config; NaN fails every comparison, so a guard
# must be written to fail on it
NAN_GUARDED = {
    "pair_distance_m": PlatoonGeometry,
    "eavesdropper_distance_m": PlatoonGeometry,
    "shadowing_sigma_db": ChannelParams,
    "reciprocity_sigma_db": ChannelParams,
    "measurement_noise_db": ChannelParams,
    "channel_constant_db": ChannelParams,
    "dissemination_timeout_ms": ProtocolConfig,
    "slot_duration_ms": ProtocolConfig,
}


@pytest.mark.parametrize("field", NAN_GUARDED)
def test_configs_built_in_code_reject_nan(field):
    config = NAN_GUARDED[field]
    required = (dict(n_vehicles=4, pair_distance_m=2.0)
                if config is PlatoonGeometry else {})
    with pytest.raises(ValueError):
        config(**{**required, field: math.nan})
