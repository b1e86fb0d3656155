import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnidris.channel import LinkGeometry, channel_dc_gain, reference_room_geometry
from helpers import REFERENCE_GAIN


def geometry(**overrides) -> LinkGeometry:
    base = dict(
        lambertian_order=1.0,
        ris_reflectiveness=0.5,
        ris_element_area_m2=0.04,
        photodetector_area_m2=4e-4,
        dist_ls_ris_m=1.52,
        dist_ris_user_m=2.03,
        irradiance_angle_ls_ris_deg=45.0,
        irradiance_angle_ris_user_deg=10.0,
        incidence_angle_ris_deg=17.95,
        incidence_angle_user_deg=29.58,
    )
    base.update(overrides)
    return LinkGeometry(**base)


def test_reference_gain():
    gain = channel_dc_gain(reference_room_geometry())
    assert gain == pytest.approx(REFERENCE_GAIN, rel=1e-12)
    # coarse published figure
    assert gain == pytest.approx(1.54e-7, rel=1e-3)


def test_reference_geometry_equals_explicit_construction():
    assert reference_room_geometry() == geometry()


def test_hand_recomputation():
    # independent arithmetic, term by term
    prefactor = 0.5 * 0.04 * 4e-4 * 2.0 / (2.0 * math.pi * 1.52**2 * 2.03**2)
    cosines = (
        math.cos(math.radians(45.0))
        * math.cos(math.radians(10.0))
        * math.cos(math.radians(17.95))
        * math.cos(math.radians(29.58))
    )
    assert channel_dc_gain(geometry()) == pytest.approx(prefactor * cosines, rel=1e-14)


@pytest.mark.parametrize(
    "field",
    [
        "irradiance_angle_ls_ris_deg",
        "irradiance_angle_ris_user_deg",
        "incidence_angle_ris_deg",
        "incidence_angle_user_deg",
    ],
)
def test_right_angle_gives_exact_zero(field):
    assert channel_dc_gain(geometry(**{field: 90.0})) == 0.0


@pytest.mark.parametrize(
    "zero",
    [
        {"ris_reflectiveness": 0.0},
        {"irradiance_angle_ris_user_deg": 90.0},
        {"concentrator_gain": 0.0},
        {"filter_gain": 0.0},
    ],
)
def test_a_zero_factor_gives_zero_even_where_the_hops_overflow(zero):
    # 1e-200 m squares to 0, so 1 / (2 pi d^2 d^2) alone is beyond the float range
    assert channel_dc_gain(geometry(dist_ris_user_m=1e-200, **zero)) == 0.0
    with pytest.raises(ValueError, match="overflowed"):
        channel_dc_gain(geometry(dist_ris_user_m=1e-200))


def test_linearity_in_reflectiveness():
    low = channel_dc_gain(geometry(ris_reflectiveness=0.25))
    high = channel_dc_gain(geometry(ris_reflectiveness=0.5))
    assert high == 2.0 * low


@given(scale=st.floats(min_value=0.1, max_value=8.0))
@settings(derandomize=True, max_examples=50)
def test_homogeneity_in_areas_and_optical_gains(scale):
    base = channel_dc_gain(geometry())
    scaled_area = channel_dc_gain(geometry(ris_element_area_m2=0.04 * scale))
    assert scaled_area == pytest.approx(scale * base, rel=1e-12)
    scaled_pd = channel_dc_gain(geometry(photodetector_area_m2=4e-4 * scale))
    assert scaled_pd == pytest.approx(scale * base, rel=1e-12)
    scaled_optics = channel_dc_gain(geometry(concentrator_gain=scale, filter_gain=scale))
    assert scaled_optics == pytest.approx(scale * scale * base, rel=1e-12)


@pytest.mark.parametrize("factor", [0.5, 2.0, 3.7])
def test_inverse_square_in_each_distance(factor):
    base = channel_dc_gain(geometry())
    first = channel_dc_gain(geometry(dist_ls_ris_m=1.52 * factor))
    second = channel_dc_gain(geometry(dist_ris_user_m=2.03 * factor))
    assert first == pytest.approx(base / factor**2, rel=1e-12)
    assert second == pytest.approx(base / factor**2, rel=1e-12)


def test_zeroth_lambertian_order_ignores_first_hop_angle():
    a = channel_dc_gain(geometry(lambertian_order=0.0, irradiance_angle_ls_ris_deg=10.0))
    b = channel_dc_gain(geometry(lambertian_order=0.0, irradiance_angle_ls_ris_deg=75.0))
    assert a == b
    # even at the 90-degree edge, cos^0 must read as 1
    c = channel_dc_gain(geometry(lambertian_order=0.0, irradiance_angle_ls_ris_deg=90.0))
    assert c == a


def test_non_integer_lambertian_order():
    gain = channel_dc_gain(geometry(lambertian_order=1.5))
    # relative to r=1: prefactor scales by (1.5+1)/2, cosine term by cos(45)^0.5
    expected = (
        channel_dc_gain(geometry()) * (2.5 / 2.0) * math.cos(math.radians(45.0)) ** 0.5
    )
    assert gain == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [
        {"dist_ls_ris_m": 0.0},
        {"dist_ris_user_m": -1.0},
        {"ris_reflectiveness": 1.5},
        {"ris_reflectiveness": -0.1},
        {"irradiance_angle_ls_ris_deg": 90.5},
        {"incidence_angle_user_deg": -1.0},
        {"ris_element_area_m2": 0.0},
        {"photodetector_area_m2": -4e-4},
        {"lambertian_order": -0.5},
        {"concentrator_gain": -1.0},
        {"dist_ris_user_m": math.nan},
        {"dist_ls_ris_m": math.inf},
        {"ris_element_area_m2": math.inf},
        {"photodetector_area_m2": math.nan},
        {"lambertian_order": math.inf},
        {"lambertian_order": math.nan},
        {"concentrator_gain": math.nan},
        {"filter_gain": math.inf},
        {"filter_gain": -math.inf},
    ],
)
def test_invalid_geometry_is_rejected(overrides):
    with pytest.raises(ValueError):
        geometry(**overrides)
