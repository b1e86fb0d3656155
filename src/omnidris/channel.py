"""NLoS channel model for light-source -> panel-element -> user links.

Each link is a double Lambertian hop: a light source illuminates one
reflecting/refracting panel element, which re-radiates toward a user's
photodetector.  The DC gain of such a link is a pure geometry/optics
product; no wall reflections or LoS paths enter the model.

All angles cross this module's interfaces in degrees and are converted to
radians in exactly one place (:func:`channel_dc_gain`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .rate import _INF, _finite, _number

__all__ = ["LinkGeometry", "channel_dc_gain", "reference_room_geometry"]


def _cos_deg(angle_deg: float) -> float:
    # cos(radians(90)) leaves ~6e-17; the gain is defined as exactly 0 there
    return 0.0 if angle_deg == 90.0 else math.cos(math.radians(angle_deg))


@dataclass(frozen=True)
class LinkGeometry:
    """Geometric and optical quantities of a single LS -> element -> user link.

    Angles are degrees in [0, 90], distances are meters, areas are square
    meters.  ``concentrator_gain`` and ``filter_gain`` are the receiver-side
    optical concentration and filter gains, supplied by the caller as plain
    constants (no concentrator geometry is modeled here).
    """

    lambertian_order: float
    ris_reflectiveness: float
    ris_element_area_m2: float
    photodetector_area_m2: float
    dist_ls_ris_m: float
    dist_ris_user_m: float
    irradiance_angle_ls_ris_deg: float
    irradiance_angle_ris_user_deg: float
    incidence_angle_ris_deg: float
    incidence_angle_user_deg: float
    concentrator_gain: float = 1.0
    filter_gain: float = 1.0

    def __post_init__(self) -> None:
        for field in ("lambertian_order", "concentrator_gain", "filter_gain"):
            _number(getattr(self, field), field, 0, _INF, "[)")
        _number(self.ris_reflectiveness, "ris_reflectiveness", 0, 1, "[]")
        for field in ("ris_element_area_m2", "photodetector_area_m2", "dist_ls_ris_m",
                      "dist_ris_user_m"):
            _number(getattr(self, field), field)
        for field in ("irradiance_angle_ls_ris_deg", "irradiance_angle_ris_user_deg",
                      "incidence_angle_ris_deg", "incidence_angle_user_deg"):
            _number(getattr(self, field), field, 0, 90, "[]")


def channel_dc_gain(geom: LinkGeometry) -> float:
    """DC gain of one LS -> element -> user link.

    Computes::

        eta * A_elem * A_pd * (r + 1)
        ----------------------------- * cos^r(th_le) cos(ph_eu) cos(th_e) cos(ph_u) * T * g
              2 pi d_le^2 d_eu^2

    where ``th_le``/``ph_eu`` are the irradiance angles of the two hops,
    ``th_e``/``ph_u`` the incidence angles at the element and the user, and
    ``T``/``g`` the concentrator and filter gains.  The gain is linear in
    the reflectiveness, both areas and both optical gains, and follows an
    inverse-square law in each hop distance.  A zero factor gives a gain of
    exactly 0; any other gain beyond the float range (a hop distance whose
    square underflows) raises ``ValueError``.
    """
    d_le, d_eu = geom.dist_ls_ris_m, geom.dist_ris_user_m
    hops = 2.0 * math.pi * (d_le * d_le) * (d_eu * d_eu)  # products: ** 2 raises on overflow
    numerator = (
        geom.ris_reflectiveness
        * geom.ris_element_area_m2
        * geom.photodetector_area_m2
        * (geom.lambertian_order + 1.0)
    )
    # 0**0 == 1, so a zeroth Lambertian order ignores the first hop angle
    cosines = (
        _cos_deg(geom.irradiance_angle_ls_ris_deg) ** geom.lambertian_order
        * _cos_deg(geom.irradiance_angle_ris_user_deg)
        * _cos_deg(geom.incidence_angle_ris_deg)
        * _cos_deg(geom.incidence_angle_user_deg)
    )
    if 0.0 in (numerator, cosines, geom.concentrator_gain, geom.filter_gain):
        return 0.0  # even where the inverse-square factor alone would overflow
    prefactor = numerator / hops if hops else math.inf
    gain = prefactor * cosines * geom.concentrator_gain * geom.filter_gain
    return _finite(gain, "the channel gain")


def reference_room_geometry() -> LinkGeometry:
    """Bundled reference link geometry used by the calibrated presets.

    First-order Lambertian source, half-reflective 0.04 m^2 elements,
    4 cm^2 photodetector, 1.52 m / 2.03 m hops, unity concentrator and
    filter gains.
    """
    return LinkGeometry(
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
        concentrator_gain=1.0,
        filter_gain=1.0,
    )
