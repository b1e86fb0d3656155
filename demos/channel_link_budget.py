"""Walkthrough: from room geometry to a per-link SNR and rate.

Builds the bundled reference room (one light source, a half-reflective
panel element, one user), evaluates the NLoS DC gain, and shows how the
gain responds to the knobs that matter: reflectiveness, areas, distances
and angles.
"""
import math

from omnidris import (
    SystemParams,
    channel_dc_gain,
    rate_single_link,
    reduce_params,
    reference_room_geometry,
    snr_single_link,
)
from dataclasses import replace

print("=" * 70)
print("1. Reference link geometry")
print("=" * 70)
geom = reference_room_geometry()
print(f"  hops: {geom.dist_ls_ris_m} m (LS->element), {geom.dist_ris_user_m} m (element->user)")
print(f"  angles: {geom.irradiance_angle_ls_ris_deg}/{geom.irradiance_angle_ris_user_deg} deg irradiance, "
      f"{geom.incidence_angle_ris_deg}/{geom.incidence_angle_user_deg} deg incidence")
gain = channel_dc_gain(geom)
print(f"  DC gain: {gain:.6e}")

print()
print("=" * 70)
print("2. Scaling behavior")
print("=" * 70)
double_eta = replace(geom, ris_reflectiveness=2 * geom.ris_reflectiveness)
print(f"  doubling reflectiveness:   gain x {channel_dc_gain(double_eta) / gain:.3f}")
double_d = replace(geom, dist_ris_user_m=2 * geom.dist_ris_user_m)
print(f"  doubling user distance:    gain x {channel_dc_gain(double_d) / gain:.3f}  (inverse square)")
edge_on = replace(geom, incidence_angle_user_deg=90.0)
print(f"  user at 90 deg incidence:  gain = {channel_dc_gain(edge_on)}  (exactly dark)")

print()
print("=" * 70)
print("3. SNR and rate for one of 128 elements")
print("=" * 70)
params = SystemParams(
    bandwidth_hz=1e6,
    transmit_power_w=10.0,
    num_light_sources=1,
    num_users=1,
    oe_conversion=0.5,
    noise_psd=2.0,
)
snr = snr_single_link(params, gain, 128)
rate = rate_single_link(params, snr)
red = reduce_params(params, gain)
print(f"  per-link SNR at N = 128:  {snr:.6e}")
print(f"  per-link rate:            {rate:.6e} bit/s")
print(f"  reduced parameters:       alpha = {red.alpha:.3e}, psi = {red.psi:g}, xi = {red.xi:g}")
print("  (the tiny geometric alpha is why the bundled sweep presets carry a")
print("   documented alpha calibration; see README)")
