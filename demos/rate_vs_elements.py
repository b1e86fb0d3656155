"""Walkthrough: rate-vs-element-count curve families as CSV.

Regenerates the two published curve families with the documented alpha
calibration (fully active peak pinned at N = 180 for noise PSD 2 W/Hz):

* top family: noise PSD 2 W/Hz, active share zeta in {N, 3N/4, N/2};
* bottom family: zeta = N/2, noise PSD in {3, 5, 8} W/Hz.

Writes one CSV per curve next to this script (columns
n,theta,zeta,rate_bps,pow2,selected) and prints each curve's continuous
peak and selected power of two.  Plotting is intentionally out of scope;
the CSVs are the boundary.
"""
from pathlib import Path

from omnidris import get_preset, run_sweep, sweep_to_csv

OUT_DIR = Path(__file__).resolve().parent / "out"
OUT_DIR.mkdir(exist_ok=True)

FAMILIES = {
    "top (noise PSD 2, varying active share)": [
        "fig2-top",
        "fig2-top-zeta-3n4",
        "fig2-top-zeta-n2",
    ],
    "bottom (zeta = N/2, varying noise PSD)": ["table1", "table1-psd5", "table1-psd8"],
}

for family, names in FAMILIES.items():
    print(f"curve family: {family}")
    for name in names:
        scenario = get_preset(name)
        rows = run_sweep(scenario)
        path = OUT_DIR / f"{name}.csv"
        path.write_text(sweep_to_csv(rows), encoding="utf-8")
        peak = max(rows, key=lambda row: row.rate_bps)
        selected = next(row for row in rows if row.selected)
        print(
            f"  {name:22s} peak {peak.rate_bps / 1e6:8.3f} Mbps at N = {peak.n:5.0f}, "
            f"selected 2^k: N = {selected.n:5.0f} ({selected.rate_bps / 1e6:8.3f} Mbps) "
            f"-> {path.name}"
        )
    print()

print("Exact active-fraction ratios on the top family (every N, not just the peak):")
full = run_sweep(get_preset("fig2-top"))
three_quarters = run_sweep(get_preset("fig2-top-zeta-3n4"))
half = run_sweep(get_preset("fig2-top-zeta-n2"))
for index in (63, 179, 255):
    n = full[index].n
    r34 = three_quarters[index].rate_bps / full[index].rate_bps
    r12 = half[index].rate_bps / full[index].rate_bps
    print(f"  N = {n:5.0f}: 3N/4 ratio {r34:.15f}, N/2 ratio {r12:.15f}")

print()
print("Absolute Mbps here rest on the documented alpha calibration; what the")
print("model pins down scale-free is *where* the peak sits and *which* power")
print("of two wins (see README, 'Calibration note').")
