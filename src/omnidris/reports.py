"""Reproduction reports for the published reference tables.

Every row of both tables is the ``optimize`` report of a bundled preset,
so ``omnidris tables`` and ``omnidris optimize --scenario NAME`` agree bit
for bit:

* the *normalized scenario table*: for the presets ``C0``..``C6``, the
  element count and rate measured on the exact curve versus the ones
  calculated from the stationarity cubic (rates on the calculated side
  follow the two-term-series convention of the source);
* the *selection table*: which power-of-two panel gets picked around the
  continuous optimum for the three active-fraction presets ``fig2-top*``
  and the three noise presets ``table1*``.

Absolute published rates of the selection table are display-only; see
:data:`CALIBRATION_NOTE`.
"""
from __future__ import annotations

from typing import NamedTuple

from .optimize import optimize
from .rate import ReducedParams
from .scenario import get_preset

__all__ = [
    "CALIBRATION_NOTE",
    "PUBLISHED_NORMALIZED_TABLE",
    "PUBLISHED_SELECTION_TABLE",
    "NormalizedRow",
    "NormalizedTableReport",
    "SelectionRow",
    "SelectionTableReport",
    "reproduce_table2",
    "reproduce_table1",
]

CALIBRATION_NOTE = (
    "Absolute rates of the published curves and selection table are not "
    "derivable from the published parameter list: the geometric link budget "
    "yields alpha ~ 2.6e-13 while a rate peak at N = 180 requires "
    "alpha ~ 1.27e5, and the published peak magnitudes additionally match a "
    "rate prefactor of W*L*M instead of W*L*M/2. Calibrated presets therefore "
    "pin alpha so that the fully active family peaks at N = 180 for noise "
    "PSD 2 W/Hz, and only selection patterns and exact active-fraction "
    "ratios are asserted, never absolute Mbps. Inverted under the W*L*M "
    "prefactor, the published selection-table rates imply an alpha within "
    "0.7% of the calibrated one for the three PSD 2 rows and the PSD 8 row; "
    "the PSD 5 row implies 1.249 times it (about 5/4: its Mbps are those "
    "PSD 4 gives), and the PSD 3 row 1.185 times, unexplained."
)

#: Published normalized-table values: measured (grid) vs calculated (cubic).
#: The C5 calculated N is flagged anomalous: it replicates the C3 root even
#: though the published C5 calculated rate (0.9632 = 3 x 0.3211) is
#: consistent with the C0 root, and the rate scale factor xi cannot move a
#: stationary point.  Scale invariance is property-checked instead.
PUBLISHED_NORMALIZED_TABLE: dict[str, dict[str, float]] = {
    "C0": {"meas_n": 2.2000, "calc_n": 2.2728, "meas_f": 0.3252, "calc_f": 0.3211},
    "C1": {"meas_n": 10.000, "calc_n": 10.0502, "meas_f": 0.3588, "calc_f": 0.3589},
    "C2": {"meas_n": 20.0008, "calc_n": 20.0250, "meas_f": 0.3602, "calc_f": 0.3602},
    "C3": {"meas_n": 2.5000, "calc_n": 2.8406, "meas_f": 0.8484, "calc_f": 0.8037},
    "C4": {"meas_n": 6.1000, "calc_n": 6.0845, "meas_f": 0.1186, "calc_f": 0.1186},
    "C5": {"meas_n": 2.2000, "calc_n": 2.8406, "meas_f": 0.9755, "calc_f": 0.9632},
    "C6": {"meas_n": 2.1000, "calc_n": 2.0865, "meas_f": 0.1156, "calc_f": 0.1154},
}

ANOMALOUS_CALC_N = frozenset({"C5"})

#: Published selection-table rows by preset: (label, selected N, selected rate in Mbps).
PUBLISHED_SELECTION_TABLE: dict[str, tuple[str, int, float]] = {
    "fig2-top": ("zeta = N", 128, 399.59),
    "fig2-top-zeta-3n4": ("zeta = 3N/4", 128, 299.69),
    "fig2-top-zeta-n2": ("zeta = N/2", 128, 199.80),
    "table1": ("noise PSD = 3", 128, 181.34),
    "table1-psd5": ("noise PSD = 5", 128, 146.27),
    "table1-psd8": ("noise PSD = 8", 64, 99.94),
}

MEASURED_N_ABS_TOL = 0.05
RATE_REL_TOL = 1e-3


def _rel_close(value: float, target: float, tol: float = RATE_REL_TOL) -> bool:
    return abs(value - target) <= tol * abs(target)


class NormalizedRow(NamedTuple):
    scenario: str
    meas_n: float
    meas_f: float
    calc_n: float
    calc_f: float
    published_meas_n: float
    published_meas_f: float
    published_calc_n: float
    published_calc_f: float
    meas_n_ok: bool
    meas_f_ok: bool
    calc_n_status: str  # "pass" | "fail" | "anomaly"
    calc_f_ok: bool
    note: str = ""


class NormalizedTableReport(NamedTuple):
    rows: tuple[NormalizedRow, ...]
    scale_invariance_ok: bool
    all_ok: bool  # scale invariance and every row's checks ("anomaly" counts as a pass)


def reproduce_table2() -> NormalizedTableReport:
    """Run the presets C0..C6 and compare against the published normalized table.

    Each row is the preset's ``optimize`` report: the measured columns are
    the exact-rate optimum (the root of the exact stationarity); the
    calculated columns come from the cubic path, with the rate evaluated
    via the two-term series (the published convention).  Scale invariance
    holds when C5's cubic root is the same for xi = 1, 3 and 10.
    """
    rows = []
    for name, published in PUBLISHED_NORMALIZED_TABLE.items():
        preset = get_preset(name)
        report = optimize(preset.reduced_params(), preset.absorbing)

        if name in ANOMALOUS_CALC_N:
            calc_n_status = "anomaly"
            note = (
                "published calculated N replicates the C3 root; the rate scale "
                "factor cannot move the stationary point, so scale invariance "
                "is asserted instead"
            )
        else:
            calc_n_status = (
                "pass" if _rel_close(report.n_star_cubic, published["calc_n"]) else "fail"
            )
            note = ""

        rows.append(
            NormalizedRow(
                scenario=name,
                meas_n=report.n_star_exact,
                meas_f=report.f_at_exact,
                calc_n=report.n_star_cubic,
                calc_f=report.f_at_cubic,
                published_meas_n=published["meas_n"],
                published_meas_f=published["meas_f"],
                published_calc_n=published["calc_n"],
                published_calc_f=published["calc_f"],
                meas_n_ok=abs(report.n_star_exact - published["meas_n"]) <= MEASURED_N_ABS_TOL,
                meas_f_ok=_rel_close(report.f_at_exact, published["meas_f"]),
                calc_n_status=calc_n_status,
                calc_f_ok=_rel_close(report.f_at_cubic, published["calc_f"]),
                note=note,
            )
        )

    c5 = get_preset("C5")
    red = c5.reduced_params()
    scaled = (ReducedParams(red.alpha, red.psi, xi) for xi in (1.0, 3.0, 10.0))
    scale_invariance_ok = len({optimize(r, c5.absorbing).n_star_cubic for r in scaled}) == 1
    all_ok = scale_invariance_ok and all(
        row.meas_n_ok and row.meas_f_ok and row.calc_f_ok and row.calc_n_status != "fail"
        for row in rows
    )
    return NormalizedTableReport(tuple(rows), scale_invariance_ok, all_ok)


class SelectionRow(NamedTuple):
    label: str
    active_fraction: float
    noise_psd: float
    alpha: float
    n_star: float
    pow2_lower: int
    pow2_upper: int
    rate_lower_bps: float
    rate_upper_bps: float
    rate_at_n_star_bps: float
    selected_n: int
    selected_rate_bps: float
    active_at_selected: int
    absorbing_at_selected: int
    published_selected_n: int
    published_selected_rate_mbps: float
    pattern_ok: bool


class SelectionTableReport(NamedTuple):
    rows: tuple[SelectionRow, ...]
    ratio_3n4: float
    ratio_n2: float
    ratios_ok: bool
    all_ok: bool  # the ratios and every row's pattern
    note: str


def reproduce_table1() -> SelectionTableReport:
    """Run the six selection-table presets and check the selection pattern.

    Each row is the preset's ``optimize`` report; ``alpha`` comes from the
    preset's reduced parameters and ``noise_psd`` from its system, the
    calibrated reference room (see :data:`CALIBRATION_NOTE`).  Selection
    patterns and the exact active-fraction rate ratios are asserted;
    absolute published Mbps figures are display-only.
    """
    rows = []
    for name, (label, published_n, published_mbps) in PUBLISHED_SELECTION_TABLE.items():
        preset = get_preset(name)
        red = preset.reduced_params()
        report = optimize(red, preset.absorbing)
        absorbing = round((1.0 - report.active_fraction) * report.selected_n)
        rows.append(
            SelectionRow(
                label=label,
                active_fraction=report.active_fraction,
                noise_psd=preset.system.noise_psd,
                alpha=red.alpha,
                n_star=report.n_star_cubic,
                pow2_lower=report.pow2_lower,
                pow2_upper=report.pow2_upper,
                rate_lower_bps=report.rate_pow2_lower,
                rate_upper_bps=report.rate_pow2_upper,
                rate_at_n_star_bps=report.f_at_cubic,
                selected_n=report.selected_n,
                selected_rate_bps=report.selected_rate,
                active_at_selected=report.selected_n - absorbing,
                absorbing_at_selected=absorbing,
                published_selected_n=published_n,
                published_selected_rate_mbps=published_mbps,
                pattern_ok=report.selected_n == published_n,
            )
        )

    full = rows[0].selected_rate_bps
    ratio_3n4 = rows[1].selected_rate_bps / full
    ratio_n2 = rows[2].selected_rate_bps / full
    ratios_ok = abs(ratio_3n4 - 0.75) <= 1e-12 and abs(ratio_n2 - 0.5) <= 1e-12
    all_ok = ratios_ok and all(row.pattern_ok for row in rows)
    return SelectionTableReport(tuple(rows), ratio_3n4, ratio_n2, ratios_ok, all_ok, CALIBRATION_NOTE)
