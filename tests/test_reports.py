"""Every reference-table row is the ``optimize`` report of its bundled preset."""
import pytest

from omnidris.optimize import optimize
from omnidris.reports import (
    PUBLISHED_NORMALIZED_TABLE,
    PUBLISHED_SELECTION_TABLE,
    reproduce_table1,
    reproduce_table2,
)
from omnidris.scenario import get_preset
from oracle import implied_alpha

# table row field -> OptimumReport field
SELECTION_FIELDS = {
    "active_fraction": "active_fraction",
    "n_star": "n_star_cubic",
    "pow2_lower": "pow2_lower",
    "pow2_upper": "pow2_upper",
    "rate_lower_bps": "rate_pow2_lower",
    "rate_upper_bps": "rate_pow2_upper",
    "rate_at_n_star_bps": "f_at_cubic",
    "selected_n": "selected_n",
    "selected_rate_bps": "selected_rate",
}
# preset -> alpha implied by its published selection row / the preset's calibrated alpha
IMPLIED_ALPHA_RATIOS = {
    "fig2-top": 0.9935,
    "fig2-top-zeta-3n4": 0.9935,
    "fig2-top-zeta-n2": 0.9936,
    "table1": 1.1852,  # an implied noise PSD of ~2.53, not 3: unexplained
    "table1-psd5": 1.2493,  # ~5/4: the "PSD = 5" row's Mbps are what PSD 4 gives
    "table1-psd8": 0.9945,
}
NORMALIZED_FIELDS = {
    "meas_n": "n_star_exact",
    "meas_f": "f_at_exact",
    "calc_n": "n_star_cubic",
    "calc_f": "f_at_cubic",
}


def _report(name):
    preset = get_preset(name)
    red = preset.reduced_params()
    return preset, red, optimize(red, preset.absorbing)


def test_selection_rows_are_their_presets_optimize_reports():
    rows = reproduce_table1().rows
    assert [row.label for row in rows] == [v[0] for v in PUBLISHED_SELECTION_TABLE.values()]
    for row, name in zip(rows, PUBLISHED_SELECTION_TABLE):
        preset, red, report = _report(name)
        assert row.alpha == red.alpha, name
        assert row.noise_psd == preset.system.noise_psd, name
        got = {field: getattr(row, field) for field in SELECTION_FIELDS}
        assert got == {field: getattr(report, key) for field, key in SELECTION_FIELDS.items()}, name


def test_normalized_rows_are_their_presets_optimize_reports():
    rows = reproduce_table2().rows
    assert [row.scenario for row in rows] == list(PUBLISHED_NORMALIZED_TABLE)
    for row in rows:
        _, _, report = _report(row.scenario)
        got = {field: getattr(row, field) for field in NORMALIZED_FIELDS}
        assert got == {field: getattr(report, key) for field, key in NORMALIZED_FIELDS.items()}


def test_published_selection_rates_imply_the_calibrated_alpha():
    assert IMPLIED_ALPHA_RATIOS.keys() == PUBLISHED_SELECTION_TABLE.keys()
    for name, (_, n, mbps) in PUBLISHED_SELECTION_TABLE.items():
        preset = get_preset(name)
        red = preset.reduced_params()
        active = n - preset.absorbing.theta_at(n)
        ratio = implied_alpha(red.psi, red.xi, n, active, mbps * 1e6) / red.alpha
        assert ratio == pytest.approx(IMPLIED_ALPHA_RATIOS[name], rel=1e-3), name
