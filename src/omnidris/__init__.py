"""Achievable-rate modeling and element-count optimization for
omni-DRIS-assisted indoor visible-light links.

The library models the NLoS light-source -> panel-element -> user channel,
collapses the system into the reduced rate form
``f(n) = xi (n - theta) log2(alpha/(n^2 psi) + 1)``, locates the
rate-maximizing element count (stationarity cubic, exact stationarity
root, universal proportional constant) and applies the power-of-two
hardware selection rule.  Scenario files and bundled presets drive sweeps and the
reference-table reproduction reports; ``omnidris`` is the CLI entry point.

``omnidris.optimize.optimize`` (either absorbing rule) is not re-exported
here: a package attribute of that name would hide the ``optimize`` module.
"""
from .channel import LinkGeometry, channel_dc_gain, reference_room_geometry
from .optimize import (
    T_STAR,
    CubicCoefficients,
    NoInteriorMaximumError,
    OptimumReport,
    Pow2Selection,
    build_cubic,
    meaningful_root,
    optimize_fixed_theta,
    optimize_proportional,
    select_power_of_two,
    solve_cubic,
)
from .rate import (
    E_OVER_2PI,
    AbsorbingMode,
    DegenerateConfigWarning,
    FixedCount,
    Fraction,
    ReducedParams,
    SystemParams,
    bits_per_sequence,
    f_series,
    rate_single_link,
    rate_total,
    reduce_params,
    snr_single_link,
)
from .reports import (
    CALIBRATION_NOTE,
    NormalizedTableReport,
    SelectionTableReport,
    reproduce_table1,
    reproduce_table2,
)
from .scenario import (
    CSV_COLUMNS,
    HARDWARE_POWERS_OF_TWO,
    Scenario,
    ScenarioError,
    SweepRow,
    SweepSpec,
    alpha_calibration_for,
    get_preset,
    load_scenario,
    preset_scenarios,
    resolve_scenario,
    run_sweep,
    sweep_to_csv,
)

__version__ = "0.1.0"

