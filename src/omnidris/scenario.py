"""Scenario files, bundled presets and sweep execution.

A scenario is a fully validated description of one experiment: where the
reduced parameters come from (direct ``reduced`` values, or ``system`` +
``geometry`` via the channel model), the absorbing-element rule, and the
sweep grid.  Scenario files are YAML with a strict schema::

    schema_version: 1            # required, currently always 1
    name: my-scenario            # required
    description: free text      # optional
    reduced:                     # either this block ...
      alpha: 1.0
      psi: 1.0
      xi: 1.0
    system:                      # ... or this one (geometry optional if
      bandwidth_hz: 1.0e6        #     alpha_calibration supplies alpha)
      transmit_power_w: 10.0
      num_light_sources: 1
      num_users: 1
      oe_conversion: 0.5
      noise_psd_w_per_hz: 2.0
    geometry:                    # feeds the channel gain, hence alpha
      lambertian_order: 1.0
      ris_reflectiveness: 0.5
      ris_element_area_m2: 0.04
      photodetector_area_m2: 4.0e-4
      dist_ls_ris_m: 1.52
      dist_ris_user_m: 2.03
      irradiance_angle_ls_ris_deg: 45.0
      irradiance_angle_ris_user_deg: 10.0
      incidence_angle_ris_deg: 17.95
      incidence_angle_user_deg: 29.58
      concentrator_gain: 1.0     # optional, default 1
      filter_gain: 1.0           # optional, default 1
    ris:
      mode: fixed                # "fixed" or "fraction"
      absorbing_count: 1         # fixed mode only
      absorbing_fraction: 0.5    # fraction mode only
    sweep:
      n_min: 1.0
      n_max: 50.0
      step: 0.01                 # positive number; "powers-of-two", null or absent: 2^k only
    alpha_calibration: 127058.3  # optional, overrides the computed alpha

Unknown keys are rejected with the line/column where they appear.  The keys
of a block are the fields of its record: :class:`~omnidris.rate.ReducedParams`,
:class:`~omnidris.rate.SystemParams`, :class:`~omnidris.channel.LinkGeometry`,
the :class:`~omnidris.rate.FixedCount` or :class:`~omnidris.rate.Fraction` that
``ris.mode`` names, and :class:`SweepSpec`; ``noise_psd``, ``count`` and ``q``
are written ``noise_psd_w_per_hz``, ``absorbing_count`` and ``absorbing_fraction``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .channel import LinkGeometry, channel_dc_gain, reference_room_geometry
from .optimize import HARDWARE_POWERS_OF_TWO, T_STAR, optimize
from .rate import (
    AbsorbingMode,
    FixedCount,
    Fraction,
    ReducedParams,
    SystemParams,
    _physical_alpha,
    rate_total,
    reduced_with_alpha,
    require_positive_finite,
)

__all__ = [
    "ScenarioError",
    "SweepSpec",
    "Scenario",
    "SweepRow",
    "load_scenario",
    "run_sweep",
    "sweep_to_csv",
    "preset_scenarios",
    "get_preset",
    "resolve_scenario",
    "alpha_calibration_for",
    "MAX_SWEEP_POINTS",
]

#: Largest stepped sweep grid; the bundled presets stop at 4,901 points.
MAX_SWEEP_POINTS = 1_000_000


class ScenarioError(ValueError):
    """A scenario file or definition failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    """Sweep grid: [n_min, n_max] at ``step``, or powers of two only (step None)."""

    n_min: float
    n_max: float
    step: float | None = None

    def __post_init__(self) -> None:
        # a zero (or absent) step is checked below; any other must be positive
        bounds = ("n_min", "n_max", "step") if self.step else ("n_min", "n_max")
        require_positive_finite(self, bounds, ScenarioError)
        if self.n_min < 1.0:
            raise ScenarioError(f"sweep n_min must be at least 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ScenarioError(
                f"sweep bounds invalid: n_max {self.n_max} < n_min {self.n_min}"
            )
        if self.step == 0 and self.n_max > self.n_min:
            raise ScenarioError("sweep step 0 is only valid when n_min == n_max")


@dataclass(frozen=True)
class Scenario:
    """One validated experiment description.

    Exactly one of ``reduced`` or ``system`` supplies the rate parameters;
    ``alpha_calibration``, when present, overrides the alpha obtained from
    either source.
    """

    name: str
    absorbing: AbsorbingMode
    sweep: SweepSpec
    reduced: ReducedParams | None = None
    system: SystemParams | None = None
    geometry: LinkGeometry | None = None
    alpha_calibration: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if (self.reduced is None) == (self.system is None):
            raise ScenarioError(
                "exactly one of 'reduced' or 'system' must supply the rate parameters"
            )
        if self.reduced is not None and self.geometry is not None:
            raise ScenarioError("'geometry' belongs to a 'system' scenario, not 'reduced'")
        if (
            self.system is not None
            and self.geometry is None
            and self.alpha_calibration is None
        ):
            raise ScenarioError(
                "a 'system' scenario needs 'geometry' or 'alpha_calibration' to fix alpha"
            )
        if self.alpha_calibration is not None:
            require_positive_finite(self, ("alpha_calibration",), ScenarioError)

    def reduced_params(self) -> ReducedParams:
        """Resolve the (alpha, psi, xi) triple this scenario runs with, as one record."""
        alpha = self.alpha_calibration
        if self.reduced is not None:
            red = self.reduced
            return red if alpha is None else ReducedParams(alpha, red.psi, red.xi)
        if self.geometry is not None:  # a zero gain or alpha past the floats raises
            physical = _physical_alpha(self.system, channel_dc_gain(self.geometry))
            alpha = physical if alpha is None else alpha
        return reduced_with_alpha(self.system, alpha)


class SweepRow(NamedTuple):
    """One sweep grid point; ``theta`` is clamped so ``zeta`` is never negative.

    The field names are the sweep output columns, in order.
    """

    n: float
    theta: float
    zeta: float
    rate_bps: float
    pow2: bool
    selected: bool


# --- strict YAML schema -----------------------------------------------------

#: The record fields whose YAML key is not the field name itself.
_YAML_KEYS = {"noise_psd": "noise_psd_w_per_hz", "count": "absorbing_count",
              "q": "absorbing_fraction"}

#: The absorbing-rule record that each ``ris.mode`` names.
_ABSORBING = {"fixed": FixedCount, "fraction": Fraction}


def _record_schema(cls) -> dict:
    """``{yaml_key: field}`` for every field of the record type ``cls``, in field order."""
    return {_YAML_KEYS.get(field.name, field.name): field for field in fields(cls)}


_SCHEMA = {
    "schema_version": None,
    "name": None,
    "description": None,
    "reduced": _record_schema(ReducedParams),
    "system": _record_schema(SystemParams),
    "geometry": _record_schema(LinkGeometry),
    "ris": {"mode": None, **_record_schema(FixedCount), **_record_schema(Fraction)},
    "sweep": _record_schema(SweepSpec),
    "alpha_calibration": None,
}


def _reject_unknown_keys(node, schema: dict, path: str, chain: frozenset = frozenset()) -> None:
    """Reject a key that ``schema`` lacks or that one mapping writes twice.

    Runs before construction expands the ``<<`` merges: a merged mapping is
    checked where it is merged (unless it merges into itself, the ``chain``),
    and a key the mapping writes may override a merged one.
    """
    from yaml import MappingNode, ScalarNode, SequenceNode

    if not isinstance(node, MappingNode):
        mark = node.start_mark
        raise ScenarioError(
            f"expected a mapping at {path} (line {mark.line + 1}, column {mark.column + 1})"
        )
    chain |= {id(node)}
    written = set()
    for key_node, value_node in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":  # PyYAML rejects a merge of non-mappings
            merged = value_node.value if isinstance(value_node, SequenceNode) else [value_node]
            for source in merged:
                if isinstance(source, MappingNode) and id(source) not in chain:
                    _reject_unknown_keys(source, schema, path, chain)
        elif isinstance(key_node, ScalarNode):  # PyYAML rejects the others as unhashable
            key, mark = key_node.value, key_node.start_mark
            under = f" (under {path})" if path else ""
            where = f"at line {mark.line + 1}, column {mark.column + 1}{under}"
            if key not in schema:
                raise ScenarioError(f"unknown key {key!r} {where}")
            if key in written:
                raise ScenarioError(f"duplicate key {key!r} {where}")
            written.add(key)
            if isinstance(schema[key], dict):
                _reject_unknown_keys(value_node, schema[key], f"{path}.{key}" if path else key)


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ScenarioError(f"missing required key {key!r} in {context}")
    return data[key]


def _read(value, kind: str, context: str):
    """A YAML value as the record field annotated ``kind`` takes it."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{context} must be an integer, got {value!r}")
        return value
    if kind == "float | None":  # the sweep step
        if value is None or value == "powers-of-two":  # the powers of two, as for an absent step
            return None
        if isinstance(value, str):
            raise ScenarioError(
                f"{context} must be a positive number or 'powers-of-two', got {value!r}"
            )
    # YAML 1.1 reads exponent forms like 1.0e6 (no sign) as strings
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{context} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{context} is too large to be a float") from None


def _record(cls, data: dict, block: str):
    """The ``cls`` record of a block, or None when the block is absent.

    Keys are checked in field order; a key may be left out only when its
    field has a default.
    """
    if block not in data:
        return None
    mapping = data[block] or {}
    values = {}
    for key, field in _record_schema(cls).items():
        if key not in mapping and field.default is not MISSING:
            continue  # the field's default stands
        values[field.name] = _read(_require(mapping, key, block), field.type, f"{block}.{key}")
    return cls(**values)


def _scenario_from_dict(data: dict, *, source: str = "scenario") -> Scenario:
    """Build and validate a :class:`Scenario` from parsed YAML data."""
    version = _require(data, "schema_version", source)
    if version != 1:
        raise ScenarioError(f"unsupported schema_version {version!r} (expected 1)")
    name = _require(data, "name", source)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"scenario name must be a non-empty string, got {name!r}")

    try:
        reduced = _record(ReducedParams, data, "reduced")
        system = _record(SystemParams, data, "system")
        geometry = _record(LinkGeometry, data, "geometry")
        ris = _require(data, "ris", source) or {}
        mode = _require(ris, "mode", "ris")
        rule = _ABSORBING.get(mode) if isinstance(mode, str) else None
        if rule is None:
            modes = " or ".join(map(repr, _ABSORBING))
            raise ScenarioError(f"ris.mode must be {modes}, got {mode!r}")
        for key in ris.keys() & _SCHEMA["ris"].keys() - _record_schema(rule).keys() - {"mode"}:
            raise ScenarioError(f"ris.{key} is not valid in {mode} mode")  # the other mode's key
        absorbing = _record(rule, data, "ris")
        _require(data, "sweep", source)
        sweep = _record(SweepSpec, data, "sweep")

        calibration = data.get("alpha_calibration")
        if calibration is not None:
            calibration = _read(calibration, "float", "alpha_calibration")

        return Scenario(
            name=name,
            absorbing=absorbing,
            sweep=sweep,
            reduced=reduced,
            system=system,
            geometry=geometry,
            alpha_calibration=calibration,
            description=str(data.get("description", "")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario {name!r}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load and strictly validate a scenario file."""
    import yaml  # only scenario files need PyYAML; presets never do

    text = Path(path).read_text(encoding="utf-8")
    try:
        loader = yaml.SafeLoader(text)  # one parse pass: its node is both built and key-checked
        try:
            node = loader.get_single_node()
            if isinstance(node, yaml.MappingNode):  # before construction expands its merges
                _reject_unknown_keys(node, _SCHEMA, "")
            data = None if node is None else loader.construct_document(node)
        finally:
            loader.dispose()
    except ScenarioError:  # the key check's own diagnostic
        raise
    except yaml.YAMLError as exc:  # a ReaderError (bad character) carries no mark
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ScenarioError(f"cannot parse scenario file: {problem}{where}") from exc
    except RecursionError as exc:
        raise ScenarioError("cannot parse scenario file: it is nested too deeply") from exc
    except ValueError as exc:  # a scalar constructor: !!int abc, 2001-13-45, a 5,000-digit integer
        raise ScenarioError(f"cannot parse scenario file: {exc}") from exc
    except (KeyError, AttributeError) as exc:  # PyYAML's !!bool and !!timestamp on a bad value
        raise ScenarioError("cannot parse scenario file: malformed tagged value") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario file {path} must contain a mapping")
    return _scenario_from_dict(data, source=str(path))


# --- presets -----------------------------------------------------------------

#: Normalized benchmark combinations C0..C6 as (alpha, theta, xi, psi).
NORMALIZED_COMBOS: dict[str, tuple[float, float, float, float]] = {
    "C0": (1.0, 1.0, 1.0, 1.0),
    "C1": (5.0, 5.0, 5.0, 5.0),
    "C2": (10.0, 10.0, 10.0, 10.0),
    "C3": (3.0, 1.0, 1.0, 1.0),
    "C4": (1.0, 3.0, 1.0, 1.0),
    "C5": (1.0, 1.0, 3.0, 1.0),
    "C6": (1.0, 1.0, 1.0, 3.0),
}


def alpha_calibration_for(noise_psd: float) -> float:
    """Calibrated alpha pinning the fully active optimum at 180 elements.

    The geometric link budget of the reference room gives alpha ~ 2.6e-13,
    which cannot reproduce the published rate curves; the documented
    calibration instead fixes alpha = t* * 180^2 at noise PSD 2 W/Hz and
    scales it with 1/noise_psd elsewhere.  A noise PSD that is not positive and
    finite, or whose alpha leaves the float range, raises :class:`ScenarioError`.
    """
    if not 0.0 < noise_psd < math.inf:  # rejects NaN as well
        raise ScenarioError(f"noise_psd must be positive and finite, got {noise_psd}")
    if not (alpha := T_STAR * 180.0**2 * (2.0 / noise_psd)) < math.inf:
        raise ScenarioError(f"the calibrated alpha overflows for noise_psd {noise_psd}")
    return alpha


def _normalized_preset(name: str) -> Scenario:
    alpha, theta, xi, psi = NORMALIZED_COMBOS[name]
    return Scenario(
        name=name,
        reduced=ReducedParams(alpha=alpha, psi=psi, xi=xi),
        absorbing=FixedCount(int(theta)),
        sweep=SweepSpec(1.0, 50.0, 0.01),
        description=(
            f"normalized benchmark combination {name}: "
            f"alpha={alpha:g}, theta={theta:g}, xi={xi:g}, psi={psi:g}"
        ),
    )


#: Calibrated presets: name -> (noise PSD in W/Hz, absorbing fraction, description).
#: The source text and its selection table disagree on the bottom-family
#: noise set ({3,4,8} vs {3,5,8}); both variants ship, neither is canonical.
#: The published selection rates imply the calibrated alpha (within 0.7%) for
#: the PSD 2 rows and PSD 8; the "PSD = 5" row's rates are what PSD 4 gives.
_CALIBRATED_PRESETS: dict[str, tuple[float, float, str]] = {
    "fig2-top": (
        2.0,
        0.0,
        "rate-vs-N top curve family, fully active panel (zeta = N), noise PSD 2 W/Hz;"
        " siblings fig2-top-zeta-3n4 and fig2-top-zeta-n2",
    ),
    "fig2-top-zeta-3n4": (2.0, 0.25, "rate-vs-N top family, zeta = 3N/4, noise PSD 2 W/Hz"),
    "fig2-top-zeta-n2": (2.0, 0.5, "rate-vs-N top family, zeta = N/2, noise PSD 2 W/Hz"),
    "fig2-bottom-text": (
        3.0,
        0.5,
        "rate-vs-N bottom family per the running text, noise PSD 3 W/Hz, zeta = N/2;"
        " siblings fig2-bottom-text-psd4 and fig2-bottom-text-psd8",
    ),
    "fig2-bottom-text-psd4": (4.0, 0.5, "bottom family per the running text, noise PSD 4 W/Hz"),
    "fig2-bottom-text-psd8": (8.0, 0.5, "bottom family per the running text, noise PSD 8 W/Hz"),
    "table1": (
        3.0,
        0.5,
        "selection-table noise family, noise PSD 3 W/Hz, zeta = N/2;"
        " siblings table1-psd5 and table1-psd8",
    ),
    "table1-psd5": (5.0, 0.5, "selection-table noise family, noise PSD 5 W/Hz"),
    "table1-psd8": (8.0, 0.5, "selection-table noise family, noise PSD 8 W/Hz"),
}


def _calibrated_preset(name: str) -> Scenario:
    noise_psd, absorbing_fraction, description = _CALIBRATED_PRESETS[name]
    return Scenario(
        name=name,
        # the reference room's system: 1 MHz, 10 W, one source, one user, rho = 0.5
        system=SystemParams(1e6, 10.0, 1, 1, 0.5, noise_psd),
        geometry=reference_room_geometry(),
        alpha_calibration=alpha_calibration_for(noise_psd),
        absorbing=Fraction(absorbing_fraction),
        sweep=SweepSpec(1.0, 512.0, 1.0),
        description=description + " [alpha calibrated: fully active peak at N = 180]",
    )


#: Every bundled preset, keyed by name.
_PRESETS: dict[str, Scenario] = {
    **{name: _normalized_preset(name) for name in NORMALIZED_COMBOS},
    **{name: _calibrated_preset(name) for name in _CALIBRATED_PRESETS},
}


def preset_scenarios() -> dict[str, Scenario]:
    """All bundled presets, keyed by name (a fresh mapping each call)."""
    return dict(_PRESETS)


def get_preset(name: str) -> Scenario:
    if name not in _PRESETS:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        )
    return _PRESETS[name]


def resolve_scenario(ref: str) -> Scenario:
    """Resolve a CLI-style scenario reference: preset name or file path."""
    if ref in _PRESETS:
        return _PRESETS[ref]
    if Path(ref).exists():
        return load_scenario(ref)
    raise ScenarioError(
        f"{ref!r} is neither a bundled preset nor an existing scenario file; "
        f"presets: {', '.join(sorted(_PRESETS))}"
    )


# --- sweep execution ----------------------------------------------------------


def _grid_values(sweep: SweepSpec) -> list[float]:
    """The stepped grid: one point when n_min == n_max, none for powers of two only."""
    if sweep.n_max == sweep.n_min:
        return [sweep.n_min]
    if sweep.step is None:
        return []
    steps = (sweep.n_max - sweep.n_min) / sweep.step + 1e-9
    if steps >= MAX_SWEEP_POINTS:  # checked before the list is built
        raise ScenarioError(
            f"sweep step {sweep.step} over [{sweep.n_min}, {sweep.n_max}] "
            f"gives more than {MAX_SWEEP_POINTS} points"
        )
    count = int(math.floor(steps)) + 1
    values = [sweep.n_min + k * sweep.step for k in range(count)]
    values[-1] = min(values[-1], sweep.n_max)  # the 1e-9 of slack in steps may overshoot
    if values[-1] < sweep.n_max - 1e-9 * max(1.0, sweep.n_max):
        values.append(sweep.n_max)
    return values


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """Evaluate the scenario on its grid, powers of two always included.

    Rows are deterministic for a given scenario.  The hardware powers of
    two inside the sweep range are merged into the grid, flagged, and the
    optimizer's selected power of two is marked on its row.
    """
    red = scenario.reduced_params()
    absorbing = scenario.absorbing
    pow2_in_range = {
        float(p)
        for p in HARDWARE_POWERS_OF_TWO
        if scenario.sweep.n_min <= p <= scenario.sweep.n_max
    }
    selected_n = float(optimize(red, absorbing).selected_n)
    rows = []
    grid = set(_grid_values(scenario.sweep)) | pow2_in_range
    for n in sorted(grid or {scenario.sweep.n_min}):
        theta = min(absorbing.theta_at(n), n)
        rate = rate_total(red, n, absorbing) if theta < n else 0.0  # unwarned: all absorbing
        pow2 = n in pow2_in_range
        rows.append(SweepRow(n, theta, n - theta, rate, pow2, pow2 and n == selected_n))
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _csv(header, records) -> str:
    """A CSV table: the header, then one row per record of values, each through :func:`_fmt`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(value) for value in record] for record in records)
    return buffer.getvalue()


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """The sweep as a CSV table of the ``SweepRow`` fields; floats carry 17 significant digits."""
    return _csv(SweepRow._fields, rows)
