"""Seeded inputs: optimizer draws, scenario files and per-workload operation mixes.

Every input comes from ``random.Random(seed)``; the program only ever sees
the generated parameters, scenario files and command lines.  Mixes have a
fixed composition per pass (the seed picks parameters and order, not how
many operations of each kind run), so medians and tails land inside one
kind of operation on every seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from reference import T_STAR

#: Normalized benchmark combinations as published: name -> (alpha, theta, xi, psi).
NORMALIZED = {
    "C0": (1.0, 1, 1.0, 1.0),
    "C1": (5.0, 5, 5.0, 5.0),
    "C2": (10.0, 10, 10.0, 10.0),
    "C3": (3.0, 1, 1.0, 1.0),
    "C4": (1.0, 3, 1.0, 1.0),
    "C5": (1.0, 1, 3.0, 1.0),
    "C6": (1.0, 1, 1.0, 3.0),
}
#: Calibrated presets: name -> (noise PSD in W/Hz, absorbing fraction).
CALIBRATED = {
    "fig2-top": (2.0, 0.0),
    "fig2-top-zeta-3n4": (2.0, 0.25),
    "fig2-top-zeta-n2": (2.0, 0.5),
    "fig2-bottom-text": (3.0, 0.5),
    "fig2-bottom-text-psd4": (4.0, 0.5),
    "fig2-bottom-text-psd8": (8.0, 0.5),
    "table1": (3.0, 0.5),
    "table1-psd5": (5.0, 0.5),
    "table1-psd8": (8.0, 0.5),
}
PRESETS = tuple(NORMALIZED) + tuple(CALIBRATED)

#: Reference room link geometry, jittered per scenario file.
ROOM = {
    "lambertian_order": 1.0,
    "ris_reflectiveness": 0.5,
    "ris_element_area_m2": 0.04,
    "photodetector_area_m2": 4.0e-4,
    "dist_ls_ris_m": 1.52,
    "dist_ris_user_m": 2.03,
    "irradiance_angle_ls_ris_deg": 45.0,
    "irradiance_angle_ris_user_deg": 10.0,
    "incidence_angle_ris_deg": 17.95,
    "incidence_angle_user_deg": 29.58,
}

FORMS = ("reduced", "system", "geometry")


@dataclass(frozen=True)
class Params:
    """Rate parameters of one scenario plus its absorbing rule and source form.

    ``theta`` is a fixed absorbing count and ``fraction`` an absorbing share;
    exactly one is set.  ``form`` says how a scenario file states them:
    ``reduced`` (alpha, psi, xi), ``system`` (link counts, bandwidth and
    alpha_calibration) or ``geometry`` (system plus link geometry).
    """

    alpha: float
    psi: float
    xi: float
    theta: int | None
    fraction: float | None
    form: str = "reduced"


@dataclass(frozen=True)
class Grid:
    n_min: float
    n_max: float
    step: float

    def size(self) -> int:
        """Grid points plus the hardware powers of two that fall between them."""
        steps = (self.n_max - self.n_min) / self.step
        count = round(steps) + 1
        for p in (2**k for k in range(10)):
            if self.n_min <= p <= self.n_max:
                k = (p - self.n_min) / self.step
                if abs(k - round(k)) > 1e-9:
                    count += 1
        return count


def preset_params(name: str) -> tuple[Params, Grid]:
    """Published parameters and sweep grid of a bundled preset."""
    if name in NORMALIZED:
        alpha, theta, xi, psi = NORMALIZED[name]
        return Params(alpha, psi, xi, theta, None), Grid(1.0, 50.0, 0.01)
    psd, fraction = CALIBRATED[name]
    alpha = T_STAR * 180.0**2 * (2.0 / psd)
    return Params(alpha, 1.0, 0.5e6, None, fraction, "system"), Grid(1.0, 512.0, 1.0)


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def draw_params(rng: random.Random, fixed: bool, u: float | None = None, form=None) -> Params:
    """alpha/psi log-uniform over 1e-1..1e6, so optima sit inside and beyond 512."""
    psi = float(rng.choice((1, 4, 16, 64)))
    alpha = psi * _log_uniform(rng, 1e-1, 1e6, u)
    xi = _log_uniform(rng, 1e-2, 1e7)
    form = form or rng.choice(FORMS)
    if fixed:
        return Params(alpha, psi, xi, rng.randrange(10), None, form)
    active = rng.choice((1.0, 0.75, 0.5, 0.25))
    return Params(alpha, psi, xi, None, 1.0 - active, form)


def optimize_draws(seed: int, count: int) -> list[Params]:
    """Half fixed-count, half proportional; log(alpha/psi) stratified within each half."""
    rng = random.Random(f"optimize-grid:{seed}")
    half = count // 2
    strata = {mode: rng.sample(range(half), half) for mode in (True, False)}
    draws = []
    for j in range(half):
        for fixed in (True, False):
            u = (strata[fixed][j] + rng.random()) / half
            draws.append(draw_params(rng, fixed, u))
    return draws


def _fmt(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def scenario_yaml(name: str, params: Params, grid: Grid, rng: random.Random) -> str:
    """A scenario file in the strict schema for ``params`` on ``grid``."""
    lines = ["schema_version: 1", f"name: {name}", "description: generated benchmark scenario"]
    if params.form == "reduced":
        lines += ["reduced:", f"  alpha: {_fmt(params.alpha)}", f"  psi: {_fmt(params.psi)}",
                  f"  xi: {_fmt(params.xi)}"]
    else:
        links = math.isqrt(int(params.psi))
        users = rng.choice([d for d in range(1, links + 1) if links % d == 0])
        lines += [
            "system:",
            f"  bandwidth_hz: {_fmt(2.0 * params.xi / links)}",
            f"  transmit_power_w: {_fmt(rng.uniform(1.0, 20.0))}",
            f"  num_light_sources: {links // users}",
            f"  num_users: {users}",
            f"  oe_conversion: {_fmt(rng.uniform(0.3, 0.9))}",
            f"  noise_psd_w_per_hz: {_fmt(rng.uniform(1.0, 8.0))}",
        ]
        if params.form == "geometry":
            lines.append("geometry:")
            for key, value in ROOM.items():
                lines.append(f"  {key}: {_fmt(value * rng.uniform(0.9, 1.1))}")
        lines.append(f"alpha_calibration: {_fmt(params.alpha)}")
    if params.fraction is None:
        lines += ["ris:", "  mode: fixed", f"  absorbing_count: {params.theta}"]
    else:
        lines += ["ris:", "  mode: fraction", f"  absorbing_fraction: {_fmt(params.fraction)}"]
    lines += ["sweep:", f"  n_min: {_fmt(grid.n_min)}", f"  n_max: {_fmt(grid.n_max)}",
              f"  step: {_fmt(grid.step)}"]
    return "\n".join(lines) + "\n"


def fine_grid(rows: int) -> Grid:
    """``rows`` points from 1 at step 1/32, so every power of two in range is on the grid."""
    return Grid(1.0, 1.0 + (rows - 1) / 32, 1 / 32)


@dataclass(frozen=True)
class FileScenario:
    path: str
    params: Params
    grid: Grid


def write_scenarios(seed: int, tag: str, workdir, rows: int, kinds) -> list[FileScenario]:
    """One scenario file per (form, fixed) kind, each with a ``rows``-point grid."""
    rng = random.Random(f"{tag}:files:{seed}")
    files = []
    for index, (form, fixed) in enumerate(kinds):
        params = draw_params(rng, fixed, form=form)
        grid = fine_grid(rows)
        path = workdir / f"{tag}-{index}.yaml"
        path.write_text(scenario_yaml(f"{tag}-{index}", params, grid, rng), encoding="utf-8")
        files.append(FileScenario(str(path), params, grid))
    return files


CLI_FILE_KINDS = (("reduced", True), ("geometry", False), ("system", True))


def cli_mix(seed: int, workdir) -> list[tuple[list[str], tuple[Params, Grid] | None]]:
    """One cli-cold pass: 12 (command line, expected sweep) pairs.

    1 presets, 3 rate, 3 optimize, 3 sweep and 2 tables calls.  Tables is
    the slowest subcommand and makes up more than a tenth of the calls, so
    the p90 lands inside it on every seed.  Each sweep carries the
    parameters and grid its output is checked against.
    """
    rng = random.Random(f"cli-cold:{seed}")
    files = write_scenarios(seed, "cli", workdir, 4_001, CLI_FILE_KINDS)
    fmt = lambda: rng.choice(("csv", "json"))  # noqa: E731
    calls = [(["presets", "--format", fmt()], None)]
    for ref in (rng.choice(PRESETS), rng.choice(PRESETS), files[0].path):
        calls.append((["rate", "--scenario", ref, "--n", _fmt(rng.uniform(1.0, 600.0)),
                       "--format", fmt()], None))
    for ref in (rng.choice(tuple(NORMALIZED)), rng.choice(tuple(CALIBRATED)), files[1].path):
        calls.append((["optimize", "--scenario", ref, "--format", fmt()], None))
    # fixed formats, so the largest child (and peak memory) is the same kind on every seed
    normalized, calibrated = rng.choice(tuple(NORMALIZED)), rng.choice(tuple(CALIBRATED))
    for ref, sweep_fmt, expected in ((normalized, "csv", preset_params(normalized)),
                                     (calibrated, "json", preset_params(calibrated)),
                                     (files[2].path, "json", (files[2].params, files[2].grid))):
        calls.append((["sweep", "--scenario", ref, "--format", sweep_fmt], expected))
    calls += [(["tables", "--which", "both", "--format", "json"], None)] * 2
    rng.shuffle(calls)
    return calls
