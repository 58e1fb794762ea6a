"""Scenario configs: JSON in, validated library objects out.

Angles may be written as raw radians or as rational multiples of pi
("-8/32 pi", "pi/16", "pi"), which parse exactly and avoid rounding
drift between configs and code.  All defaults are the reference
constants: half-wavelength spacing, a pi/4 x pi/2 angular coverage
range, and a 16x16 subregion grid.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .design import EqualGainParams, centered_eta, select_eta
from .geometry import (AngularRect, ArrayGeometry, Lobe, MultiBeamSpec,
                       PsiRect, SolidAngle, make_grid, psi_bounds)


class ConfigError(ValueError):
    """Invalid scenario config; message names the offending field."""


_PI_FORM = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+(?:\.\d+)?)\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*\*?\s*)?"
    r"pi\s*(?:/\s*(?P<postden>\d+(?:\.\d+)?))?\s*$", re.IGNORECASE)


def _finite(value, where: str) -> float:
    """``value`` as a float, which must be finite."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def parse_angle(value, where: str = "angle") -> float:
    """Finite radians from a number or a 'a/b pi' style string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected number or string, got {type(value).__name__}")
    text = value.replace("−", "-").strip()
    m = _PI_FORM.match(text)
    if m:
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den") or m.group("postden") or 1.0)
        if m.group("den") and m.group("postden"):
            raise ConfigError(f"{where}: malformed pi expression {value!r}")
        if den == 0:
            raise ConfigError(f"{where}: zero denominator in {value!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        return _finite(sign * num / den * math.pi, where)
    try:
        radians = float(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse angle {value!r}") from None
    return _finite(radians, where)


@dataclass(frozen=True)
class DesignOptions:
    method: str = "closed_form"
    l_v: int = 16
    l_h: int = 16
    exact_ls: bool = False
    eta_mode: str = "zero"
    eta_v: float = 0.0
    eta_h: float = 0.0
    search_resolution: int = 5
    unit_modulus: bool = False


@dataclass(frozen=True)
class OutputOptions:
    pattern_resolution: tuple = (256, 256)
    cuts: tuple = ()
    directory: str = "out"


@dataclass(frozen=True)
class ScenarioConfig:
    geom: ArrayGeometry
    grid: object
    spec: MultiBeamSpec
    incident: SolidAngle
    design: DesignOptions
    output: OutputOptions
    effective: dict = field(repr=False, default_factory=dict)


def _get(section: dict, key: str, default, where: str):
    """``section[key]``, or ``default`` when absent, of the default's JSON type.

    A JSON boolean is not a number here, although Python's bool is an int,
    and a number must be finite: JSON's NaN and Infinity are rejected.
    """
    value = section.get(key, default)
    kind, types = {bool: ("boolean", bool), int: ("integer", int),
                   float: ("number", (int, float)), str: ("string", str)}[type(default)]
    if (not isinstance(value, types)
            or isinstance(value, bool) != isinstance(default, bool)):
        raise ConfigError(f"{where}.{key}: expected {kind}")
    return _finite(value, f"{where}.{key}") if kind == "number" else value


def _get_count(section: dict, key: str, default: int, where: str) -> int:
    """An integer field that must be at least 1."""
    value = _get(section, key, default, where)
    if value < 1:
        raise ConfigError(f"{where}.{key}: expected an integer >= 1, got {value}")
    return value


def _parse_lobe(entry: dict, index: int) -> Lobe:
    where = f"lobes[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    if "xi" in entry or "zeta" in entry:
        for key in ("xi", "zeta"):
            if key not in entry:
                raise ConfigError(f"{where}: psi lobes need both 'xi' and 'zeta' bounds")
            if not isinstance(entry[key], (list, tuple)) or len(entry[key]) != 2:
                raise ConfigError(f"{where}.{key}: expected [low, high]")
        xi = [parse_angle(v, f"{where}.xi") for v in entry["xi"]]
        zeta = [parse_angle(v, f"{where}.zeta") for v in entry["zeta"]]
        try:
            return Lobe.from_psi_rect(PsiRect(xi[0], xi[1], zeta[0], zeta[1]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    for key in ("phi", "theta"):
        if key not in entry:
            raise ConfigError(f"{where}: angular lobes need 'phi' and 'theta' centers")
    phi = parse_angle(entry["phi"], f"{where}.phi")
    theta = parse_angle(entry["theta"], f"{where}.theta")
    width = parse_angle(entry.get("width", math.pi / 16), f"{where}.width")
    width_phi = parse_angle(entry["width_phi"], f"{where}.width_phi") \
        if "width_phi" in entry else width
    width_theta = parse_angle(entry["width_theta"], f"{where}.width_theta") \
        if "width_theta" in entry else width
    try:
        return Lobe((AngularRect.from_center(phi, theta, width_phi, width_theta),))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_cut(entry: dict, where: str) -> dict:
    """Validated {axis, value} of one cut; errors are labelled with ``where``."""
    if not isinstance(entry, dict) or "axis" not in entry or "value" not in entry:
        raise ConfigError(f"{where}: expected {{axis, value}}")
    axis = entry["axis"]
    if axis not in ("fixed_phi", "fixed_theta"):
        raise ConfigError(f"{where}.axis: expected fixed_phi or fixed_theta")
    return {"axis": axis, "value": parse_angle(entry["value"], f"{where}.value")}


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return build_scenario(raw)


def build_scenario(raw: dict) -> ScenarioConfig:
    array = raw.get("array", {})
    if not isinstance(array, dict):
        raise ConfigError("array: expected an object")
    try:
        geom = ArrayGeometry(
            m_v=_get(array, "m_v", 32, "array"),
            m_h=_get(array, "m_h", 32, "array"),
            d_x_over_lambda=_get(array, "d_x_over_lambda", 0.5, "array"),
            d_z_over_lambda=_get(array, "d_z_over_lambda", 0.5, "array"))
    except ValueError as exc:
        raise ConfigError(f"array: {exc}") from None

    grid_sec = raw.get("grid", {})
    if not isinstance(grid_sec, dict):
        raise ConfigError("grid: expected an object")
    q_v = _get(grid_sec, "q_v", 16, "grid")
    q_h = _get(grid_sec, "q_h", 16, "grid")
    if "xi_bound" in grid_sec or "zeta_bound" in grid_sec:
        xi_b = parse_angle(grid_sec.get("xi_bound", math.pi), "grid.xi_bound")
        zeta_b = parse_angle(grid_sec.get("zeta_bound", math.pi), "grid.zeta_bound")
        phi_b = theta_b = None
    else:
        phi_b = parse_angle(grid_sec.get("phi_bound", "pi/4"), "grid.phi_bound")
        theta_b = parse_angle(grid_sec.get("theta_bound", "pi/2"), "grid.theta_bound")
        xi_b, zeta_b = psi_bounds(geom, phi_b, theta_b)
    try:
        grid = make_grid(q_v, q_h, xi_b, zeta_b)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None

    lobes_sec = raw.get("lobes", [])
    if not isinstance(lobes_sec, list) or not lobes_sec:
        raise ConfigError("lobes: expected a non-empty list")
    spec = MultiBeamSpec(tuple(_parse_lobe(entry, i)
                               for i, entry in enumerate(lobes_sec)))

    inc = raw.get("incident", {})
    if not isinstance(inc, dict):
        raise ConfigError("incident: expected an object")
    try:
        incident = SolidAngle(parse_angle(inc.get("phi", 0.0), "incident.phi"),
                              parse_angle(inc.get("theta", 0.0), "incident.theta"))
    except ValueError as exc:
        raise ConfigError(f"incident: {exc}") from None

    des = raw.get("design", {})
    if not isinstance(des, dict):
        raise ConfigError("design: expected an object")
    method = _get(des, "method", "closed_form", "design")
    if method not in ("closed_form", "finite_l"):
        raise ConfigError("design.method: expected closed_form or finite_l")
    eta_raw = des.get("eta", "zero")
    eta_mode, eta_v, eta_h, search_res = "zero", 0.0, 0.0, 5
    if isinstance(eta_raw, str):
        if eta_raw not in ("zero", "centered"):
            raise ConfigError("design.eta: expected zero, centered, "
                              "{search_resolution}, or {eta_v, eta_h}")
        eta_mode = eta_raw
    elif isinstance(eta_raw, dict):
        if "search_resolution" in eta_raw:
            eta_mode = "search"
            search_res = _get_count(eta_raw, "search_resolution", 5, "design.eta")
        elif "eta_v" in eta_raw and "eta_h" in eta_raw:
            eta_mode = "explicit"
            eta_v = parse_angle(eta_raw["eta_v"], "design.eta.eta_v")
            eta_h = parse_angle(eta_raw["eta_h"], "design.eta.eta_h")
        else:
            raise ConfigError("design.eta: expected search_resolution or eta_v/eta_h")
    else:
        raise ConfigError("design.eta: expected string or object")
    design = DesignOptions(
        method=method,
        l_v=_get_count(des, "l_v", 16, "design"),
        l_h=_get_count(des, "l_h", 16, "design"),
        exact_ls=_get(des, "exact_ls", False, "design"),
        eta_mode=eta_mode, eta_v=eta_v, eta_h=eta_h,
        search_resolution=search_res,
        unit_modulus=_get(des, "unit_modulus", False, "design"))

    out_sec = raw.get("output", {})
    if not isinstance(out_sec, dict):
        raise ConfigError("output: expected an object")
    res = out_sec.get("pattern_resolution", [256, 256])
    if not (isinstance(res, (list, tuple)) and len(res) == 2
            and all(isinstance(v, int) and v >= 2 for v in res)):
        raise ConfigError("output.pattern_resolution: expected [rows, cols] >= 2")
    cuts_sec = out_sec.get("cuts", [])
    if not isinstance(cuts_sec, list):
        raise ConfigError("output.cuts: expected a list")
    output = OutputOptions(
        pattern_resolution=tuple(res),
        cuts=tuple(parse_cut(c, f"output.cuts[{i}]") for i, c in enumerate(cuts_sec)),
        directory=_get(out_sec, "dir", "out", "output"))

    effective = {
        "array": {"m_v": geom.m_v, "m_h": geom.m_h,
                  "d_x_over_lambda": geom.d_x_over_lambda,
                  "d_z_over_lambda": geom.d_z_over_lambda},
        "grid": {"q_v": grid.q_v, "q_h": grid.q_h,
                 "xi_bound": grid.xi_bound, "zeta_bound": grid.zeta_bound,
                 "delta_v": grid.delta_v, "delta_h": grid.delta_h,
                 "phi_bound": phi_b, "theta_bound": theta_b},
        "incident": {"phi": incident.phi, "theta": incident.theta},
        "design": {"method": design.method, "l_v": design.l_v, "l_h": design.l_h,
                   "exact_ls": design.exact_ls, "eta_mode": design.eta_mode,
                   "unit_modulus": design.unit_modulus},
    }
    return ScenarioConfig(geom=geom, grid=grid, spec=spec, incident=incident,
                          design=design, output=output, effective=effective)


def resolve_eta(scenario: ScenarioConfig, cover) -> EqualGainParams:
    """Equal-gain parameters according to the scenario's eta mode."""
    mode = scenario.design.eta_mode
    if mode == "zero":
        return EqualGainParams()
    if mode == "centered":
        return centered_eta(scenario.grid, scenario.geom)
    if mode == "search":
        return select_eta(cover, scenario.grid, scenario.geom,
                          scenario.design.search_resolution)
    return EqualGainParams(eta_v=scenario.design.eta_v, eta_h=scenario.design.eta_h)
