"""Command-line surface: scenario config in, tables/grids/reports/images out.

Subcommands: design, pattern, cuts, compare, link.  Exit codes: 0 success,
2 input error, 3 design error, 4 I/O error.  All CSV/JSON output is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import metrics, ris
from .arrays import PatternGrid
from .design import design_closed_form, design_finite_l
from .geometry import (AngularRect, EmptyCoverError, PsiPoint, SolidAngle, cover_set,
                       from_psi)
from .scenario import (ConfigError, ScenarioConfig, load_scenario, parse_angle,
                       parse_cut, resolve_eta)
from .svgplot import heatmap_svg


class DesignError(RuntimeError):
    """Design stage failed (empty cover, degenerate inputs)."""


def _row_format(floats: int, lead: str = "") -> str:
    """%-format of one CSV row: ``lead``, then ``floats`` values as %.17g.

    ``"%.17g" % x`` prints exactly what ``format(x, ".17g")`` does, so a
    whole row formats in one call.
    """
    return lead + ",".join(["%.17g"] * floats)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_design(scenario: ScenarioConfig, cover=None):
    """Design result, surface config, and what radiates (the surface when it is
    phase-only, else the feed) for ``cover``, by default the scenario's own."""
    try:
        if cover is None:
            cover = cover_set(scenario.spec, scenario.grid, scenario.geom)
        params = resolve_eta(scenario, cover)
        if scenario.design.method == "closed_form":
            result = design_closed_form(cover, scenario.grid, scenario.geom, params)
        else:
            result = design_finite_l(cover, scenario.grid, scenario.geom, params,
                                     l_v=scenario.design.l_v, l_h=scenario.design.l_h,
                                     exact_ls=scenario.design.exact_ls)
        config = ris.ris_from_beamformer(result.beamformer, scenario.incident,
                                         scenario.geom)
        if scenario.design.unit_modulus:
            config = ris.unit_modulus_project(config)
    except (EmptyCoverError, ValueError) as exc:
        raise DesignError(str(exc)) from None
    return result, config, config if scenario.design.unit_modulus else result.beamformer


def _resolution(scenario: ScenarioConfig, args) -> tuple:
    if args.resolution:
        parts = args.resolution.lower().split("x")
        try:
            r_v, r_h = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"--resolution: expected NxM, got {args.resolution!r}") \
                from None
        if r_v < 2 or r_h < 2:
            raise ConfigError("--resolution: values must be >= 2")
        return r_v, r_h
    return scenario.output.pattern_resolution


def _out_dir(scenario: ScenarioConfig, args) -> Path:
    return Path(args.out) if args.out else Path(scenario.output.directory)


def cmd_design(args) -> int:
    scenario = load_scenario(args.config)
    result, config, _ = _run_design(scenario)
    out = _out_dir(scenario, args)

    # One % call per aperture row: m_h is in the template, and the arguments
    # interleave m_v, beta and theta.
    m_h = scenario.geom.m_h
    row = "\n".join(_row_format(2, lead=f"%d,{k},") for k in range(m_h))
    lines = ["m_v,m_h,beta,theta_radians"]
    for m_v in range(scenario.geom.m_v):
        args = [m_v, None, None] * m_h
        args[1::3] = config.betas[m_v].tolist()
        args[2::3] = config.thetas[m_v].tolist()
        lines.append(row % tuple(args))
    _write_text(out / "ris_coefficients.csv", "\n".join(lines) + "\n")

    meta = {
        "cover_size": result.cover.size,
        "cover_cells": [list(c) for c in result.cover.sorted()],
        "per_lobe_cell_counts": [len(s) for s in result.cover.per_lobe],
        "ideal_gain_level": result.ideal.level_t,
        "ideal_gain_level_db": result.ideal.level_db,
        "eta_v": result.params.eta_v,
        "eta_h": result.params.eta_h,
        "method": {"name": result.method.name, "l_v": result.method.l_v,
                   "l_h": result.method.l_h, "exact_ls": result.method.exact_ls,
                   "residual": result.method.residual,
                   "rank_deficient": result.method.rank_deficient},
        "norm_checks": {
            "beamformer_norm": float(np.linalg.norm(result.beamformer.entries)),
            "max_beta": float(config.betas.max()),
            "min_beta": float(config.betas.min()),
        },
        "effective_config": scenario.effective,
    }
    _write_json(out / "design_metadata.json", meta)
    return 0


def pattern_csv_text(grid_pattern: PatternGrid) -> str:
    zeta = grid_pattern.zeta_samples.tolist()
    row = _row_format(len(zeta) + 1)
    lines = [_row_format(len(zeta), lead="xi_zeta,") % tuple(zeta)]
    # Row by row, so no whole-grid list of Python floats is held.  The floor
    # and the multiply by 10 are metrics.to_db's own IEEE operations, done
    # in numpy; only the log goes through math.log10, since np.log10 can
    # differ in the last bit, which %.17g prints.
    for xi, gains in zip(grid_pattern.xi_samples.tolist(), grid_pattern.gains):
        floored = np.maximum(gains, metrics._FLOOR_LIN).tolist()
        db = np.fromiter(map(math.log10, floored), float, len(floored)) * 10.0
        lines.append(row % (xi, *db.tolist()))
    # An empty last line ends the text in a newline without copying it again.
    lines.append("")
    return "\n".join(lines)


def read_pattern_csv(path) -> PatternGrid:
    """Re-load a pattern CSV (dB body) into linear gains."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    zeta = np.array([float(v) for v in rows[0][1:]])
    xi = np.array([float(r[0]) for r in rows[1:]])
    db = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return PatternGrid(xi_samples=xi, zeta_samples=zeta, gains=10.0 ** (db / 10.0))


def cmd_pattern(args) -> int:
    scenario = load_scenario(args.config)
    r_v, r_h = _resolution(scenario, args)
    _, _, source = _run_design(scenario)
    grid_pattern = metrics.sample_pattern(source, r_v, r_h)
    out = _out_dir(scenario, args)
    _write_text(out / "pattern.csv", pattern_csv_text(grid_pattern))
    gains_db = 10.0 * np.log10(np.maximum(grid_pattern.gains,
                                          10.0 ** (metrics.DB_FLOOR / 10.0)))
    svg = heatmap_svg(gains_db, grid_pattern.xi_samples, grid_pattern.zeta_samples,
                      title="Reflected gain pattern")
    _write_text(out / "pattern.svg", svg)
    return 0


def _parse_cut_flag(text: str) -> dict:
    axis, sep, value = text.partition(":")
    if not sep:
        raise ConfigError(f"--cut: expected axis:value, got {text!r}")
    return parse_cut({"axis": axis, "value": value}, "--cut")


def cmd_cuts(args) -> int:
    scenario = load_scenario(args.config)
    cut_specs = [_parse_cut_flag(c) for c in args.cut] \
        if args.cut else list(scenario.output.cuts)
    if not cut_specs:
        raise ConfigError("no cuts given: add output.cuts to the config or pass --cut")
    _, _, source = _run_design(scenario)
    out = _out_dir(scenario, args)

    row = _row_format(2)
    summary = []
    for i, spec_ in enumerate(cut_specs):
        try:
            profile = metrics.cut(source, scenario.grid, scenario.geom,
                                  spec_["axis"], spec_["value"],
                                  resolution=args.cut_resolution)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        lines = ["angle_radians,gain_db"]
        lines += [row % pair for pair in zip(profile.angles.tolist(),
                                             profile.gains_db.tolist())]
        name = f"cut_{i:02d}_{spec_['axis']}.csv"
        _write_text(out / name, "\n".join(lines) + "\n")
        summary.append({
            "file": name,
            "axis": spec_["axis"],
            "fixed_value": spec_["value"],
            "widths_radians": {f"{level:g}": list(w)
                               for level, w in profile.widths.items()},
        })
    _write_json(out / "cut_widths.json", {"cuts": summary})
    return 0


def cmd_compare(args) -> int:
    scenario = load_scenario(args.config)
    if len(scenario.spec.lobes) < 2:
        raise DesignError("comparison needs at least 2 lobes")
    result, _, multi = _run_design(scenario)
    cover = result.cover
    single_cover = metrics.bounding_rectangle_cover(cover, scenario.grid)
    _, _, single = _run_design(scenario, single_cover)
    resolution = max(_resolution(scenario, args))
    rep_multi = metrics.report(multi, cover, scenario.grid, resolution=resolution)
    rep_single = metrics.report(single, cover, scenario.grid, resolution=resolution)
    payload = {
        "multi_mean_db": rep_multi.mean_in_db,
        "single_mean_db": rep_single.mean_in_db,
        "delta_db": metrics.compare(rep_multi, rep_single),
        "multi_cover_size": cover.size,
        "single_cover_size": single_cover.size,
        "ideal_level_db": rep_multi.ideal_level_db,
        "resolution": resolution,
    }
    _write_json(_out_dir(scenario, args) / "comparison.json", payload)
    return 0


def _parse_omega(text: str, where: str) -> SolidAngle:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'phi,theta', got {text!r}")
    try:
        return SolidAngle(parse_angle(parts[0], where), parse_angle(parts[1], where))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _lobe_centers(scenario: ScenarioConfig):
    centers = []
    for lobe in scenario.spec.lobes:
        rect = lobe.rects[0]
        if isinstance(rect, AngularRect):
            centers.append(SolidAngle((rect.phi_min + rect.phi_max) / 2,
                                      (rect.theta_min + rect.theta_max) / 2))
        else:
            mid = PsiPoint((rect.xi_min + rect.xi_max) / 2,
                           (rect.zeta_min + rect.zeta_max) / 2)
            centers.append(from_psi(mid, scenario.geom))
    return centers


def cmd_link(args) -> int:
    scenario = load_scenario(args.config)
    for flag, value, positive in (("--tx-power", args.tx_power, True),
                                  ("--noise-var", args.noise_var, True),
                                  ("--rho-t", args.rho_t, False),
                                  ("--rho-r", args.rho_r, False)):
        # The SNR is a log: powers must be positive and path gains nonzero.
        if not math.isfinite(value) or value == 0 or (positive and value < 0):
            raise ConfigError(f"{flag} must be finite and "
                              f"{'> 0' if positive else 'nonzero'}, got {value}")
    if args.m_t < 1 or args.m_r < 1:
        raise ConfigError("--m-t and --m-r must be >= 1")
    targets = [_parse_omega(t, "--omega-2") for t in args.omega_2] \
        if args.omega_2 else _lobe_centers(scenario)
    _, config, _ = _run_design(scenario)

    # The channel is rank one, rho_r*rho_t*gamma*a_r*a_t^H, so one reflection
    # gives the norm and SNR that ris.cascaded_channel and ris.received_snr do.
    # The tx and rx arrays are uniform lines whose steering entries have unit
    # modulus, so their departure and arrival angles do not enter the report.
    # The SNR is summed in logs, so no product of finite flags overflows.
    try:
        root_m = math.sqrt(args.m_r * args.m_t)
    except OverflowError:
        root_m = math.inf
    snr_base_db = (10.0 * (math.log10(args.tx_power) + math.log10(args.m_r)
                           - math.log10(args.noise_var))
                   + 20.0 * (math.log10(abs(args.rho_r)) + math.log10(abs(args.rho_t))))
    entries = []
    for omega_2 in targets:
        gamma = ris.reflection_coefficient(config, scenario.incident, omega_2)
        where = f"direction {omega_2.phi:g},{omega_2.theta:g}"
        if gamma == 0:
            raise ConfigError(f"{where}: gamma = 0, so the SNR is -inf dB")
        fro_norm = abs(args.rho_r * args.rho_t * gamma) * root_m
        if not math.isfinite(fro_norm):
            raise ConfigError(f"{where}: channel_fro_norm overflows; lower "
                              "--rho-t, --rho-r, --m-t or --m-r")
        entries.append({
            "phi": omega_2.phi,
            "theta": omega_2.theta,
            "gamma_abs": abs(gamma),
            "channel_fro_norm": fro_norm,
            "snr_db": snr_base_db + 20.0 * math.log10(abs(gamma)),
        })
    payload = {
        "tx_power_w": args.tx_power,
        "noise_var_w": args.noise_var,
        "m_t": args.m_t,
        "m_r": args.m_r,
        "incident": {"phi": scenario.incident.phi, "theta": scenario.incident.theta},
        "directions": entries,
    }
    _write_json(_out_dir(scenario, args) / "link_report.json", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Multi-lobe reflection beam synthesis for planar "
                    "reflecting surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output directory")

    def sampled(p):
        p.add_argument("--resolution", default=None,
                       help="pattern resolution NxM, overrides the config")

    p = sub.add_parser("design", help="write the per-element coefficient table")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("pattern", help="write the sampled gain grid and heatmap")
    common(p)
    sampled(p)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("cuts", help="write 1D pattern cuts and measured widths")
    common(p)
    p.add_argument("--cut", action="append", default=None,
                   help="axis:value, e.g. fixed_phi:'-8/32 pi' (repeatable; "
                        "defaults to the config's cuts)")
    p.add_argument("--cut-resolution", type=int, default=1024)
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("compare", help="multi-lobe vs single bounding-lobe gain")
    common(p)
    sampled(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("link", help="cascaded-channel SNR report")
    common(p)
    p.add_argument("--tx-power", type=float, default=1.0, help="watts")
    p.add_argument("--noise-var", type=float, default=1e-6, help="watts")
    p.add_argument("--m-t", type=int, default=1)
    p.add_argument("--m-r", type=int, default=1)
    p.add_argument("--rho-t", type=float, default=1.0)
    p.add_argument("--rho-r", type=float, default=1.0)
    p.add_argument("--omega-2", action="append", default=None,
                   help="observation direction phi,theta (repeatable; "
                        "defaults to the lobe centers)")
    p.set_defaults(func=cmd_link)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DesignError as exc:
        print(f"design error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # Anything design-stage raises is already wrapped in DesignError;
        # a ValueError surfacing here came from the inputs.
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
