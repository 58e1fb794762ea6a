import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbeam as rb
from risbeam.cli import _run_design, build_parser, read_pattern_csv
from risbeam.cli import main as cli_main
from risbeam.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "risbeam.cli", *args],
                          capture_output=True, text=True, cwd=REPO)


def test_design_writes_full_coefficient_table(tmp_path):
    proc = run_cli("design", "--config", str(CONFIGS / "paper_dual_beam.json"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "ris_coefficients.csv").read_text().strip().splitlines()
    assert rows[0] == "m_v,m_h,beta,theta_radians"
    assert len(rows) == 1 + 32 * 32
    meta = json.loads((tmp_path / "design_metadata.json").read_text())
    assert meta["cover_size"] == 7
    assert meta["norm_checks"]["max_beta"] == pytest.approx(1.0, abs=1e-12)
    assert meta["norm_checks"]["beamformer_norm"] == pytest.approx(1.0, abs=1e-12)
    assert meta["effective_config"]["grid"]["q_v"] == 16
    assert meta["effective_config"]["array"]["d_x_over_lambda"] == 0.5
    betas = [float(r.split(",")[2]) for r in rows[1:]]
    thetas = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(betas) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= b <= 1.0 + 1e-12 for b in betas)
    assert all(0.0 <= t < 2 * math.pi for t in thetas)


def test_design_single_element(tmp_path):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({
        "array": {"m_v": 1, "m_h": 1},
        "grid": {"q_v": 2, "q_h": 2},
        "lobes": [{"phi": 0, "theta": "1/8 pi", "width": "pi/8"}],
    }), encoding="utf-8")
    proc = run_cli("design", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "ris_coefficients.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    m_v, m_h, beta, _ = rows[1].split(",")
    assert (m_v, m_h) == ("0", "0")
    assert float(beta) == pytest.approx(1.0, abs=1e-12)


def test_config_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = run_cli("design", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_removed_seed_flag_exits_2(tmp_path):
    proc = run_cli("design", "--config", str(CONFIGS / "single_subregion.json"),
                   "--out", str(tmp_path), "--seed", "1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 1" in proc.stderr
    assert not (tmp_path / "ris_coefficients.csv").exists()


def test_lobe_outside_coverage_exits_3(tmp_path):
    config = tmp_path / "outside.json"
    config.write_text(json.dumps({
        "lobes": [{"phi": 0, "theta": 0, "width": "pi/16"},
                  {"xi": [2.9, 3.1], "zeta": [0.0, 0.3]}],
    }), encoding="utf-8")
    proc = run_cli("design", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "lobe 1" in proc.stderr


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    proc = run_cli("design", "--config", str(CONFIGS / "single_subregion.json"),
                   "--out", str(blocker / "sub"))
    assert proc.returncode == 4


def test_pattern_csv_shape_and_round_trip(tmp_path):
    proc = run_cli("pattern", "--config", str(CONFIGS / "paper_dual_beam.json"),
                   "--out", str(tmp_path), "--resolution", "96x80")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "pattern.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 96
    assert len(rows[0].split(",")) == 1 + 80
    assert (tmp_path / "pattern.svg").read_text().startswith("<?xml")

    scenario = load_scenario(str(CONFIGS / "paper_dual_beam.json"))
    cover = rb.cover_set(scenario.spec, scenario.grid, scenario.geom)
    grid_pattern = read_pattern_csv(tmp_path / "pattern.csv")
    rep_csv = rb.report_from_pattern(grid_pattern, cover, scenario.grid)
    result = rb.design_closed_form(cover, scenario.grid, scenario.geom,
                                   rb.centered_eta(scenario.grid, scenario.geom))
    direct = rb.sample_pattern(result.beamformer, 96, 80)
    rep_direct = rb.report_from_pattern(direct, cover, scenario.grid)
    assert rep_csv.mean_in_db == pytest.approx(rep_direct.mean_in_db, abs=1e-9)
    assert rep_csv.ripple_db == pytest.approx(rep_direct.ripple_db, abs=1e-9)
    assert rep_csv.leakage_fraction == pytest.approx(rep_direct.leakage_fraction,
                                                     abs=1e-9)


def test_flat_pattern_body_is_zero_db(tmp_path):
    config = tmp_path / "flat.json"
    config.write_text(json.dumps({
        "array": {"m_v": 1, "m_h": 1},
        "grid": {"q_v": 2, "q_h": 2},
        "lobes": [{"phi": 0, "theta": 0, "width": "pi/8"}],
    }), encoding="utf-8")
    proc = run_cli("pattern", "--config", str(config), "--out", str(tmp_path),
                   "--resolution", "8x8")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "pattern.csv").read_text().strip().splitlines()
    for row in rows[1:]:
        assert all(cell == "0" for cell in row.split(",")[1:])


def test_tiny_pattern_resolution_contract(tmp_path):
    proc = run_cli("pattern", "--config", str(CONFIGS / "single_subregion.json"),
                   "--out", str(tmp_path), "--resolution", "2x2")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "pattern.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert all(len(r.split(",")) == 3 for r in rows)


def test_cuts_accept_reference_values(tmp_path):
    proc = run_cli("cuts", "--config", str(CONFIGS / "paper_dual_beam.json"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "cut_widths.json").read_text())
    assert len(summary["cuts"]) == 4
    values = {round(c["fixed_value"], 6) for c in summary["cuts"]}
    assert round(-8 * math.pi / 32, 6) in values
    assert round(7 * math.pi / 32, 6) in values
    assert round(-5 * math.pi / 32, 6) in values
    assert round(math.pi / 32, 6) in values
    first = summary["cuts"][0]
    cut_rows = (tmp_path / first["file"]).read_text().strip().splitlines()
    assert cut_rows[0] == "angle_radians,gain_db"
    assert len(cut_rows) == 1 + 1024


def test_cuts_invalid_value_exits_2(tmp_path):
    proc = run_cli("cuts", "--config", str(CONFIGS / "paper_dual_beam.json"),
                   "--out", str(tmp_path), "--cut", "fixed_phi:1.5")
    assert proc.returncode == 2


def test_cuts_malformed_flag_exits_2(tmp_path):
    proc = run_cli("cuts", "--config", str(CONFIGS / "paper_dual_beam.json"),
                   "--out", str(tmp_path), "--cut", "fixed_phi")
    assert proc.returncode == 2
    assert "axis:value" in proc.stderr


def test_compare_needs_two_lobes(tmp_path):
    proc = run_cli("compare", "--config", str(CONFIGS / "single_subregion.json"),
                   "--out", str(tmp_path))
    assert proc.returncode == 3


def test_compare_coincident_lobes_is_zero(tmp_path):
    config = tmp_path / "coincident.json"
    config.write_text(json.dumps({
        "array": {"m_v": 16, "m_h": 16},
        "lobes": [{"phi": "1/16 pi", "theta": "-1/8 pi", "width": "pi/16"},
                  {"phi": "1/16 pi", "theta": "-1/8 pi", "width": "pi/16"}],
        "design": {"eta": "centered"},
    }), encoding="utf-8")
    proc = run_cli("compare", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "comparison.json").read_text())
    assert payload["delta_db"] == pytest.approx(0.0, abs=1e-9)
    assert payload["multi_cover_size"] == payload["single_cover_size"]


def test_compare_grows_with_separation(tmp_path):
    deltas = []
    for i, sep in enumerate(("2/32 pi", "8/32 pi")):
        config = tmp_path / f"sep{i}.json"
        config.write_text(json.dumps({
            "array": {"m_v": 16, "m_h": 16},
            "lobes": [{"phi": 0, "theta": f"-{sep}", "width": "pi/16"},
                      {"phi": 0, "theta": f"{sep}", "width": "pi/16"}],
            "design": {"eta": "centered"},
        }), encoding="utf-8")
        proc = run_cli("compare", "--config", str(config), "--out",
                       str(tmp_path / f"out{i}"))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / f"out{i}" / "comparison.json").read_text())
        deltas.append(payload["delta_db"])
    assert deltas[1] > deltas[0]


def test_compare_phase_only_reports_projected_surfaces(tmp_path):
    """A phase-only scenario compares the projected surfaces of both designs,
    not their feeds, so its comparison differs from the amplitude-controlled one."""
    payloads = {}
    for name in ("paper_dual_beam", "unit_modulus_dual_beam"):
        proc = run_cli("compare", "--config", str(CONFIGS / f"{name}.json"),
                       "--out", str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
        payloads[name] = json.loads((tmp_path / name / "comparison.json").read_text())
    scenario = load_scenario(str(CONFIGS / "unit_modulus_dual_beam.json"))
    cover = rb.cover_set(scenario.spec, scenario.grid, scenario.geom)
    params = rb.centered_eta(scenario.grid, scenario.geom)
    means = []
    for region in (cover, rb.bounding_rectangle_cover(cover, scenario.grid)):
        feed = rb.design_closed_form(region, scenario.grid, scenario.geom, params)
        surface = rb.unit_modulus_project(rb.ris_from_beamformer(
            feed.beamformer, scenario.incident, scenario.geom))
        assert np.all(surface.betas == 1.0)
        means.append(rb.report(surface, cover, scenario.grid,
                               resolution=max(scenario.output.pattern_resolution)
                               ).mean_in_db)
    got = payloads["unit_modulus_dual_beam"]
    assert [got["multi_mean_db"], got["single_mean_db"]] == pytest.approx(means,
                                                                          abs=1e-9)
    assert abs(got["delta_db"] - payloads["paper_dual_beam"]["delta_db"]) > 1.0


def test_link_snr_scales_with_power(tmp_path):
    base_args = ("link", "--config", str(CONFIGS / "single_subregion.json"),
                 "--noise-var", "1e-6", "--m-t", "2", "--m-r", "3")
    proc = run_cli(*base_args, "--tx-power", "1.0", "--out", str(tmp_path / "a"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(*base_args, "--tx-power", "10.0", "--out", str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    a = json.loads((tmp_path / "a" / "link_report.json").read_text())
    b = json.loads((tmp_path / "b" / "link_report.json").read_text())
    for ra, rbb in zip(a["directions"], b["directions"]):
        assert rbb["snr_db"] - ra["snr_db"] == pytest.approx(10.0, abs=1e-9)
        assert ra["gamma_abs"] == rbb["gamma_abs"]


def test_link_in_cover_beats_out_of_cover(tmp_path):
    args = ("link", "--config", str(CONFIGS / "single_subregion.json"),
            "--omega-2", "0.088,0.2", "--omega-2=-0.6,-1.2",
            "--out", str(tmp_path))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "link_report.json").read_text())
    in_cover, out_cover = payload["directions"]
    assert in_cover["snr_db"] > out_cover["snr_db"] + 3.0


def test_link_report_agrees_with_channel_and_snr(tmp_path):
    config_path = CONFIGS / "unit_modulus_dual_beam.json"
    proc = run_cli("link", "--config", str(config_path), "--tx-power", "2.5",
                   "--noise-var", "3e-5", "--m-t", "3", "--m-r", "2",
                   "--rho-t", "0.7", "--rho-r", "-1.3", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "link_report.json").read_text())
    scenario = load_scenario(config_path)
    _, surface, _ = _run_design(scenario)
    assert len(payload["directions"]) == 2
    # The scene's tx and rx angles are arbitrary: the report, which takes
    # none, still matches the channel, so it does not depend on them.
    for entry in payload["directions"]:
        scene = rb.LinkScene(omega_t=rb.SolidAngle(0.1, -0.2),
                             omega_1=scenario.incident,
                             omega_2=rb.SolidAngle(entry["phi"], entry["theta"]),
                             omega_r=rb.SolidAngle(-0.05, 0.3),
                             rho_t=0.7, rho_r=-1.3, m_t=3, m_r=2)
        h = rb.cascaded_channel(scene, surface)
        assert entry["channel_fro_norm"] == pytest.approx(np.linalg.norm(h), rel=1e-12)
        assert entry["snr_db"] == pytest.approx(
            rb.received_snr(scene, surface, 2.5, 3e-5), rel=1e-12)


@pytest.mark.parametrize("flag", ["--omega-t", "--omega-r"])
def test_removed_link_angle_flags_exit_2(tmp_path, flag):
    proc = run_cli("link", "--config", str(CONFIGS / "single_subregion.json"),
                   "--out", str(tmp_path), flag, "0,0")
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag} 0,0" in proc.stderr
    assert not (tmp_path / "link_report.json").exists()


def _flags(command: str) -> set:
    """Every option string the parser accepts for ``command``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions
            for flag in action.option_strings}


# One changed value per link flag; --out only says where the report goes.
LINK_FLAG_CHANGES = {
    "--config": str(CONFIGS / "paper_dual_beam.json"),
    "--tx-power": "2.0",
    "--noise-var": "1e-3",
    "--m-t": "2",
    "--m-r": "2",
    "--rho-t": "0.5",
    "--rho-r": "0.5",
    "--omega-2": "0.1,0.2",
}


def test_every_link_flag_changes_the_report(tmp_path):
    assert _flags("link") == set(LINK_FLAG_CHANGES) | {"--out", "-h", "--help"}

    def report(name, *extra):
        out = tmp_path / name
        assert cli_main(["link", "--config", str(CONFIGS / "single_subregion.json"),
                         "--out", str(out), *extra]) == 0
        return (out / "link_report.json").read_bytes()

    base = report("base")
    for flag, value in LINK_FLAG_CHANGES.items():
        assert report(flag.strip("-"), flag, value) != base, f"{flag} is dead"


@pytest.mark.parametrize("flag,value", [
    ("--tx-power", "nan"), ("--tx-power", "inf"), ("--tx-power", "0"),
    ("--noise-var", "inf"), ("--noise-var", "-1"),
    ("--rho-t", "nan"), ("--rho-t", "0"), ("--rho-r", "inf"), ("--rho-r", "-0"),
])
def test_link_rejects_bad_float_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert cli_main(["link", "--config", str(CONFIGS / "single_subregion.json"),
                     "--out", str(out), f"{flag}={value}"]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _link(tmp_path, name, *extra):
    """In-process link on single_subregion; (exit code, report or None)."""
    out = tmp_path / name
    code = cli_main(["link", "--config", str(CONFIGS / "single_subregion.json"),
                     "--out", str(out), *extra])
    path = out / "link_report.json"
    if not path.exists():
        return code, None

    def reject(constant):
        raise ValueError(f"bare {constant} in link_report.json")
    return code, json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


@pytest.mark.parametrize("extra,shift_db", [
    # 10*log10(1e300) + 10*log10(1e5) - 10*log10(1e-300 / 1e-6) dB
    (("--tx-power", "1e300", "--m-r", "100000", "--noise-var", "1e-300"), 5990.0),
    (("--rho-t", "1e-200", "--rho-r", "1e-200"), -8000.0),
])
def test_link_extreme_flags_write_finite_snr(tmp_path, extra, shift_db):
    """The SNR is summed in logs: flags whose linear product overflows or
    underflows still give the finite SNR, shifted by their dB sum."""
    code, base = _link(tmp_path, "base")
    assert code == 0
    code, report = _link(tmp_path, "extreme", *extra)
    assert code == 0
    for b, e in zip(base["directions"], report["directions"], strict=True):
        assert e["snr_db"] - b["snr_db"] == pytest.approx(shift_db, abs=1e-9)
        assert e["gamma_abs"] == b["gamma_abs"]


@pytest.mark.parametrize("extra", [("--rho-t", "1e200", "--rho-r", "1e200"),
                                   ("--m-r", "1" + "0" * 400)])
def test_link_overflowing_channel_norm_exits_2(tmp_path, capsys, extra):
    code, report = _link(tmp_path, "big", *extra)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert "channel_fro_norm" in err and "--rho-t" in err and "--rho-r" in err


def test_link_null_reflection_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rb.ris, "reflection_coefficient", lambda *_: 0j)
    code, report = _link(tmp_path, "null")
    assert (code, report) == (2, None)
    assert "gamma = 0" in capsys.readouterr().err


def test_link_rejects_bad_angles(tmp_path):
    proc = run_cli("link", "--config", str(CONFIGS / "single_subregion.json"),
                   "--omega-2", "2.5,0", "--out", str(tmp_path))
    assert proc.returncode == 2


@pytest.mark.parametrize("config_name", ["paper_dual_beam", "single_subregion",
                                         "unit_modulus_dual_beam"])
def test_all_commands_deterministic(tmp_path, config_name):
    config = str(CONFIGS / f"{config_name}.json")
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        assert run_cli("design", "--config", config,
                       "--out", str(base / "design")).returncode == 0
        assert run_cli("pattern", "--config", config, "--resolution", "64x64",
                       "--out", str(base / "pattern")).returncode == 0
        if config_name != "single_subregion":
            assert run_cli("compare", "--config", config,
                           "--out", str(base / "compare")).returncode == 0
        assert run_cli("cuts", "--config", config, "--cut-resolution", "256",
                       "--out", str(base / "cuts")).returncode == 0
        assert run_cli("link", "--config", config,
                       "--out", str(base / "link")).returncode == 0
        outputs[run] = sorted(p for p in base.rglob("*") if p.is_file())
    names_a = [p.relative_to(tmp_path / "a") for p in outputs["a"]]
    names_b = [p.relative_to(tmp_path / "b") for p in outputs["b"]]
    assert names_a == names_b
    for rel in names_a:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), f"{rel} differs between runs"


@pytest.mark.parametrize("module", sorted(
    "risbeam" if path.stem == "__init__" else f"risbeam.{path.stem}"
    for path in (REPO / "src" / "risbeam").glob("*.py")))
def test_module_imports_first_in_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
