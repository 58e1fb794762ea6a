import json
import math
from pathlib import Path

import pytest

import risbeam as rb
from risbeam import cli
from risbeam.scenario import (ConfigError, build_scenario, load_scenario,
                              parse_angle, resolve_eta)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("text,expected", [
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/4", math.pi / 4),
    ("-pi/2", -math.pi / 2),
    ("1/16 pi", math.pi / 16),
    ("-8/32 pi", -math.pi / 4),
    ("7/32 pi", 7 * math.pi / 32),
    ("2 pi", 2 * math.pi),
    ("0.5 pi", math.pi / 2),
    ("3*pi", 3 * math.pi),
    ("0.25", 0.25),
    ("-1.5", -1.5),
])
def test_parse_angle_forms(text, expected):
    assert parse_angle(text) == pytest.approx(expected, rel=1e-15)


def test_parse_angle_numbers_pass_through():
    assert parse_angle(0.75) == 0.75
    assert parse_angle(2) == 2.0


def test_parse_angle_rejects_junk():
    for bad in ("pie", "pi/0", "one pi", [], None):
        with pytest.raises(ConfigError):
            parse_angle(bad, "field")


def test_defaults_are_reference_constants():
    scenario = build_scenario({"lobes": [{"phi": 0, "theta": 0, "width": "pi/16"}]})
    assert scenario.geom.m_v == 32 and scenario.geom.m_h == 32
    assert scenario.geom.d_x_over_lambda == 0.5
    assert scenario.grid.q_v == 16 and scenario.grid.q_h == 16
    assert scenario.grid.xi_bound == pytest.approx(math.pi * math.sqrt(2) / 2,
                                                   abs=1e-12)
    assert scenario.grid.zeta_bound == pytest.approx(math.pi, abs=1e-12)
    assert scenario.incident == rb.SolidAngle(0.0, 0.0)
    assert scenario.design.method == "closed_form"
    assert scenario.design.eta_mode == "zero"
    assert scenario.effective["grid"]["q_v"] == 16


def test_psi_rect_lobe_parses():
    scenario = build_scenario({
        "lobes": [{"xi": [0.0, 0.4], "zeta": ["-1/8 pi", 0.2]}],
    })
    rect = scenario.spec.lobes[0].rects[0]
    assert rect.xi_max == pytest.approx(0.4)
    assert rect.zeta_min == pytest.approx(-math.pi / 8)


def test_anisotropic_widths():
    scenario = build_scenario({
        "lobes": [{"phi": 0, "theta": 0, "width_phi": "pi/8", "width_theta": "pi/4"}],
    })
    rect = scenario.spec.lobes[0].rects[0]
    assert rect.phi_max - rect.phi_min == pytest.approx(math.pi / 8)
    assert rect.theta_max - rect.theta_min == pytest.approx(math.pi / 4)


LOBE = {"phi": 0, "theta": 0}

# Input errors the design stage used to report (exit 3) or crash on (exit 1):
# JSON booleans read as numbers, a non-string output directory, counts < 1.
LOADER_GAPS = [
    ({"array": {"m_v": True}}, "array.m_v"),
    ({"grid": {"q_v": True}}, "grid.q_v"),
    ({"array": {"d_x_over_lambda": True}}, "array.d_x_over_lambda"),
    ({"output": {"dir": 5}}, "output.dir"),
    ({"design": {"l_v": 0}}, "design.l_v"),
    ({"design": {"method": "finite_l", "l_h": -3}}, "design.l_h"),
    ({"design": {"eta": {"search_resolution": 0}}}, "design.eta.search_resolution"),
]

# Non-finite numbers (JSON's NaN/Infinity, "nan"/"inf" angles, an int beyond any
# float), which the design stage used to report (exit 3) or crash on (exit 1).
NON_FINITE = [
    ({"grid": {"xi_bound": "inf"}}, "grid.xi_bound"),
    ({"grid": {"xi_bound": math.nan}}, "grid.xi_bound"),
    ({"grid": {"phi_bound": "nan"}}, "grid.phi_bound"),
    ({"lobes": [{**LOBE, "width": "inf"}]}, "lobes[0].width"),
    ({"lobes": [{**LOBE, "phi": math.nan}]}, "lobes[0].phi"),
    ({"design": {"eta": {"eta_v": "nan", "eta_h": 0}}}, "design.eta.eta_v"),
    ({"array": {"d_x_over_lambda": math.nan}}, "array.d_x_over_lambda"),
    ({"array": {"d_x_over_lambda": math.inf}}, "array.d_x_over_lambda"),
    ({"array": {"d_z_over_lambda": 10 ** 400}}, "array.d_z_over_lambda"),
    ({"incident": {"phi": math.inf}}, "incident.phi"),
]


@pytest.mark.parametrize("raw,fragment", [
    ({"lobes": []}, "lobes"),
    ({"lobes": [{"phi": 0}]}, "lobes[0]"),
    ({"lobes": [{"xi": [0, 1]}]}, "lobes[0]"),
    ({"lobes": [{"phi": 0, "theta": 0}], "array": {"m_v": "big"}}, "array.m_v"),
    ({"lobes": [{"phi": 0, "theta": 0}], "design": {"method": "magic"}},
     "design.method"),
    ({"lobes": [{"phi": 0, "theta": 0}], "design": {"eta": "sideways"}},
     "design.eta"),
    ({"lobes": [{"phi": 0, "theta": 0}],
      "output": {"pattern_resolution": [1, 4]}}, "pattern_resolution"),
    ({"lobes": [{"phi": 0, "theta": 0}],
      "output": {"cuts": [{"axis": "diagonal", "value": 0}]}}, "axis"),
] + [({"lobes": [LOBE], **raw}, fragment) for raw, fragment in LOADER_GAPS + [
    ({"array": {"m_h": False}}, "array.m_h"),
    ({"array": {"d_z_over_lambda": False}}, "array.d_z_over_lambda"),
    ({"grid": {"q_h": True}}, "grid.q_h"),
    ({"grid": {"phi_bound": True}}, "grid.phi_bound"),
    ({"incident": {"phi": True}}, "incident.phi"),
    ({"design": {"l_v": True}}, "design.l_v"),
    ({"design": {"eta": {"search_resolution": True}}}, "design.eta.search_resolution"),
    ({"lobes": [{**LOBE, "width": False}]}, "lobes[0].width"),
    ({"output": {"dir": None}}, "output.dir"),
] + NON_FINITE])
def test_config_errors_name_the_field(raw, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
        build_scenario(raw)


@pytest.mark.parametrize("raw,fragment", LOADER_GAPS + NON_FINITE)
def test_loader_errors_exit_2(tmp_path, monkeypatch, capsys, raw, fragment):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"lobes": [LOBE], **raw}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["design", "--config", str(config)]) == 2
    assert fragment in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_invalid_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "lobes": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(str(bad))


def test_eta_modes(dual_beam_cover):
    base = {"lobes": [{"phi": 0, "theta": 0, "width": "pi/16"}]}
    zero = build_scenario(base)
    assert resolve_eta(zero, dual_beam_cover) == rb.EqualGainParams()

    centered = build_scenario({**base, "design": {"eta": "centered"}})
    params = resolve_eta(centered, dual_beam_cover)
    assert params == rb.centered_eta(centered.grid, centered.geom)

    explicit = build_scenario({**base,
                               "design": {"eta": {"eta_v": "-1/4 pi",
                                                  "eta_h": 0.5}}})
    params = resolve_eta(explicit, dual_beam_cover)
    assert params.eta_v == pytest.approx(-math.pi / 4)
    assert params.eta_h == 0.5


def test_shipped_configs_parse():
    for name in ("paper_dual_beam", "single_subregion", "unit_modulus_dual_beam"):
        scenario = load_scenario(str(CONFIG_DIR / f"{name}.json"))
        assert scenario.output.pattern_resolution[0] >= 2
    dual = load_scenario(str(CONFIG_DIR / "paper_dual_beam.json"))
    assert len(dual.spec.lobes) == 2
    assert len(dual.output.cuts) == 4
    assert not dual.design.unit_modulus
    assert load_scenario(
        str(CONFIG_DIR / "unit_modulus_dual_beam.json")).design.unit_modulus
