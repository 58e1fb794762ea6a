"""Independent output oracle for the benchmark, written against numpy only.

It never imports ``risbeam``.  It re-derives gains by a direct sum over
array elements,

    g(xi, zeta) = |sum_{m_v, m_h} w[m_v, m_h] exp(-j (m_v xi + m_h zeta))|^2,

from the surface coefficients of an untimed reference ``design`` run
(``ris_coefficients.csv``) and the scenario JSON, and compares the result
with what the CLI wrote at seeded sample points.  Library jobs are checked
by invariants: a unit-norm feed, the Parseval gain integral (2 pi)^2 on an
exact full-period quadrature, and leakage inside [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
DB_FLOOR_LIN = 1e-12        # the CLI clips gains at -120 dB
PATTERN_POINTS = 24
CUT_POINTS = 8
RTOL = 1e-7


def angle(value) -> float:
    """Radians from a number, or from strings like '-8/32 pi', 'pi/16', '0.3'."""
    if isinstance(value, (int, float)):
        return float(value)
    text = value.replace(" ", "").replace("*", "")
    if "pi" not in text:
        return float(text)
    before, after = text.split("pi")
    if before in ("", "+", "-"):
        coef = -1.0 if before == "-" else 1.0
    elif "/" in before:
        num, den = before.split("/")
        coef = float(num) / float(den)
    else:
        coef = float(before)
    if after:
        coef /= float(after.lstrip("/"))
    return coef * math.pi


def _psi(phi: float, theta: float, d_x: float, d_z: float) -> tuple:
    return (TWO_PI * d_z * math.sin(phi),
            TWO_PI * d_x * math.sin(theta) * math.cos(phi))


def direct_gain(weights: np.ndarray, xi: float, zeta: float) -> float:
    """|d(xi, zeta)^H w|^2 summed element by element."""
    m_v, m_h = weights.shape
    phase = np.arange(m_v)[:, None] * xi + np.arange(m_h)[None, :] * zeta
    return float(abs(np.sum(weights * np.exp(-1j * phase))) ** 2)


def _close(measured: float, expected: float, scale: float) -> bool:
    return abs(measured - expected) <= 1e-9 * scale + RTOL * abs(expected)


@dataclass
class Reference:
    """Surface coefficients and geometry of one scenario, read from disk."""

    coefficients: np.ndarray     # beta * exp(j theta), shape (m_v, m_h)
    weights: np.ndarray          # normalized effective weights: what radiates
    incident_psi: tuple
    d_x: float
    d_z: float
    table: bytes                 # ris_coefficients.csv as written

    @classmethod
    def load(cls, config_path: Path, design_dir: Path) -> "Reference":
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        array = raw.get("array", {})
        m_v, m_h = int(array.get("m_v", 32)), int(array.get("m_h", 32))
        d_x = float(array.get("d_x_over_lambda", 0.5))
        d_z = float(array.get("d_z_over_lambda", 0.5))
        inc = raw.get("incident", {})
        incident_psi = _psi(angle(inc.get("phi", 0.0)), angle(inc.get("theta", 0.0)),
                            d_x, d_z)
        table = (Path(design_dir) / "ris_coefficients.csv").read_bytes()
        rows = np.array([line.split(",") for line in table.decode().split("\n")[1:-1]],
                        dtype=float)
        if rows.shape != (m_v * m_h, 4):
            raise ValueError(f"coefficient table has shape {rows.shape}")
        order = (rows[:, 0] * m_h + rows[:, 1]).astype(int)
        coeff = np.empty(m_v * m_h, dtype=complex)
        coeff[order] = rows[:, 2] * np.exp(1j * rows[:, 3])
        coeff = coeff.reshape(m_v, m_h)
        # The surface re-radiates the coefficients times the incident phase.
        phase_in = (np.arange(m_v)[:, None] * incident_psi[0]
                    + np.arange(m_h)[None, :] * incident_psi[1])
        eff = coeff * np.exp(1j * phase_in)
        return cls(coefficients=coeff, weights=eff / np.linalg.norm(eff),
                   incident_psi=incident_psi, d_x=d_x, d_z=d_z, table=table)

    @property
    def m(self) -> int:
        return self.coefficients.size


def sample_points(n_rows: int, n_cols: int, rng: np.random.Generator,
                  count: int) -> list:
    """Seeded (row, column) pairs of a table body."""
    return [(int(r), int(c)) for r, c in zip(rng.integers(n_rows, size=count),
                                              rng.integers(n_cols, size=count))]


def check_pattern(path: Path, ref: Reference, rng: np.random.Generator,
                  points: list | None = None) -> str | None:
    """Compare pattern.csv (dB) with direct-sum gains at body cells.

    The cells are ``points`` when given, else PATTERN_POINTS seeded ones.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")[:-1]
    zeta = lines[0].split(",")[1:]
    if points is None:
        points = sample_points(len(lines) - 1, len(zeta), rng, PATTERN_POINTS)
    for r, c in points:
        row = lines[1 + r].split(",")
        xi, z = float(row[0]), float(zeta[c])
        got = 10.0 ** (float(row[1 + c]) / 10.0)
        want = max(direct_gain(ref.weights, xi, z), DB_FLOOR_LIN)
        if not _close(got, want, ref.m):
            return f"pattern.csv[{r},{c}] gain {got!r}, oracle {want!r}"
    return None


def _check_cuts(out_dir: Path, ref: Reference, rng) -> str | None:
    summary = json.loads((out_dir / "cut_widths.json").read_text(encoding="utf-8"))
    kappa_z, kappa_x = TWO_PI * ref.d_z, TWO_PI * ref.d_x
    for entry in summary["cuts"]:
        body = (out_dir / entry["file"]).read_text(encoding="utf-8").split("\n")[1:-1]
        fixed = float(entry["fixed_value"])
        for i in rng.integers(len(body), size=CUT_POINTS):
            a, g_db = (float(v) for v in body[i].split(","))
            if entry["axis"] == "fixed_phi":
                xi, zeta = kappa_z * math.sin(fixed), kappa_x * math.sin(a) * math.cos(fixed)
            else:
                xi, zeta = kappa_z * math.sin(a), kappa_x * math.sin(fixed) * math.cos(a)
            want = max(direct_gain(ref.weights, xi, zeta), DB_FLOOR_LIN)
            if not _close(10.0 ** (g_db / 10.0), want, ref.m):
                return f"{entry['file']} row {i}: {g_db} dB, oracle {10 * math.log10(want)} dB"
    return None


def _check_link(out_dir: Path, ref: Reference) -> str | None:
    report = json.loads((out_dir / "link_report.json").read_text(encoding="utf-8"))
    m_v, m_h = ref.coefficients.shape
    for d in report["directions"]:
        xi2, zeta2 = _psi(d["phi"], d["theta"], ref.d_x, ref.d_z)
        phase = (np.arange(m_v)[:, None] * (ref.incident_psi[0] - xi2)
                 + np.arange(m_h)[None, :] * (ref.incident_psi[1] - zeta2))
        want = abs(np.sum(ref.coefficients * np.exp(1j * phase)))
        if not _close(d["gamma_abs"], want, ref.m):
            return f"link gamma_abs {d['gamma_abs']!r}, oracle {want!r}"
    return None


def _check_compare(out_dir: Path) -> str | None:
    payload = json.loads((out_dir / "comparison.json").read_text(encoding="utf-8"))
    values = [payload[k] for k in ("multi_mean_db", "single_mean_db", "delta_db")]
    if not all(math.isfinite(v) for v in values):
        return f"non-finite comparison {values}"
    if abs(values[0] - values[1] - values[2]) > 1e-9:
        return "delta_db is not multi_mean_db - single_mean_db"
    return None


def check_command(command: str, out_dir: Path, ref: Reference, rng) -> str | None:
    """None when a CLI command's outputs in ``out_dir`` agree with the oracle."""
    out_dir = Path(out_dir)
    if command == "design":
        if (out_dir / "ris_coefficients.csv").read_bytes() != ref.table:
            return "ris_coefficients.csv differs from the reference design run"
        return None
    if command == "pattern":
        return check_pattern(out_dir / "pattern.csv", ref, rng)
    if command == "cuts":
        return _check_cuts(out_dir, ref, rng)
    if command == "compare":
        return _check_compare(out_dir)
    if command == "link":
        return _check_link(out_dir, ref)
    raise ValueError(f"unknown command {command!r}")


def check_sweep_job(outcome: dict) -> str | None:
    """Invariants of a library design job's feed and coverage report."""
    feed = np.asarray(outcome["feed"]).reshape(outcome["m"], outcome["m"])
    norm = float(np.linalg.norm(feed))
    if abs(norm - 1.0) > 1e-9:
        return f"feed norm {norm}"
    # Equal-weight quadrature on n >= M samples per axis is exact for the
    # full-period integral of a degree < M trigonometric polynomial.
    n = outcome["m"]
    grid = -math.pi + TWO_PI * np.arange(n) / n
    e = np.exp(-1j * np.outer(grid, np.arange(n)))
    integral = float(np.mean(np.abs(e @ feed @ e.T) ** 2)) * TWO_PI ** 2
    if abs(integral - TWO_PI ** 2) > 1e-9 * TWO_PI ** 2:
        return f"gain integral {integral}, expected (2 pi)^2"
    if not 0.0 <= outcome["leakage"] <= 1.0:
        return f"leakage {outcome['leakage']} outside [0, 1]"
    if not math.isfinite(outcome["mean_db"]):
        return "non-finite mean gain"
    dev = outcome["deviation"]
    if dev is not None and not (math.isfinite(dev) and dev >= 0.0):
        return f"dd_h deviation {dev}"
    return None
