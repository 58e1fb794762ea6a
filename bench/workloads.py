"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts only when the previous one has returned.  Operations are grouped
into rounds.  A round holds every operation kind of the workload once:
each command on each config (cli-paper, cli-large) or one job per size
slot (design-sweep).  Every round repeats the same operations in a new
seeded order, and the loop only ever measures whole rounds, so the mix of
cheap and expensive operations is the same in every run and for every
seed.  The seed changes the order, the lobe geometry and the points the
oracle checks, never the sizes.

The library is imported lazily by :func:`import_library` so that the
caller controls where ``risbeam`` comes from and when the import is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("cli-paper", "design-sweep", "cli-large")
COMMANDS = ("design", "pattern", "cuts", "compare", "link")
PAPER_CONFIGS = ("paper_dual_beam", "single_subregion", "unit_modulus_dual_beam")
# A comparison needs two lobes; the single-subregion config has one, so the
# CLI rejects it with exit code 3 by design.
EXPECTED_EXIT = {("compare", "single_subregion"): 3}

# cli-large size classes: (aperture per axis, grid per axis, pattern
# resolution per axis, design section).  One config per class per run.
LARGE_CLASSES = (
    (128, 16, 512, {"method": "closed_form", "eta": "centered"}),
    (256, 64, 1024, {"method": "finite_l", "l_v": 16, "l_h": 16,
                     "exact_ls": False, "eta": "centered"}),
)

# design-sweep: one round is one job per slot.  A slot fixes every size
# (aperture, synthesis method, grid, lobe count and width, sampling rate,
# eta mode), so rounds differ only in lobe positions, incident angle and
# order, and a run's cost does not depend on its seed.  "search" is the
# closed form after a select_eta grid search over SEARCH_RESOLUTION**2
# candidate ramps; "approx" jobs also compute dd_h_deviation.
SWEEP_METHODS = ("closed", "approx", "exact", "search")
SWEEP_LOBES = tuple((count, width) for width in
                    (math.pi / 32, math.pi / 16, 3 * math.pi / 32, math.pi / 8)
                    for count in (1, 2, 3, 4))
# Slot i takes lobe plan 5*i mod 16, a fixed permutation that spreads
# lobe counts and widths over apertures, methods and grids.
SWEEP_SLOTS = tuple(
    {"m": m, "method": method, "q": q, "lobes": SWEEP_LOBES[5 * i % 16],
     "l": (4, 8, 16)[i % 3], "eta": ("zero", "centered")[i % 2]}
    for i, (m, method, q) in enumerate(
        (m, method, q) for m in (32, 64) for method in SWEEP_METHODS
        for q in (16, 64)))
SEARCH_RESOLUTION = 5
SWEEP_PATTERN_RESOLUTION = 512

# Every run measures at least this many operations, so that the 75th
# latency percentile has ten samples beyond it.
MIN_SAMPLES = 40


def import_library(src_dir: Path):
    """Import ``risbeam`` from ``src_dir`` and nowhere else."""
    import sys
    sys.path.insert(0, str(src_dir))
    import risbeam
    from risbeam import cli  # noqa: F401  (the CLI workloads call it)
    if Path(risbeam.__file__).resolve().parent != (src_dir / "risbeam").resolve():
        raise ImportError(f"risbeam imported from {risbeam.__file__}, "
                          f"not from {src_dir}")
    return risbeam


@dataclass
class Op:
    """One operation of the closed loop."""

    kind: str
    label: str
    payload: object


# ---------------------------------------------------------------- inputs


# cli-large lobe centres (phi, theta) and width.  The seed shifts both
# centres by one common offset of up to LARGE_JITTER radians per axis:
# `compare` designs a single lobe over the bounding rectangle of both, and
# moving the lobes apart or together would make its cost depend on the seed.
LARGE_CENTRES = ((-0.4, -0.45), (0.4, 0.45))
LARGE_WIDTH = math.pi / 16
LARGE_JITTER = 0.08


def _large_config(rng: np.random.Generator, index: int, m: int, q: int,
                  res: int, design: dict) -> dict:
    """A two-lobe scenario at the given sizes, with seeded lobe positions."""
    d_phi, d_theta = rng.uniform(-LARGE_JITTER, LARGE_JITTER, size=2)
    lobes, cuts = [], []
    for phi0, theta0 in LARGE_CENTRES:
        phi, theta = phi0 + float(d_phi), theta0 + float(d_theta)
        lobes.append({"phi": phi, "theta": theta, "width": LARGE_WIDTH})
        cuts += [{"axis": "fixed_phi", "value": phi},
                 {"axis": "fixed_theta", "value": theta}]
    return {
        "array": {"m_v": m, "m_h": m},
        "grid": {"q_v": q, "q_h": q, "phi_bound": "pi/4", "theta_bound": "pi/2"},
        "lobes": lobes,
        "incident": {"phi": float(rng.uniform(-0.3, 0.3)),
                     "theta": float(rng.uniform(-0.3, 0.3))},
        "design": design,
        "output": {"pattern_resolution": [res, res], "cuts": cuts,
                   "dir": f"large_{index}"},
    }


# Lobe centres of a sweep job: one per quadrant of the coverage range, in
# seeded quadrant order, each jittered by up to SWEEP_JITTER radians.  Lobes
# never overlap or leave the coverage range, and every lobe maps to about
# the same number of cells whatever the seed, so a job's cost depends on
# its slot, not on where the seed put its lobes.
SWEEP_CENTRES = ((-0.35, -0.55), (-0.35, 0.55), (0.35, -0.55), (0.35, 0.55))
SWEEP_JITTER = 0.08


def _sweep_job(rng: np.random.Generator, slot: dict) -> dict:
    """One design-sweep job: the slot's sizes at seeded lobe positions."""
    count, width = slot["lobes"]
    lobes = [(SWEEP_CENTRES[i][0] + float(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)),
              SWEEP_CENTRES[i][1] + float(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)),
              width)
             for i in rng.permutation(len(SWEEP_CENTRES))[:count]]
    eta = {"closed": slot["eta"], "search": "search"}.get(slot["method"], "centered")
    return {"m": slot["m"], "method": slot["method"], "eta": eta, "q": slot["q"],
            "l": slot["l"], "lobes": lobes,
            "incident": (float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)))}


def generate_inputs(workload: str, seed: int, root: Path, work_dir: Path) -> dict:
    """Every input a run needs, from the seed alone.

    ``ops`` is one round of operations; every round runs the same ops in
    a new seeded order, so repeats of an op kind are true repeats.  Config
    files (cli-large) are written under ``work_dir``; nothing else touches
    the disk.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "design-sweep":
        ops = [Op("job", f"{slot['m']}x{slot['m']}-{slot['method']}-q{slot['q']}",
                  _sweep_job(rng, slot)) for slot in SWEEP_SLOTS]
        return {"rng": rng, "configs": {}, "ops": ops}
    if workload == "cli-paper":
        configs = {name: root / "configs" / f"{name}.json" for name in PAPER_CONFIGS}
    elif workload == "cli-large":
        configs = {}
        for i, (m, q, res, design) in enumerate(LARGE_CLASSES):
            name = f"large_{i}_{m}x{m}_q{q}_r{res}"
            configs[name] = work_dir / f"{name}.json"
            configs[name].write_text(json.dumps(
                _large_config(rng, i, m, q, res, design), indent=1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = [Op(cmd, f"{cmd}:{name}", name) for name in configs for cmd in COMMANDS]
    return {"rng": rng, "configs": configs, "ops": ops}


def make_round(inputs: dict) -> list:
    """The next round: the run's ops in a new seeded order."""
    ops = inputs["ops"]
    return [ops[i] for i in inputs["rng"].permutation(len(ops))]


def warmup_ops(workload: str, inputs: dict) -> list:
    """First calls of each code path, on the first config or the 32x32 aperture.

    First calls run several times slower than later ones (lazy imports,
    first allocations), so these are run and discarded before timing.
    """
    if workload == "design-sweep":
        rng = np.random.default_rng(0)
        return [Op("job", f"warmup-32x32-{slot['method']}", _sweep_job(rng, slot))
                for slot in SWEEP_SLOTS if slot["m"] == 32 and slot["q"] == 16]
    first = next(iter(inputs["configs"]))
    return [Op(cmd, f"warmup-{cmd}:{first}", first) for cmd in COMMANDS]


# ----------------------------------------------------------- operations


class Runner:
    """Runs operations of one workload and checks each result with the oracle."""

    def __init__(self, inputs: dict, rb, out_dir: Path, seed: int):
        self.inputs = inputs
        self.rb = rb
        self.out_dir = out_dir
        self.check_rng = np.random.default_rng([seed, 7])
        self.references = {}

    def prepare(self):
        """Untimed reference design run per config, read by the oracle."""
        for name, path in self.inputs["configs"].items():
            ref_dir = self.out_dir / "reference" / name
            code = self._cli(["design", "--config", str(path), "--out", str(ref_dir)])
            if code != 0:
                raise RuntimeError(f"reference design of {name} exited {code}")
            self.references[name] = oracle.Reference.load(path, ref_dir)

    def _cli(self, argv: list) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.rb.cli.main(argv)

    def run(self, op: Op):
        """Execute one operation; returns what :meth:`check` needs."""
        if op.kind == "job":
            return self._job(op.payload)
        name = op.payload
        out = self.out_dir / name
        return self._cli([op.kind, "--config", str(self.inputs["configs"][name]),
                          "--out", str(out)])

    def check(self, op: Op, outcome) -> str | None:
        """None when the outputs are right, else what is wrong."""
        if op.kind == "job":
            return oracle.check_sweep_job(outcome)
        name = op.payload
        expected = EXPECTED_EXIT.get((op.kind, name), 0)
        if outcome != expected:
            return f"exit code {outcome}, expected {expected}"
        if expected != 0:
            return None
        return oracle.check_command(op.kind, self.out_dir / name,
                                    self.references[name], self.check_rng)

    def _job(self, job: dict) -> dict:
        """Library-only design job: cover, eta, synthesis, surface, sampling, stats."""
        rb = self.rb
        geom = rb.ArrayGeometry(m_v=job["m"], m_h=job["m"])
        xi_b, zeta_b = rb.psi_bounds(geom, math.pi / 4, math.pi / 2)
        grid = rb.make_grid(job["q"], job["q"], xi_b, zeta_b)
        spec = rb.MultiBeamSpec(tuple(rb.Lobe.around(phi, theta, width)
                                      for phi, theta, width in job["lobes"]))
        cover = rb.cover_set(spec, grid, geom)
        if job["eta"] == "search":
            params = rb.select_eta(cover, grid, geom, SEARCH_RESOLUTION)
        elif job["eta"] == "centered":
            params = rb.centered_eta(grid, geom)
        else:
            params = rb.EqualGainParams()
        if job["method"] in ("closed", "search"):
            result = rb.design_closed_form(cover, grid, geom, params)
        else:
            result = rb.design_finite_l(cover, grid, geom, params, l_v=job["l"],
                                        l_h=job["l"],
                                        exact_ls=job["method"] == "exact")
        config = rb.ris_from_beamformer(result.beamformer,
                                        rb.SolidAngle(*job["incident"]), geom)
        pattern = rb.sample_pattern(config, SWEEP_PATTERN_RESOLUTION)
        rep = rb.report_from_pattern(pattern, cover, grid)
        components = rb.connected_components_above(
            pattern, result.ideal.level_t / 10 ** 0.3)
        deviation = rb.dd_h_deviation(grid, geom, job["l"], job["l"]) \
            if job["method"] == "approx" else None
        return {"feed": result.beamformer.entries, "m": job["m"],
                "leakage": rep.leakage_fraction, "mean_db": rep.mean_in_db,
                "components": components, "deviation": deviation}
