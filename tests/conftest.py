import atexit
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration, settings

import risbeam as rb

# pytest imports risbeam from src/ (pyproject's `pythonpath`); the CLI tests'
# child interpreters get the same directory, so an uninstalled checkout
# tests its own sources end to end.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches constants read from the sources (and
# writes patches for failures), so its home is a temporary directory removed
# at exit: a run leaves no .hypothesis/ directory behind.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


@pytest.fixture(scope="session")
def ref_geom():
    return rb.ArrayGeometry(m_v=32, m_h=32)


@pytest.fixture(scope="session")
def ref_grid(ref_geom):
    xi_b, zeta_b = rb.psi_bounds(ref_geom, math.pi / 4, math.pi / 2)
    return rb.make_grid(16, 16, xi_b, zeta_b)


@pytest.fixture(scope="session")
def dual_beam_spec():
    return rb.MultiBeamSpec((
        rb.Lobe.around(-8 * math.pi / 32, -5 * math.pi / 32, math.pi / 16),
        rb.Lobe.around(7 * math.pi / 32, math.pi / 32, math.pi / 16),
    ))


@pytest.fixture(scope="session")
def dual_beam_cover(dual_beam_spec, ref_grid, ref_geom):
    return rb.cover_set(dual_beam_spec, ref_grid, ref_geom)
