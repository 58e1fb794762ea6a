"""Write every CLI output of a fixed set of inputs, for byte comparison of two trees.

Usage: python3 scripts/cli_snapshot.py OUT_DIR

Runs all five commands (design, pattern, cuts, compare, link) with their
default flags on the three shipped configs and on the two cli-large
configs that ``bench/workloads.generate_inputs`` builds from seed 5.  Each
command writes into ``OUT_DIR/<config>/<command>/``, and
``OUT_DIR/exit_codes.json`` records every exit code.  ``risbeam`` is
imported from the ``src/`` beside this script, so two checkouts give two
snapshots, and ``diff -r`` of those is empty when every output byte and
exit code agrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 scripts/cli_snapshot.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from risbeam import cli

    codes = {}
    with tempfile.TemporaryDirectory() as work_dir:
        configs = dict(workloads.generate_inputs("cli-paper", SEED, ROOT,
                                                 Path(work_dir))["configs"])
        configs.update(workloads.generate_inputs("cli-large", SEED, ROOT,
                                                 Path(work_dir))["configs"])
        for name, path in configs.items():
            for command in workloads.COMMANDS:
                dest = out_dir / name / command
                with contextlib.redirect_stderr(io.StringIO()):
                    codes[f"{name}/{command}"] = cli.main(
                        [command, "--config", str(path), "--out", str(dest)])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
