"""The package imports of scipy only its sparse matrices and sparse LU:
quadrature rules, the holed-box triangulation and the grouping of walls
into holes are numpy code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import swehdg

ALLOWED_SCIPY = {"scipy.sparse", "scipy.sparse.linalg"}
UNUSED = ("scipy.special", "scipy.spatial", "scipy.sparse.csgraph")

HOLED_RUN = """
[problem]
preset = moving_bump
degree = 1

[mesh]
kind = rect_hole
bounds = -10, 10, -10, 10
center = 3, 0
radius = 1.0
target_h = 2.0
periodic = both

[time]
final_time = 0.2
dt = 0.1
integrator = midpoint
"""

_RUN = ("import sys\n"
        "from swehdg.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        f"print(rc, *sorted(m for m in {UNUSED!r} if m in sys.modules))")


def _scipy_imports(path):
    """(line, module) of every scipy module a source file imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from scipy import sparse`` imports scipy.sparse
            names = [node.module] if node.module != "scipy" else [
                f"scipy.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] == "scipy"]
    return found


def test_package_imports_only_sparse_scipy():
    found = {f"{path.name}:{line} {name}"
             for path in Path(swehdg.__file__).parent.glob("*.py")
             for line, name in _scipy_imports(path)
             if name not in ALLOWED_SCIPY}
    assert not found


def test_a_holed_run_leaves_special_spatial_and_csgraph_unimported(tmp_path):
    cfg = tmp_path / "holed.ini"
    cfg.write_text(HOLED_RUN)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(swehdg.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _RUN, "run", "--config", str(cfg),
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0"], proc.stdout + proc.stderr
    assert (tmp_path / "timeseries.csv").exists()
