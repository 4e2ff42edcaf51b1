"""One repetition of a workload: a fresh process that calls
``swehdg.cli.main`` once and writes its measurements as JSON.

Usage: python3 perfbench/child.py --result R.json --trace 0|1 -- <cli args>

Untraced (``--trace 0``), the only instrumentation is a timestamp at the
first step call.  Traced (``--trace 1``), every layer boundary listed in
``tracing.py`` records a span; the spans go to ``<result stem>.spans.json``.
"""

import argparse
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                out[Path(path).name] = int(getattr(lib, symbol)())
    return out


def environment():
    import numpy
    import scipy

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": blas_threads(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = [a for a in args.cli_args if a != "--"]

    sys.path.insert(0, str(ROOT / "src"))
    import swehdg
    from swehdg import cli, elliptic, swe

    result = {"package": str(Path(swehdg.__file__).resolve().parent)}
    stamps = []
    tracer = tracing.Tracer() if args.trace else None
    run_main = cli.main
    if tracer is not None:
        tracer.install(cli, swe, elliptic)
        result["missing_hooks"] = tracer.missing
        run_main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    else:
        tracing.install_first_step_clock(cli, stamps)

    start = time.perf_counter()
    try:
        result["rc"] = run_main(cli_args)
    except Exception:
        result["rc"] = None
        result["error"] = traceback.format_exc()
    end = time.perf_counter()

    result["wall_s"] = end - start
    result["setup_s"] = min(stamps) - start if stamps else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and result["rc"] == 0:
        result["layers"], result["absent"] = tracing.summarize(tracer, result["wall_s"])
        spans_path = Path(args.result).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
    result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
