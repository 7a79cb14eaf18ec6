"""One ``qnr`` CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py RESULT SRC TRACE -- <qnr arguments>

Imports ``qnr.cli`` from SRC and calls ``cli.main`` with the arguments, as
the ``qnr`` console script does.  RESULT receives a JSON record with
``time.monotonic`` readings, which the parent process compares with its
own spawn time (the clock is system-wide):

- ``t_setup``: the first call from ``cli`` into ``reservoir`` or ``tipc``,
  i.e. after imports, config assembly and drawing the inputs;
- ``t_return``: the return of ``cli.main``;
- ``peak_rss_kib``: peak resident memory of this process at that point;
- ``spans``: with TRACE=1, every span of the functions ``spans.TRACED``.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    result_path, src = argv[0], Path(argv[1]).resolve()
    trace = argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: child.py RESULT SRC TRACE -- ARGS")
    rec = {"t_start": T_START, "t_setup": None, "t_return": None, "error": None}

    def finish():
        with open(result_path, "w") as fh:
            json.dump(rec, fh)

    def mark_setup():
        rec["t_setup"] = time.monotonic()

    sys.path.insert(0, str(src))
    try:
        t0 = time.monotonic()
        import qnr.cli as cli
        t1 = time.monotonic()
        if src not in Path(cli.__file__).resolve().parents:
            raise RuntimeError(f"qnr imported from {cli.__file__}, not {src}")
        import spans
        if trace:
            tracer = spans.Tracer()
            tracer.add("import", t0, t1)
            tracer.install()
        spans.install_setup_marker(cli, mark_setup)
        rc = cli.main(argv[4:])
        rec["t_return"] = time.monotonic()
        rec["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec["versions"] = _versions()
        if trace:
            rec["spans"] = tracer.to_json()
    except BaseException:
        rec["error"] = traceback.format_exc()
        finish()
        raise
    finish()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
