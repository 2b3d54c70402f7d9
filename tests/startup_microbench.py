"""Start-up microbenchmark: the time `import flaremon.cli` takes after
`import numpy`, in fresh interpreters, for two checkouts in turn.

Run from the repository root, naming the other checkout's root:

    python tests/startup_microbench.py ../flaremon-before [N]

Each of N rounds runs one interpreter per checkout and mode, alternating
the checkouts, so that a drift of the host's speed falls on both alike.
Each checkout's `src` is copied, without bytecode, to a temporary
directory first.  The two modes:

- from source: `PYTHONDONTWRITEBYTECODE=1`, so flaremon's modules are
  compiled on every run, and the standard library and numpy come from
  their installed bytecode;
- cached: each checkout's own `PYTHONPYCACHEPREFIX` under the temporary
  directory, filled by one run before the timed ones, as an installed
  package's bytecode would be.

numpy is imported, untimed, before the clock starts, and BLAS is pinned to
one thread as `perfbench` pins it.  Prints the best and the median of the
N runs per checkout and mode, in ms (N = 7 by default).  pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = ("import time, numpy\n"
         "t = time.perf_counter()\n"
         "import flaremon.cli\n"
         "print(time.perf_counter() - t)\n")


def import_seconds(src: str, cache) -> float:
    """One fresh interpreter's `import flaremon.cli` time from `src`, in
    seconds.  `cache` is a bytecode directory to read and fill, or None to
    compile flaremon from source."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONPYCACHEPREFIX", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 1
    roots = {"this": Path(__file__).resolve().parents[1],
             "other": Path(argv[0]).resolve()}
    n = int(argv[1]) if len(argv) > 1 else 7
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        srcs = {name: os.path.join(tmp, name, "src") for name in roots}
        caches = {name: os.path.join(tmp, name, "cache") for name in roots}
        for name, root in roots.items():
            shutil.copytree(root / "src", srcs[name],
                            ignore=shutil.ignore_patterns("__pycache__"))
            import_seconds(srcs[name], caches[name])  # fill the cache
        times = {(name, mode): [] for name in roots
                 for mode in ("source", "cached")}
        for _ in range(n):
            for name in roots:
                times[name, "source"].append(import_seconds(srcs[name], None))
                times[name, "cached"].append(
                    import_seconds(srcs[name], caches[name]))
    for (name, mode), secs in times.items():
        print(f"{name:<5} {mode:<6} best {min(secs) * 1e3:6.1f} ms  "
              f"median {statistics.median(secs) * 1e3:6.1f} ms  "
              f"({roots[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
