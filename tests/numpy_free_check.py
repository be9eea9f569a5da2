"""The numpy-free half of the CLI, checked on any Python the package supports.

``bound --json`` and ``curve`` on a family task read no table, so they load
no numpy.  This script runs both on one task of each family through
``cli.main`` in one process, hashes their stdout and compares the hash with
the one pinned below.  It needs the standard library and the package only:

    PYTHONPATH=src python tests/numpy_free_check.py

It exits 0 when the hash matches and numpy stayed unloaded, and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from sfebounds import cli

TASKS = (
    ["--family", "knot", "--alphabet", "2", "--n", "4", "--k", "2"],
    ["--family", "ot", "--alphabet", "2", "--n", "3"],
    ["--family", "xot", "--n", "3"],
    ["--family", "eq", "--n", "5"],
    ["--family", "ip", "--n", "6"],
    ["--family", "mp", "--n", "100000"],
)
# the same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0
PINNED_SHA256 = "8cbeac4a89889a220144103c6b3192f9631596e4cd8b7d917066eed0cd08013d"


def digest() -> str:
    """SHA-256 over the stdout of ``bound --json`` and ``curve`` on each task,
    in order; a command that exits nonzero is an error."""
    sha = hashlib.sha256()
    for task in TASKS:
        for argv in (["bound", *task, "--json"], ["curve", *task]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            sha.update(out.getvalue().encode())
    return sha.hexdigest()


def main() -> int:
    got = digest()
    numpy = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
    if numpy:
        print(f"numpy was imported: {', '.join(numpy[:3])}", file=sys.stderr)
        return 1
    if got != PINNED_SHA256:
        print(f"SHA-256 {got}, pinned {PINNED_SHA256}", file=sys.stderr)
        return 1
    print(f"ok: {2 * len(TASKS)} commands, SHA-256 {got}, Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
