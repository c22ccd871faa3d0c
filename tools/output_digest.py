"""Digests of resplan's deterministic outputs, one per command.

    python tools/output_digest.py

Runs a fixed set of ``resplan`` commands in this process, through
``resplan.cli.main`` from this checkout's ``src/``, each writing into a fresh
temporary directory: the model table, GA solves of 1 to 5 requests on the
default fleet and of 3 and 10 requests on 70 devices, the two-device exact
solves, the default and 70-device simulations of seeds 0 to 2, and the four
sweep presets.  For each command it prints the sha256 of its exit code and of
every file it wrote (names and bytes, in name order), then the sha256 of
all of them.  Run it on two commits and compare: equal digests mean
byte-identical outputs.  It exits 1 when a command does not exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXACT_2DEV = ("--set", "solver.kind=exact", "--set", "fleet.devices=2",
              "--set", "solver.max_candidates=1179648")
LARGE_FLEET = ("--set", "fleet.devices=70")
PRESETS = ("sweep_weights", "sweep_energy", "sweep_compute", "sweep_request_rate")


def commands() -> list[tuple[str, ...]]:
    """Each command's arguments, without its output flag."""
    out = [("model",)]
    out += [("solve", "--explain", "--requests", str(r), "--round", str(k))
            for r in range(1, 6) for k in range(4)]
    out += [("solve", "--explain", *LARGE_FLEET, "--requests", "3", "--round", str(k))
            for k in range(2)]
    # The widest split of a generation into chunks: 10 requests on 70 devices.
    out.append(("solve", "--explain", *LARGE_FLEET, "--requests", "10", "--round", "0"))
    out += [("solve", "--explain", *EXACT_2DEV, "--requests", "1", "--round", str(k))
            for k in range(2)]
    for seed in range(3):
        out.append(("simulate", "--seed", str(seed)))
        out.append(("simulate", *LARGE_FLEET, "--set", "scenario.rounds=3", "--seed", str(seed)))
    out += [("sweep", "--preset", p) for p in PRESETS]
    return out


def digest(main, args: tuple[str, ...], out_dir: Path) -> tuple[str, int]:
    """Run one command into ``out_dir``; the sha256 of its exit code and
    files, and the exit code.  Its standard output names the directory, so
    it is not hashed."""
    out_flag = ("--output", str(out_dir / "out")) if args[0] in ("model", "solve") else (
        "--output-dir", str(out_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*args, *out_flag])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(f"{path.relative_to(out_dir)}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest(), code


def main() -> int:
    sys.path.insert(0, str(SRC))
    from resplan.cli import main as resplan_main

    total, failed = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(commands()):
            out_dir = Path(tmp) / str(i)
            out_dir.mkdir()
            sha, code = digest(resplan_main, args, out_dir)
            total.update(sha.encode())
            failed += code != 0
            print(f"{sha}  {' '.join(args)}" + (f"  (exit {code})" if code else ""), flush=True)
    print(f"{total.hexdigest()}  total")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
