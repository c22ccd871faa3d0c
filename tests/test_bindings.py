"""What the program must keep binding, and what it must not import: every
function ``benchmark/layers.py`` wraps, under the module it wraps it in,
and ``numpy.ma``, whose first import adds about 1.7 MB to peak RSS."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import resplan

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(resplan.__file__).resolve().parents[1]


def test_every_benchmark_layer_resolves_to_a_callable(monkeypatch):
    # A refactor that drops a wrapped name fails here, not only in the
    # benchmark's traced run.
    spec = importlib.util.spec_from_file_location("_bench_layers",
                                                  ROOT / "benchmark" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    missing = [f"{module}.{attr}" for module, attr, _name, _kind in layers.ALL_LAYERS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_solves_and_simulate_leave_numpy_ma_unimported(tmp_path):
    code = "\n".join((
        "import contextlib, io, sys",
        "from resplan import cli",
        "exact = ['--set', 'solver.kind=exact', '--set', 'fleet.devices=2',",
        "         '--set', 'solver.max_candidates=1179648']",
        "for argv in (['solve', '--requests', '3'], ['solve', '--requests', '1', *exact],",
        f"             ['simulate', '--output-dir', {str(tmp_path)!r}]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "sys.exit('numpy.ma' in sys.modules)",
    ))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"
