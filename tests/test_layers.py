"""The benchmark's traced run can still report every per-layer metric.

``clibench/layers.py`` wraps sgeo functions by name and leaves out the
metrics of any name that no longer exists, so renaming or deleting a
wrapped function would silently shrink the traced report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import importlib, json
import layers
modules = {name: importlib.import_module(f"sgeo.{name}") for name in layers.LAYERS}
tracer = layers.Tracer()
tracer.install(modules)
print(json.dumps(sorted(tracer.metrics(1, 0))))
"""


def test_tracer_reports_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "clibench")])
    out = subprocess.run(
        [sys.executable, "-c", INSTALL],
        capture_output=True,
        # No bytecode is written under clibench/.
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
        check=True,
        timeout=60,
    ).stdout
    assert json.loads(out) == sorted(m["name"] for m in declared)
