"""The package root is light: importing it loads none of its modules, and
no module outside inscorr.tensor's own tests loads the autodiff graph."""

import json
import os
import subprocess
import sys
from pathlib import Path

import inscorr

PROBE_ROOT = (
    "import json, sys\n"
    "import inscorr\n"
    "print(json.dumps({'version': inscorr.__version__,\n"
    "                  'loaded': sorted(m for m in sys.modules if m.startswith('inscorr.'))}))\n"
)


# cli and acceptance import every other module between them
PROBE_ALL = (
    "import json, sys\n"
    "import inscorr.cli, inscorr.acceptance\n"
    "print(json.dumps({'loaded': sorted(m for m in sys.modules if m.startswith('inscorr.'))}))\n"
)


def run_probe(code):
    src = str(Path(inscorr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_bare_import_loads_no_submodule():
    probe = run_probe(PROBE_ROOT)
    assert probe["loaded"] == []
    assert probe["version"] == inscorr.__version__ == "0.1.0"


def test_no_module_loads_the_autodiff_graph():
    modules = sorted(p.stem for p in Path(inscorr.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "tensor"))
    loaded = run_probe(PROBE_ALL)["loaded"]
    assert loaded == [f"inscorr.{m}" for m in modules]
    assert "inscorr.tensor" not in loaded
