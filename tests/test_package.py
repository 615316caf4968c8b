"""The package root is light: importing it loads none of its modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import inscorr

PROBE = (
    "import json, sys\n"
    "import inscorr\n"
    "print(json.dumps({'version': inscorr.__version__,\n"
    "                  'loaded': sorted(m for m in sys.modules if m.startswith('inscorr.'))}))\n"
)


def test_bare_import_loads_no_submodule():
    src = str(Path(inscorr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    probe = json.loads(out)
    assert probe["loaded"] == []
    assert probe["version"] == inscorr.__version__ == "0.1.0"
