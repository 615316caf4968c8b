"""The package root is light: importing it loads none of its modules, and
no module in src/ loads inscorr.tensor, the stub left where the autodiff
graph was (only the benchmark's tracer imports it). It does set the
one-thread BLAS default, and tells whether that default took hold. No
module imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

PROBE_BLAS = (
    "import json, os\n"
    "{imports}\n"
    "print(json.dumps({{'one': inscorr.ONE_BLAS_THREAD,\n"
    "                  'env': [os.environ.get(v) for v in {vars}]}}))\n"
)


def run_probe(code, env_set=None):
    src = str(Path(inscorr.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_set or {})
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


@pytest.mark.parametrize("imports, env_set, one, env", [
    # the default holds when inscorr loads before numpy
    ("import inscorr, numpy", {}, True, ["1", "1"]),
    # numpy has already read the unset variable and keeps its thread pool
    ("import numpy, inscorr", {}, False, ["1", "1"]),
    # a value the user set wins, whatever loads first
    ("import inscorr, numpy", {"OPENBLAS_NUM_THREADS": "4"}, False, ["4", "1"]),
    ("import numpy, inscorr", {"OPENBLAS_NUM_THREADS": "1"}, True, ["1", "1"]),
])
def test_blas_default_and_whether_it_holds(imports, env_set, one, env):
    probe = run_probe(PROBE_BLAS.format(imports=imports, vars=BLAS_VARS), env_set)
    assert probe == {"one": one, "env": env}


def test_errors_defines_one_type_per_way_a_failure_is_handled():
    from inscorr import errors

    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {"InscorrError", "ConfigError", "ContractError", "CapacityError",
                       "NumericError", "FormatError"}
    assert all(issubclass(getattr(errors, name), errors.InscorrError) for name in defined)
    assert issubclass(errors.FormatError, OSError)
    assert issubclass(errors.NumericError, ArithmeticError)


def unused_imports(source):
    """Names a module's source imports and never reads again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c, d\n"
                          "from e import f as g\nprint(os.sep, c, g)\n") == [
        (2, "system"), (3, "d")]


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(inscorr.__file__).parent.glob("*.py")))
def test_no_module_imports_a_name_it_never_uses(module):
    source = (Path(inscorr.__file__).parent / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
