"""The package exports its names lazily, and each command loads only what it runs."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import framelab
from conftest import REPO_ROOT

SUBMODULES = ("numerics", "model", "frame_ops", "documents", "transforms",
              "duality", "perturbation", "oracle", "cli")
# what every command needs: parse, load, verify, render
CORE = {"framelab", "framelab.cli", "framelab.documents", "framelab.model",
        "framelab.numerics", "framelab.frame_ops"}
FIX_I = str(REPO_ROOT / "src" / "framelab" / "fixtures" / "fix_i.json")
THETA = str(REPO_ROOT / "tests" / "data" / "cli" / "theta_fix_i_c11.json")

LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "framelab")'
RUN_COMMAND = f"""
import contextlib, io, json, sys
from framelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, {LOADED}, "numpy.random" in sys.modules]))
"""


def fresh_interpreter(script, *args):
    """The JSON a script prints when run in a new interpreter on this checkout."""
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# numpy.random (10-15 ms of a cold start, mostly secrets and hashlib) is
# loaded only by the commands that draw probes.
@pytest.mark.parametrize("argv, extra, draws", [
    (["analyze", FIX_I], set(), False),
    (["dual", FIX_I, "--method", "q"], {"framelab.duality"}, True),
    (["identities", FIX_I, "--trials", "2"], {"framelab.duality"}, True),
    (["perturb", FIX_I, "--theta", THETA, "--mode", "T-sqsum", "--R", "0.01"],
     {"framelab.perturbation"}, True),
    (["gen", "--fixture", "FIX-I", "--out", "{tmp}"], {"framelab.oracle"}, False),
], ids=["analyze", "dual", "identities", "perturb", "gen"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra, draws):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, loaded, random_loaded = fresh_interpreter(RUN_COMMAND, *argv)
    assert code == 0
    assert set(loaded) == CORE | extra
    assert random_loaded <= draws


def test_package_import_loads_only_the_home_module_of_a_name():
    loaded = fresh_interpreter(
        f"import json, sys\nfrom framelab import InputError\nprint(json.dumps({LOADED}))")
    assert loaded == ["framelab", "framelab.numerics"]


def test_every_export_is_its_home_module_attribute():
    modules = [importlib.import_module(f"framelab.{name}") for name in SUBMODULES]
    for name in framelab.__all__:
        if name == "__version__":
            continue
        homes = [m for m in modules if name in m.__all__]
        assert homes, name
        assert all(getattr(framelab, name) is getattr(m, name) for m in homes), name
    # every name a submodule publishes resolves there: tracing wraps each one
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_every_defaulted_tolerance_is_the_default_profile_itself():
    from framelab.model import BoundedOperator
    from framelab.numerics import DEFAULT_TOL

    modules = [importlib.import_module(f"framelab.{name}") for name in SUBMODULES]
    entries = [getattr(m, name) for m in modules for name in m.__all__]
    entries += [f for f in vars(BoundedOperator).values() if inspect.isfunction(f)]
    defaulted = []
    for entry in filter(callable, entries):
        try:
            tol = inspect.signature(entry).parameters.get("tol")
        except (TypeError, ValueError):
            continue
        if tol is not None and tol.default is not inspect.Parameter.empty:
            assert tol.default is DEFAULT_TOL, entry
            defaulted.append(entry)
    assert len(defaulted) > 30


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        framelab.no_such_name
    assert not hasattr(framelab, "_subset_masks")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from framelab import *", namespace)
    for name in framelab.__all__:
        assert namespace[name] is getattr(framelab, name), name
