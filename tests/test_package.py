"""The package namespace and what each entry point imports.

`import driftplan` is lazy, and a closed-form plan, from the library or
from `driftplan plan` in the 2pi and 4pi modes, imports no numpy.  Import
state is per process, so those checks run in fresh interpreters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftplan
from driftplan import planner
from driftplan.cli import main

SRC = Path(driftplan.__file__).resolve().parent.parent

PLAN_ARGV = ["plan", "--start", "0,0,0", "--goal=-2.3,2.8,1.5708", "--current", "0.5,3.14159"]

# Runs its code in a fresh interpreter, numpy made unimportable first when
# argv[1] is "blocked", then prints a report line on stderr: the code's
# result and whether numpy was imported.
HARNESS = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
result = None
exec(sys.argv[2])
print(json.dumps({"result": result, "numpy": sys.modules.get("numpy") is not None,
                  "driftplan": sorted(m for m in sys.modules if m.startswith("driftplan"))}),
      file=sys.stderr)
"""

CLI_CODE = "from driftplan.cli import main; result = main(sys.argv[3:])"

LIBRARY_CODE = """
import math
import driftplan
sol = driftplan.plan(driftplan.Pose(0, 0, 0), driftplan.Pose(-2.3, 2.8, math.pi / 2),
                     driftplan.CurrentState(0.5, math.pi), driftplan.VehicleSpec(1.0, 1.0),
                     driftplan.ArcMode.FOUR_PI)
print(repr(sol))
"""


def _fresh(code, *args, blocked=False, cwd=None):
    """(stdout, report) of code run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", HARNESS, "blocked" if blocked else "open", code, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr.splitlines()[-1])


def _in_process(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("mode", ["2pi", "4pi"])
@pytest.mark.parametrize("blocked", [False, True], ids=["numpy-present", "numpy-blocked"])
def test_closed_form_plan_command_imports_no_numpy(capsys, mode, blocked):
    argv = PLAN_ARGV + ["--mode", mode]
    out, report = _fresh(CLI_CODE, *argv, blocked=blocked)
    assert report["result"] == 0
    assert not report["numpy"]
    assert out == _in_process(capsys, argv)


@pytest.mark.parametrize("blocked", [False, True], ids=["numpy-present", "numpy-blocked"])
def test_library_plan_imports_no_numpy(blocked):
    out, report = _fresh(LIBRARY_CODE, blocked=blocked)
    assert not report["numpy"]
    assert report["driftplan"] == ["driftplan", "driftplan.core", "driftplan.planner"]
    sol = driftplan.plan(driftplan.Pose(0, 0, 0), driftplan.Pose(-2.3, 2.8, 1.5707963267948966),
                         driftplan.CurrentState(0.5, 3.141592653589793),
                         driftplan.VehicleSpec(1.0, 1.0), driftplan.ArcMode.FOUR_PI)
    assert out == repr(sol) + "\n"


def test_dubins_plan_command_still_imports_numpy(capsys):
    argv = PLAN_ARGV + ["--mode", "dubins", "--seed", "3"]
    out, report = _fresh(CLI_CODE, *argv)
    assert report["result"] == 0
    assert report["numpy"]
    fresh, here = json.loads(out), json.loads(_in_process(capsys, argv))
    for doc in (fresh, here):
        del doc["results"]["compute_time_seconds"]
    assert fresh == here


def test_plan_traj_command_still_imports_numpy(capsys, tmp_path):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "here").mkdir()
    argv = PLAN_ARGV + ["--mode", "4pi", "--traj", "flight.csv"]
    out, report = _fresh(CLI_CODE, *argv, cwd=tmp_path / "fresh")
    assert report["result"] == 0
    assert report["numpy"]
    fresh = json.loads(out)
    here = json.loads(_in_process(capsys, PLAN_ARGV + [
        "--mode", "4pi", "--traj", str(tmp_path / "here" / "flight.csv")]))
    assert fresh["results"]["solution"] == here["results"]["solution"]
    for name in ("flight.csv", "flight_cf.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_bare_import_loads_no_submodule_until_asked():
    code = ("import driftplan\n"
            "before = sorted(m for m in sys.modules if m.startswith('driftplan'))\n"
            "result = [before, driftplan.planner.__name__]")
    _, report = _fresh(code)
    assert report["result"] == [["driftplan"], "driftplan.planner"]
    assert not report["numpy"]
    assert report["driftplan"] == ["driftplan", "driftplan.core", "driftplan.planner"]


def test_each_public_name_is_its_module_object():
    for name in driftplan.__all__:
        obj = getattr(driftplan, name)
        home = sys.modules[obj.__module__]
        assert home.__name__ == f"driftplan.{driftplan._MODULE_OF[name]}"
        assert getattr(home, name) is obj


def test_dir_and_star_import_cover_all():
    assert set(driftplan.__all__) <= set(dir(driftplan))
    assert {"planner", "cli", "__version__"} <= set(dir(driftplan))
    namespace = {}
    exec("from driftplan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(driftplan.__all__)
    for name in driftplan.__all__:
        assert namespace[name] is getattr(driftplan, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        driftplan.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from driftplan import no_such_name", {})


def test_a_rebound_module_attribute_is_seen_and_released(monkeypatch):
    # The benchmark's tracer rebinds layer functions in their modules and
    # restores them; the package must not keep either binding.
    original = planner.plan

    def stand_in(*args):
        return None

    monkeypatch.setattr(planner, "plan", stand_in)
    assert driftplan.plan is stand_in
    monkeypatch.undo()
    assert driftplan.plan is original
    assert "plan" not in vars(driftplan)
