"""`import latentlab` loads submodules on first use, and the family records
look their model module up at call time. The library's surface holds only
what runs: every exported name resolves, and every private top-level
function and every module-level constant has a reader in the library itself,
not only in the tests."""
import ast
import glob
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import latentlab
from latentlab.families import FAMILIES


def test_every_public_name_resolves():
    for name in latentlab.__all__:
        value = getattr(latentlab, name)
        if name != "__version__":
            assert value is sys.modules[f"latentlab.{name}"]
    assert set(latentlab.__all__) <= set(dir(latentlab))


SUBMODULES = [name for name in latentlab.__all__ if name != "__version__"]
SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(latentlab.__file__), "*.py")))


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_name_a_submodule_exports_resolves(module):
    mod = importlib.import_module(f"latentlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


# the field holding the name that a node of each type reads
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _names_read(top):
    """Every name that the top-level statement top reads: bare names,
    attributes and imported names, leaving out a function's own name."""
    own = getattr(top, "name", None)
    for node in ast.walk(top):
        name = getattr(node, NAME_FIELDS.get(type(node), ""), None)
        if name and name != own:
            yield name


def test_every_private_function_has_a_reader_in_the_library():
    # a helper that only tests call belongs in the tests
    private, read = [], set()
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_") \
                    and not top.name.startswith("__"):
                private.append((os.path.basename(path), top.name))
            read.update(_names_read(top))
    assert private
    assert [p for p in private if p[1] not in read] == []


def test_every_constant_has_a_reader_in_the_library():
    # a module-level UPPER_CASE name that no other top-level statement reads
    # is left over from code that has gone
    constants, tops = [], []
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            targets = (top.targets if isinstance(top, ast.Assign)
                       else [top.target] if isinstance(top, ast.AnnAssign) else [])
            constants += [(os.path.basename(path), node.id, top) for target in targets
                          for node in ast.walk(target)
                          if isinstance(node, ast.Name) and node.id.isupper()]
            tops.append((top, set(_names_read(top))))
    assert constants
    assert [(path, name) for path, name, own in constants
            if not any(name in read for top, read in tops if top is not own)] == []


def test_only_datasets_binds_the_number_format():
    # every byte-compared output formats its numbers with datasets.FMT; a
    # ".17g" in any other string (a %-format, an f-string spec, a format()
    # spec) would be a second formatter
    bound = []
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        bound += [(os.path.basename(path), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and ".17g" in node.value]
    assert [name for name, _line in bound] == ["datasets.py"], bound
    from latentlab import datasets
    assert datasets.FMT == "%.17g"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="'nope'"):
        latentlab.nope
    assert not hasattr(latentlab, "nope")


def test_import_loads_submodules_on_first_use():
    script = """
import sys
import latentlab
assert not [m for m in sys.modules if m.startswith("latentlab.")]
latentlab.mixture.fit_gmm
loaded = sorted(m for m in sys.modules if m.startswith("latentlab."))
assert loaded == ["latentlab.core", "latentlab.em", "latentlab.mixture"], loaded
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_synth_loads_only_the_modules_its_family_needs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"family": "gmm", "n": 5, "params": {"weights": [1.0], '
                    '"means": [[0.0]], "covs": [[[1.0]]]}}')
    script = """
import runpy, sys
sys.argv = ["latentlab", "synth", sys.argv[1], "--out", sys.argv[2]]
try:
    runpy.run_module("latentlab", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
loaded = sorted(m for m in sys.modules if m.startswith("latentlab."))
assert loaded == ["latentlab.cli", "latentlab.core", "latentlab.datasets",
                  "latentlab.em", "latentlab.families", "latentlab.mixture"], loaded
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(spec), str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") == 6


def test_record_calls_reach_functions_rebound_after_import(monkeypatch):
    calls = []

    def fake_sample(params, n, rng):
        calls.append(n)
        return np.zeros((n, 2)), np.zeros(n, dtype=int)
    monkeypatch.setattr(latentlab.mixture, "gmm_sample", fake_sample)
    monkeypatch.setattr(latentlab.sequential, "hmm_sample",
                        lambda params, n, rng: (None, np.arange(n)))
    assert FAMILIES["gmm"].sample(None, 3, None).shape == (3, 2)
    assert calls == [3]
    assert FAMILIES["hmm"].sample(None, 4, None).ravel().tolist() == [0, 1, 2, 3]
