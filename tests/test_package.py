"""`import latentlab` loads submodules on first use, and the family records
look their model module up at call time."""
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
