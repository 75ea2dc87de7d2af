"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and relies on run_em's positional (e_step, m_step, objective, ...)
signature. This test loads it by path, without installing it, and checks
that every name it traces still exists, so a refactor that would break the
traced benchmark run fails here first."""
import importlib.util
import inspect
from pathlib import Path

import latentlab
from latentlab import em

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load_tracing()
    for table in (tracing.TRACED, tracing.VALIDATED):
        for modname, names in table.items():
            module = getattr(latentlab, modname)
            missing = [name for name in names if not hasattr(module, name)]
            assert not missing, f"latentlab.{modname} lacks {missing}"
    for modname, classes in tracing.VALIDATED.items():
        for cname in classes:
            assert hasattr(getattr(getattr(latentlab, modname), cname), "__post_init__")


def test_run_em_takes_the_phases_first():
    params = list(inspect.signature(em.run_em).parameters)
    assert params[:3] == ["e_step", "m_step", "objective"]
