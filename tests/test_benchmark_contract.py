"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and relies on run_em's positional (e_step, m_step, objective, ...)
signature. This test loads it by path, without installing it, and checks
that every name it traces still exists, so a refactor that would break the
traced benchmark run fails here first, and that every deep training step,
recorded or replayed, still makes one traced backward and one Adam call."""
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


def test_each_trainer_calls_backward_and_adam_once_per_step():
    # nn.steps counts nn.adam_step calls: a replayed step must still make one
    # backward and one Adam call, inside its trainer's span
    from latentlab import arm, diffusion, flow, gan, vae
    from latentlab.core import RandomSource
    X = RandomSource(0).standard_normal((10, 3))
    codes = RandomSource(1).integers(0, 3, (10, 4))
    runs = {
        "vae.train": (lambda: vae.train(vae.make_vae(3, 2, RandomSource(2), hidden=4), X, 2, 4,
                                        RandomSource(3)), 6),
        "flow.fit": (lambda: flow.fit(flow.make_coupling_stack(3, 2, RandomSource(4), hidden=4),
                                      X, 2, 4, RandomSource(5)), 6),
        "diffusion.train": (lambda: diffusion.train(
            diffusion.make_diffusion(3, RandomSource(6), T=5, hidden=4), X, 2, 4,
            RandomSource(7)), 6),
        "arm.train": (lambda: arm.train(arm.make_ar_model(4, 3, RandomSource(8), hidden=4),
                                        codes, 2, 4, RandomSource(9)), 6),
        "gan.train": (lambda: gan.train(gan.make_gan(3, 2, RandomSource(10), hidden=4), X, 3, 4,
                                        RandomSource(11), k_disc=2), 9),
    }
    tracing = _load_tracing()
    for name, (run, steps) in runs.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        metrics = tracer.reduce()
        assert metrics[f"{name}.calls"] == 1
        assert metrics["nn.backward.calls"] == steps, name
        assert metrics["nn.adam_step.calls"] == metrics["nn.steps"] == steps, name
