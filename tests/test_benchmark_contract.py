"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name and relies on run_em's positional (e_step, m_step, objective, ...)
signature. This test loads it by path, without installing it, and checks
that every name it traces still exists, so a refactor that would break the
traced benchmark run fails here first, that every deep training step,
recorded or replayed, still makes one traced backward and one Adam call,
and that the HMM counts mean the same whichever forward-backward kernel
runs."""
import importlib.util
import inspect
from pathlib import Path

import numpy as np

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


def test_descend_calls_each_step_part_once_through_nn_globals(monkeypatch):
    # the tracer counts nn.steps by wrapping nn.adam_step, and the reference
    # tape of test_nn_reference.py swaps nn.zero_grad, nn.backward and
    # nn.adam_step: both reach a step only through nn's module globals
    from latentlab import nn
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    for name in ("zero_grad", "backward", "adam_step"):
        monkeypatch.setattr(nn, name, counted(name, getattr(nn, name)))
    p = nn.Tensor.param(np.array([1.0, -2.0]))
    nn.descend((p * p).sum(), [p], nn.AdamState(), 0.1, "diverged")
    assert calls == ["zero_grad", "backward", "adam_step"]


def _traced(run):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return result, tracer.reduce()


def test_hmm_counts_are_the_same_on_the_scan_and_the_loop():
    from latentlab import sequential
    from latentlab.core import RandomSource
    from latentlab.em import EmConfig
    params = sequential.HmmParams(
        [0.4, 0.3, 0.2, 0.1], np.full((4, 4), 0.1) + 0.6 * np.eye(4),
        sequential.DiscreteEmission(np.full((4, 6), 0.1) + 0.4 * np.eye(4, 6)))
    rng = RandomSource(0)
    long_one = [sequential.hmm_sample(params, 3000, rng)[1]]
    ragged = [sequential.hmm_sample(params, int(T), rng)[1] for T in rng.integers(20, 60, 40)]
    for seqs, scan in ((long_one, True), (ragged, False)):
        assert sequential._scan_pays(4, sequential._hmm_pack(True, seqs)) == scan
        (_fitted, report), metrics = _traced(
            lambda: sequential.hmm_fit(seqs, 4, "discrete", EmConfig(max_iters=3, seed=0)))
        assert metrics["sequential.hmm_fit.calls"] == 1
        assert metrics["em.iters"] == report.iters == 3
        assert metrics["em.e_step.calls"] == report.iters + 1
    held_out = [sequential.hmm_sample(params, T, rng)[1] for T in (150, 260, 90, 1)]
    _scores, metrics = _traced(
        lambda: [sequential.hmm_forward_backward(params, obs).loglik for obs in held_out])
    assert metrics["sequential.hmm_forward_backward.calls"] == len(held_out)
