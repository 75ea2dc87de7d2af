"""Generic EM driver: alternate a model-supplied E-step and M-step while
tracking the objective and enforcing monotone improvement."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_counts

__all__ = ["EmConfig", "FitReport", "MonotonicityError", "run_em"]

# An objective change below this ends a fit whatever its relative size.
ABS_TOL = 1e-10


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 500
    rel_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        check_counts(max_iters=self.max_iters)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass
class FitReport:
    """Per-iteration objective trace plus convergence bookkeeping.

    The trace holds the objective after each kept EM iteration and is
    non-decreasing up to the driver's slack. events records recoverable
    interventions, one text each: an empty component, class or state
    re-seeded, an HMM state that saw no transitions, and a rescue that
    run_em refused because the objective fell. rel_change is the relative
    objective change of the last kept iteration, the quantity compared with
    rel_tol.
    """

    objective_trace: np.ndarray
    converged: bool
    iters: int
    final_objective: float
    events: list = field(default_factory=list)
    rel_change: float = math.nan


class MonotonicityError(RuntimeError):
    """Objective decreased beyond slack: an E/M implementation bug."""

    def __init__(self, iteration, before, after):
        self.iteration = iteration
        self.before = before
        self.after = after
        super().__init__(
            f"objective decreased at iteration {iteration}: {before!r} -> {after!r}"
        )


def run_em(e_step, m_step, objective, data, init_params, cfg,
           monotonic_slack=1e-8):
    """Drive EM to convergence.

    e_step(params, data) -> posterior summary that also holds the objective
    (log-likelihood or bound) at the params it was given; an exact E-step
    gets it from the normalizer it already computes. objective(posterior)
    reads that value back. m_step(data, posterior) -> new params, or
    (params, events) when it intervened, as in an empty-column rescue.

    run_em runs one E-step on init_params, then alternates M-step and
    E-step, so each iteration makes a single likelihood pass; trace entry t
    is the objective the E-step reports for the params of M-step t. Stops
    when the relative objective change drops below cfg.rel_tol (or the
    absolute change below ABS_TOL), or after cfg.max_iters iterations.
    An M-step that does not lower the objective keeps EM's guarantees
    (Neal & Hinton 1998), so a step with events is kept only if the
    objective does not fall by more than monotonic_slack. Otherwise the fit
    stops unconverged at the params of the last kept iteration, leaves the
    refused one out of the trace and records the refusal as an event. A
    step without events whose objective falls that far signals a broken
    update rather than bad data and raises MonotonicityError.
    """
    posterior = e_step(init_params, data)
    prev = float(objective(posterior))
    if math.isnan(prev):
        raise FloatingPointError("objective is NaN at initialization")
    params = init_params
    trace = []
    events = []
    converged = False
    rel_change = math.nan
    for it in range(1, cfg.max_iters + 1):
        step, step_events = m_step(data, posterior), []
        if isinstance(step, tuple):
            step, step_events = step
            events.extend(step_events)
        posterior = e_step(step, data)
        obj = float(objective(posterior))
        if math.isnan(obj):
            raise FloatingPointError(f"objective is NaN at iteration {it}")
        if obj < prev - monotonic_slack:
            if not step_events:
                raise MonotonicityError(it, prev, obj)
            events.append(f"rescue refused at iteration {it}: objective {prev!r} -> {obj!r}")
            break
        params = step
        trace.append(obj)
        delta = abs(obj - prev)
        rel_change = delta / max(1.0, abs(obj))
        if rel_change < cfg.rel_tol or delta < ABS_TOL:
            converged = True
            prev = obj
            break
        prev = obj
    report = FitReport(
        objective_trace=np.asarray(trace, dtype=float),
        converged=converged,
        iters=len(trace),
        final_objective=prev,
        events=events,
        rel_change=rel_change,
    )
    return params, report
