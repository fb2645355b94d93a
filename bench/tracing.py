"""Span tracer for the benchmark: wraps public glassdyn calls from outside.

A span is (name, start, end, parent).  Spans live in memory while the
command runs and are written out once it ends.  Nothing under ``src/`` is
edited: methods are replaced on their class, and functions are replaced in
every glassdyn module that bound them by ``from ... import``.
"""

from __future__ import annotations

import functools
import math
import sys
import time


class Tracer:
    """Collects nested spans of one single-threaded command."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent, work]
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped in a span; ``work(args, result)`` adds a count."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if work is not None:
                rec[4] = work(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def patch_method(tracer: Tracer, cls, attr: str, work=None):
    setattr(cls, attr, tracer.wrap(f"{cls.__name__}.{attr}",
                                   getattr(cls, attr), work))


def patch_function(tracer: Tracer, module, attr: str, work=None):
    """Wrap a module function and every glassdyn name bound to it."""
    fn = getattr(module, attr)
    traced = tracer.wrap(attr, fn, work)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "glassdyn" and getattr(mod, attr, None) is fn:
            setattr(mod, attr, traced)


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are built from."""
    from glassdyn import cli, dynamics, hamiltonian, init_params, langevin, mixture

    patch_function(tracer, cli, "main")
    patch_method(tracer, mixture.Mixture, "nu")
    patch_function(tracer, init_params, "solve_w")
    for attr in ("v", "vx", "vy"):
        patch_method(tracer, init_params.VFunction, attr)
    patch_function(tracer, dynamics, "solve_dynamics",
                   work=lambda args, sol: sol.n)
    for attr in ("gram_min_eig", "cbar_gram_min_eig"):
        patch_method(tracer, dynamics.TwoTimeSolution, attr)
    patch_function(tracer, dynamics, "integrated_response")
    patch_function(tracer, hamiltonian, "sample_system",
                   work=lambda args, s: sum(t.nbytes for t in s.tensors.values()))
    patch_function(tracer, hamiltonian, "conditioned_field")
    for cls in (hamiltonian.SpinSystem, hamiltonian.ConditionedField):
        for attr in ("gradient_batch", "value_batch"):
            patch_method(tracer, cls, attr)
    patch_function(tracer, langevin, "integrate_ensemble",
                   work=lambda args, trajs: len(trajs) * args[2].n_obs * args[2].substeps)
    for attr in ("observables", "error_functional", "average_error",
                 "ensemble_error"):
        patch_function(tracer, langevin, attr)


# ---------------------------------------------------------------- analysis

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(round(n * pct / 100.0, 9)))


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves at least ten samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n - _rank(n, pct) >= 10:
            return pct
    return 100.0


def percentile(values: list[float], pct: float) -> float:
    return sorted(values)[_rank(len(values), pct) - 1]


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer numbers of one traced command, keyed by metric name."""
    names, spans = dump["names"], dump["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(names[rec[0]], []).append(i)

    def ids(*keys):
        return [i for k in keys for i in by_name.get(k, ())]

    def count(*keys):
        return float(len(ids(*keys)))

    def total(*keys):
        return sum(spans[i][2] - spans[i][1] for i in ids(*keys))

    def own(*keys):
        return sum(selfs[i] for i in ids(*keys))

    def has_ancestor(i, ancestor):
        p = spans[i][3]
        while p >= 0 and names[spans[p][0]] != ancestor:
            p = spans[p][3]
        return p >= 0

    def outermost(*keys):
        """Total time of spans in keys that no other span in keys encloses."""
        return sum(spans[i][2] - spans[i][1] for i in ids(*keys)
                   if not any(has_ancestor(i, k) for k in keys))

    slices = float(sum(spans[i][4] for i in ids("solve_dynamics")))
    # nu calls made by the slice loop; solve_w's set-up calls are excluded
    nu_in_loop = sum(1 for i in ids("Mixture.nu")
                     if has_ancestor(i, "solve_dynamics")
                     and not has_ancestor(i, "solve_w"))
    solve_s = total("solve_dynamics")

    grad = ids("SpinSystem.gradient_batch")
    grad_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in grad]
    grad_self = own("SpinSystem.gradient_batch")
    tail_pct = tail_percentile(len(grad_ms))
    tensor_mb = max((spans[i][4] for i in ids("sample_system")), default=0) / 1e6

    # mean swap: the conditioned field's batch calls minus the raw-field
    # passes they make; the nu calls inside the swap stay in it
    swap_keys = ("ConditionedField.gradient_batch", "ConditionedField.value_batch")
    swap = total(*swap_keys) - sum(
        spans[i][2] - spans[i][1]
        for i in ids("SpinSystem.gradient_batch", "SpinSystem.value_batch")
        if spans[i][3] >= 0 and names[spans[spans[i][3]][0]] in swap_keys)

    integ_s = total("integrate_ensemble")
    path_steps = float(sum(spans[i][4] for i in ids("integrate_ensemble")))

    return {
        "mixture.nu_calls": count("Mixture.nu"),
        "mixture.nu_calls_per_slice": nu_in_loop / slices if slices else 0.0,
        "mixture.nu_self_s": own("Mixture.nu"),
        "init_params.vfunc_calls": count("VFunction.v", "VFunction.vx", "VFunction.vy"),
        "init_params.vfunc_self_s": own("VFunction.v", "VFunction.vx", "VFunction.vy"),
        "init_params.solve_w_s": total("solve_w"),
        "dynamics.solve_s": solve_s,
        "dynamics.slices": slices,
        "dynamics.ms_per_slice": 1e3 * solve_s / slices if slices else 0.0,
        "dynamics.self_s": own("solve_dynamics"),
        "dynamics.psd_check_s": total("TwoTimeSolution.gram_min_eig",
                                      "TwoTimeSolution.cbar_gram_min_eig"),
        "dynamics.integrated_response_calls": count("integrated_response"),
        "hamiltonian.sample_s": total("sample_system"),
        "hamiltonian.tensor_mb": tensor_mb,
        "hamiltonian.grad_calls": float(len(grad)),
        "hamiltonian.grad_self_s": grad_self,
        "hamiltonian.grad_ms_p50": percentile(grad_ms, 50.0) if grad_ms else 0.0,
        "hamiltonian.grad_ms_tail": percentile(grad_ms, tail_pct) if grad_ms else 0.0,
        "hamiltonian.grad_tail_pct": tail_pct if grad_ms else 0.0,
        "hamiltonian.grad_eff_gbps": (tensor_mb * len(grad) / grad_self / 1e3
                                      if grad_self > 0 else 0.0),
        "hamiltonian.mean_swap_s": swap,
        "hamiltonian.value_s": outermost("SpinSystem.value_batch",
                                         "ConditionedField.value_batch"),
        "langevin.integrate_s": integ_s,
        "langevin.self_s": own("integrate_ensemble"),
        "langevin.path_steps_per_s": path_steps / integ_s if integ_s else 0.0,
        "langevin.observables_s": total("observables"),
        "langevin.score_s": outermost("error_functional", "average_error",
                                      "ensemble_error"),
        "cli.self_s": own("main"),
    }
