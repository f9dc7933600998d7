"""Op clock and layer tracer, installed from outside the package.

Both work by replacing module attributes of ``biflogis`` with wrappers and
restoring the originals afterwards; no file of the package is touched. A
module attribute is the right seam because every cross-module call in the
package goes through one (``kernels.layer_integrand``, ``nc.solve_alpha``,
``consts.compute_C1``), and a module's own functions look its globals up
at call time, so a patched name is seen by internal callers too.

The op clock times each op (one curve point ``solve_alpha``) and keeps its
result for the correctness gate. It is a pair of clock reads around the
op, so it stays installed in untraced passes.

The tracer records a span (name, start, end, parent span, op id) at each
layer boundary and counts work there. Span names are ``<layer>.<what>``,
where the layer is the module. Self time of a span is its duration minus
the durations of its direct children; it is summed per layer. Busy time
of a name or a layer sums only its outermost spans, so recursion and
nested calls inside one layer are not counted twice.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from biflogis import constants, kernels, local_logistic, nonlocal_curve, oracle, rootfind, verify

_clock = time.perf_counter


class OpClock:
    """Times ops and holds their outcomes until the gate reads them."""

    def __init__(self):
        self.count = 0          # op id of the most recent op
        self.pending = []       # (latency_s, args, result, exception)
        self._original = None

    def timed(self, fn, *args):
        self.count += 1
        t0 = _clock()
        try:
            out = fn(*args)
        except Exception as exc:
            self.pending.append((_clock() - t0, args, None, exc))
            raise
        self.pending.append((_clock() - t0, args, out, None))
        return out

    def take(self):
        out, self.pending = self.pending, []
        return out

    def install_solve_alpha(self):
        original = nonlocal_curve.solve_alpha

        def solve_alpha(alpha, params):
            return self.timed(original, alpha, params)

        self._original = original
        nonlocal_curve.solve_alpha = solve_alpha

    def uninstall(self):
        if self._original is not None:
            nonlocal_curve.solve_alpha = self._original
            self._original = None


class Tracer:
    """Spans and counters at the package's layer boundaries."""

    def __init__(self, clock: OpClock):
        self.clock = clock
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []
        self._open = Counter()

    def wrap(self, name, fn, on_return=None):
        """``fn`` behind a span named ``name``; ``on_return(counts, args, out)``
        adds work counts from the call's arguments and result."""
        layer = name.partition(".")[0]
        calls = name + ".calls"
        errors = name + ".errors"
        tr = self

        def wrapper(*args, **kwargs):
            counts, open_, stack = tr.counts, tr._open, tr._stack
            counts[calls] += 1
            outer_name = open_[name] == 0
            outer_layer = open_[layer] == 0
            open_[name] += 1
            open_[layer] += 1
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tr.clock.count]
            frame = [len(tr.spans), 0.0]
            tr.spans.append(rec)
            stack.append(frame)
            t0 = rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                t1 = rec[2] = _clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tr.self_s[layer] += dt - frame[1]
                open_[name] -= 1
                open_[layer] -= 1
                if outer_name:
                    tr.busy[name] += dt
                if outer_layer:
                    tr.busy[layer] += dt
            if on_return is not None:
                on_return(counts, args, out)
            return out

        return wrapper

    def _counted(self, key, f):
        counts = self.counts

        def counted(x):
            counts[key] += 1
            return f(x)

        return counted

    def _rootfinder(self, name, fn):
        """A rootfind entry point whose residual evaluations are counted."""
        traced = self.wrap(name, fn)
        key = name + ".evals"

        def call(f, *args, **kwargs):
            return traced(self._counted(key, f), *args, **kwargs)

        return call

    def _solver_for(self, owner, fn):
        """``solve_monotone`` as seen by ``owner``: one solve, with every
        residual evaluation a span of the owner's layer."""
        traced = self.wrap("rootfind.solve_monotone", fn)
        resid = owner + ".resid"
        solves = owner + ".solves"

        def solve_monotone(f, *args, **kwargs):
            self.counts[solves] += 1
            return traced(self.wrap(resid, f), *args, **kwargs)

        return solve_monotone

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        w, p = self.wrap, self._patch

        def nodes(counts, args, out):
            counts["kernels.layer_integrand.nodes"] += len(out)

        def steps(counts, args, out):
            counts["kernels.rk4_shoot.steps"] += out[2] - 1
            if self._open["oracle.solve_bvp"]:
                counts["oracle.bvp_marches"] += 1

        def quad_nodes(key):
            def hook(counts, args, out):
                counts[key] += out.evaluations
            return hook

        p(kernels, "layer_integrand",
          w("kernels.layer_integrand", kernels.layer_integrand, nodes))
        p(kernels, "c_factor", w("kernels.c_factor", kernels.c_factor))
        p(kernels, "rk4_shoot", w("kernels.rk4_shoot", kernels.rk4_shoot, steps))

        p(local_logistic, "integrate",
          w("quadrature.moment", local_logistic.integrate,
            quad_nodes("quadrature.moment.nodes")))
        p(constants, "integrate",
          w("quadrature.constants", constants.integrate,
            quad_nodes("quadrature.constants.nodes")))

        p(rootfind, "bracket_monotone",
          self._rootfinder("rootfind.bracket", rootfind.bracket_monotone))
        p(rootfind, "brentq", self._rootfinder("rootfind.brent", rootfind.brentq))

        p(local_logistic, "solve_monotone",
          self._solver_for("local_logistic", local_logistic.solve_monotone))
        for attr in ("_point_from_t", "_qnorm_from_t", "_t_from_k", "_t_from_d",
                     "_t_from_gamma", "point_from_k", "point_from_gamma",
                     "solve_for_d", "point_q_norm"):
            p(local_logistic, attr,
              w("local_logistic." + attr.lstrip("_"), getattr(local_logistic, attr)))
        p(local_logistic, "sample_profile",
          w("local_logistic.sample_profile", local_logistic.sample_profile))

        p(nonlocal_curve, "solve_monotone",
          self._solver_for("nonlocal_curve", nonlocal_curve.solve_monotone))
        p(nonlocal_curve, "solve_alpha",
          w("nonlocal_curve.solve_alpha", nonlocal_curve.solve_alpha))
        p(nonlocal_curve, "g_of_k", w("nonlocal_curve.g_of_k", nonlocal_curve.g_of_k))

        for attr in ("compute_all", "compute_A", "compute_C1", "compute_Cq", "compute_E"):
            p(constants, attr, w("constants." + attr, getattr(constants, attr)))

        p(verify, "sweep", w("verify.sweep", verify.sweep))
        for attr in ("check_theorem_1", "check_theorem_2", "check_theorem_3"):
            p(verify, attr, w("verify.check", getattr(verify, attr)))

        for attr in ("solve_bvp", "shoot", "norms_from_profile", "energy_drift"):
            p(oracle, attr, w("oracle." + attr, getattr(oracle, attr)))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        c, busy = self.counts, self.busy
        out = {}
        for name in ("kernels.layer_integrand", "kernels.c_factor", "kernels.rk4_shoot",
                     "quadrature.moment", "quadrature.constants",
                     "local_logistic.sample_profile", "nonlocal_curve.solve_alpha",
                     "nonlocal_curve.g_of_k", "oracle.solve_bvp"):
            out[name + ".calls"] = c[name + ".calls"]
            out[name + ".busy_s"] = busy[name]
        out["kernels.layer_integrand.nodes"] = c["kernels.layer_integrand.nodes"]
        out["kernels.rk4_shoot.steps"] = c["kernels.rk4_shoot.steps"]
        for name in ("quadrature.moment", "quadrature.constants"):
            out[name + ".nodes"] = c[name + ".nodes"]
        out["quadrature.moment.nodes_per_call"] = \
            c["quadrature.moment.nodes"] / max(c["quadrature.moment.calls"], 1)
        out["local_logistic.solves"] = c["local_logistic.solves"]
        out["local_logistic.resid_evals"] = c["local_logistic.resid.calls"]
        out["local_logistic.busy_s"] = busy["local_logistic"]
        for name in ("rootfind.bracket", "rootfind.brent"):
            out[name + ".evals"] = c[name + ".evals"]
            out[name + ".busy_s"] = busy[name]
        out["nonlocal_curve.solve_alpha.errors"] = c["nonlocal_curve.solve_alpha.errors"]
        out["nonlocal_curve.resid_evals"] = c["nonlocal_curve.resid.calls"]
        for name in ("constants.compute_all", "constants.compute_C1",
                     "verify.sweep", "verify.check"):
            out[name + ".busy_s"] = busy[name]
        out["oracle.marches_per_bvp"] = \
            c["oracle.bvp_marches"] / max(c["oracle.solve_bvp.calls"], 1)
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        return out

    def work_counts(self) -> dict:
        """Every counter: the exact-repeat gate compares these."""
        return dict(sorted(self.counts.items()))


# Layers in stack order; "bench" is the benchmark's own step span.
LAYERS = ("bench", "verify", "constants", "nonlocal_curve", "rootfind",
          "local_logistic", "quadrature", "oracle", "kernels")
