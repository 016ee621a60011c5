"""Layer spans for the benchmark, recorded from outside the program.

Each public function of a layer is wrapped in every hfrac module that binds
it by name: ``synthesize`` is imported by name into ``kernels`` and
``squarefn``, ``sublaplacian_grid`` into ``kernels``, and
``slices_at_radii_batch`` or ``_diff_axis`` are imported inside function
bodies, which read the defining module's attribute at call time.  Patching
only the defining module would miss the first kind of call; patching every
binding catches both.

A span is one call of a wrapped function; spans nest as the calls do.  A
layer's self time is the time its spans ran minus the time their child spans
ran.
Work counts are computed from the call's inputs (lattice caps, quadrature
sizes, grid shapes, ladder lengths, sample counts), never from timers, so
two runs on the same inputs give identical counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

# layer -> counters it records besides self_s
LAYER_COUNTS = {
    "kernels.spectrum": ("calls", "cache_hits"),
    "lagspec.analyze": ("calls", "recurrence_steps"),
    "lagspec.synth": ("calls", "mode_evals"),
    "lagspec.synth_batch": ("calls", "rows", "mode_evals"),
    "lagspec.slices_batch": ("calls", "rows", "mode_evals"),
    "lagspec.synth_at": ("points",),
    "operators.apply": ("symbol_evals",),
    "group.stencil": ("passes", "points", "bytes_computed"),
    "singular.quad": ("samples", "kernel_evals"),
    "squarefn.gstar": ("kernel_evals",),
    "squarefn.gparts": (),
    "squarefn.suite": (),
    "kernels.suite": (),
}


def _total_caps(S) -> int:
    """Sum over lambda nodes of the coefficient count of a spectrum."""
    return int(sum(len(c) for c in S.coeffs))


@functools.lru_cache(maxsize=None)
def _unique_radii(spec) -> int:
    return int(np.unique(spec.z_radius_sq().round(12)).size)


@functools.lru_cache(maxsize=None)
def _default_analysis_sizes(spec) -> tuple:
    from hfrac.lagspec import AnalysisQuadrature
    q = AnalysisQuadrature.build(spec)
    return q.u_nodes.size, q.v_nodes.size


@functools.lru_cache(maxsize=None)
def _default_singular_nodes() -> int:
    from hfrac.singular import SingularQuadrature
    return SingularQuadrature.build().gauge.size


def _count_spectrum(st, a, children):
    st["calls"] += 1
    # a cache hit returns without analysing the kernel
    st["cache_hits"] += "lagspec.analyze" not in children


def _count_analyze(st, a, children):
    st["calls"] += 1
    u, grid, quad = a["u"], a["grid"], a["quad"]
    caps = int(np.sum(grid.k_caps))
    if u.coeff_fn is not None:           # closed-form coefficients: no recurrence
        return
    if quad is None:
        n_u, n_v = _default_analysis_sizes(u.spec)
    else:
        n_u, n_v = quad.u_nodes.size, quad.v_nodes.size
    if u.central_profile is not None and u.heavy_tail:
        st["recurrence_steps"] += caps * n_v
    elif (u.central_profile is not None or u.radial_profile is not None
          or u.evaluator is not None):
        st["recurrence_steps"] += caps * n_u
    else:                                # grid samples: an upper bound (caps may be cut)
        st["recurrence_steps"] += caps * _unique_radii(u.spec)


def _count_synth(st, a, children):
    st["calls"] += 1
    st["mode_evals"] += _total_caps(a["S"]) * _unique_radii(a["spec"])


def _count_synth_batch(st, a, children):
    rows = len(a["mults"])
    st["calls"] += 1
    st["rows"] += rows
    st["mode_evals"] += rows * _total_caps(a["S"]) * _unique_radii(a["spec"])


def _count_slices_batch(st, a, children):
    rows = len(a["mults"])
    st["calls"] += 1
    st["rows"] += rows
    per_row = 2 if a["want_du"] else 1   # the u-derivative runs a second recurrence
    st["mode_evals"] += per_row * rows * _total_caps(a["S"]) * int(np.size(a["u_vals"]))


def _count_synth_at(st, a, children):
    st["points"] += int(np.size(a["u_vals"]))


def _count_apply(st, a, children):
    st["symbol_evals"] += _total_caps(a["S"])


def _count_diff_axis(st, a, children):
    values = a["values"]
    npts = a["order"] + a["deriv"]
    npts += 1 - npts % 2                 # central stencils have an odd width
    st["passes"] += 1
    st["points"] += int(values.size)
    # computed, not measured: each stencil input read once, the result written once
    st["bytes_computed"] += int(values.nbytes) * (npts + 1)


def _count_singular(st, a, children):
    m = len(a["samples"])
    nodes = _default_singular_nodes() if a["quad"] is None else a["quad"].gauge.size
    st["samples"] += m
    st["kernel_evals"] += m * nodes


def _count_gstar(st, a, children):
    cfg = a["cfg"]
    radial = max(8, int(round(cfg.y_per_decade * math.log10(cfg.y_r_max / cfg.y_r_min))))
    y_nodes = radial * cfg.y_n_theta * cfg.y_n_phi
    st["kernel_evals"] += len(a["samples"]) * len(cfg.rho_ladder()) * y_nodes


# (module, function, layer, counter); a function missing from the program is
# skipped and its time goes to the caller's layer; the run lists it as
# untraced and fails its every_target_wrapped check
TARGETS = (
    ("hfrac.kernels", "kernel_spectrum", "kernels.spectrum", _count_spectrum),
    ("hfrac.lagspec", "analyze_polyradial", "lagspec.analyze", _count_analyze),
    ("hfrac.lagspec", "synthesize", "lagspec.synth", _count_synth),
    ("hfrac.lagspec", "synthesize_batch", "lagspec.synth_batch", _count_synth_batch),
    ("hfrac.lagspec", "slices_at_radii_batch", "lagspec.slices_batch", _count_slices_batch),
    ("hfrac.lagspec", "synthesize_at", "lagspec.synth_at", _count_synth_at),
    ("hfrac.operators", "apply_operator", "operators.apply", _count_apply),
    ("hfrac.group", "sublaplacian_grid", "group.stencil", None),
    ("hfrac.group", "apply_vector_field", "group.stencil", None),
    ("hfrac.group", "_diff_axis", "group.stencil", _count_diff_axis),
    ("hfrac.singular", "ir_values", "singular.quad", _count_singular),
    ("hfrac.singular", "d_s_values", "singular.quad", _count_singular),
    ("hfrac.squarefn", "g_star", "squarefn.gstar", _count_gstar),
    ("hfrac.squarefn", "g_parts", "squarefn.gparts", None),
    ("hfrac.squarefn", "g_function", "squarefn.suite", None),
    ("hfrac.squarefn", "pointwise_theorem_check", "squarefn.suite", None),
    ("hfrac.kernels", "conformal_extension", "kernels.suite", None),
    ("hfrac.kernels", "nonconformal_extension", "kernels.suite", None),
    ("hfrac.kernels", "conformal_pde_residual", "kernels.suite", None),
    ("hfrac.kernels", "nonconformal_pde_residual", "kernels.suite", None),
    ("hfrac.kernels", "nonconformal_trace_fit", "kernels.suite", None),
    ("hfrac.kernels", "dirichlet_to_neumann_conformal", "kernels.suite", None),
    ("hfrac.kernels", "frac_conf_pointwise", "kernels.suite", None),
)


class Tracer:
    """Wraps the layer functions and sums their spans per layer, in memory."""

    def __init__(self):
        self.stats = {layer: {"self_s": 0.0, **{c: 0 for c in counts}}
                      for layer, counts in LAYER_COUNTS.items()}
        self.missing = []
        self._stack = []         # open spans: [child seconds, child layers]
        self._patched = []

    def _wrap(self, layer, fn, count):
        sig = inspect.signature(fn)
        stats = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [0.0, set()]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                stats["self_s"] += (t1 - t0) - frame[0]
                if parent is not None:
                    parent[0] += t1 - t0
                    parent[1].add(layer)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(stats, bound.arguments, frame[1])

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hfrac" or name.startswith("hfrac."))]
        for mod_name, attr, layer, count in TARGETS:
            orig = getattr(sys.modules[mod_name], attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(layer, orig, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._patched.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer self times and counts, plus the time no layer claimed."""
        out = {}
        for layer, st in self.stats.items():
            for key, value in st.items():
                if key == "cache_hits":
                    out[f"{layer}.cache_hit_ratio"] = value / st["calls"] if st["calls"] else 0.0
                else:
                    out[f"{layer}.{key}"] = value
        out["unattributed_s"] = traced_wall_s - sum(st["self_s"] for st in self.stats.values())
        return out
