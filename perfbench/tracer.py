"""Outside-in layer tracing of suscav.

The program has no spans of its own yet, so the benchmark wraps each
layer's public functions at every name through which they are called:
every attribute of a ``suscav*`` module that refers to the function (so
``qn.quantum_noise_psd`` and ``from .x import f`` copies are covered),
every value of a module-level dict that refers to it (``cli.COMMANDS``),
and classmethods on their class (``Scenario.from_dict``).  A name that no
longer exists is reported in `unmeasured` instead of failing the run.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it caused, so the self times of all spans add
up exactly to the durations of the root spans.  A call counts towards
``<layer>.calls`` only when it crosses into the layer from another layer
(or from the benchmark); calls inside a layer cost self time only.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = {
    "cli": ("suscav.cli:main", "suscav.cli:resolve_config", "suscav.cli:parse_grid"),
    "scenario.parse": ("suscav.scenario:load_config", "suscav.scenario:Scenario.from_dict"),
    "scenario.assemble": ("suscav.scenario:assemble_budget",
                          "suscav.scenario:platform_suppression_tf"),
    "scenario.pipeline": ("suscav.scenario:run_budget", "suscav.scenario:run_suspension_tf",
                          "suscav.scenario:run_isolation", "suscav.scenario:run_quantum_design"),
    "suspension": ("suscav.suspension:build_model", "suscav.suspension:eigenmodes",
                   "suscav.suspension:seismic_to_cavity",
                   "suscav.suspension:tf_suspoint_to_mirror",
                   "suscav.suspension:tf_suspoint_to_differential",
                   "suscav.suspension:mirror_force_susceptibility",
                   "suscav.suspension:_solve_batched"),
    "thermal": ("suscav.thermal:thermal_displacement", "suscav.thermal:mirror_admittance"),
    "isolation": ("suscav.isolation:closed_loop", "suscav.isolation:design_check",
                  "suscav.isolation:loop_polynomials", "suscav.isolation:closed_loop_poles",
                  "suscav.isolation:geophone_tf", "suscav.isolation:actuator_tf",
                  "suscav.isolation:platform_passive_tf"),
    "quantum": ("suscav.quantum:quantum_noise_psd", "suscav.quantum:sql_psd",
                "suscav.quantum:power_for_sql", "suscav.quantum:kappa_unity_frequency"),
    "readout": ("suscav.readout:adc_noise_asd", "suscav.readout:pll_noise_asd",
                "suscav.readout:intensity_rp_displacement", "suscav.readout:iss_profile",
                "suscav.readout:acoustic_peaks", "suscav.readout:saturation_margin"),
    "spectra.rms": ("suscav.spectra:cumulative_rms", "suscav.spectra:band_rms"),
    "spectra.csv_write": ("suscav.spectra:write_budget_csv", "suscav.scenario:_write_csv",
                          "suscav.suspension:write_mode_table",
                          "suscav.spectra:write_spectrum_csv"),
    "spectra.csv_read": ("suscav.spectra:read_asd_csv", "suscav.spectra:interp_loglog"),
}

# One response solve of a (model, grid) pair per call, whatever the solver.
SOLVE_ENTRIES = {
    "suscav.suspension:tf_suspoint_to_mirror": "suspoint",
    "suscav.suspension:tf_suspoint_to_differential": "suspoint",
    "suscav.suspension:mirror_force_susceptibility": "force",
}
# Evaluations of the closed isolation loop: frequency response or polynomials.
LOOP_ENTRIES = ("suscav.isolation:closed_loop", "suscav.isolation:loop_polynomials")


class Tracer:
    """Per-layer calls, self time and errors, plus counters, in memory."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(
            ("solves", "distinct_solves", "solve_bytes", "loop_evals",
             "csv_write_bytes", "csv_read_rows"), 0)
        self.root_ns = 0
        self.unmeasured = []
        self._stack = []            # [layer, child_ns] of the open spans
        self._op_solves = set()
        self._patches = []          # (container, key, original, is_attr)
        self._originals = {}

    # -- operation boundaries -------------------------------------------
    def begin_op(self):
        self._op_solves = set()

    def end_op(self):
        self.counters["distinct_solves"] += len(self._op_solves)

    # -- installing and removing the wrappers ---------------------------
    def install(self):
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._patch(layer, target) and target not in self.unmeasured:
                    self.unmeasured.append(target)

    def uninstall(self):
        for container, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    def _patch(self, layer, target):
        module_name, _, qualname = target.partition(":")
        module = sys.modules.get(module_name)
        owner_name, _, name = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, name):
            return False
        hook = self._hook_for(target)
        raw = owner.__dict__.get(name) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            self._originals[target] = raw.__func__
            wrapped = classmethod(self._wrap(layer, target, raw.__func__, hook))
            self._patches.append((owner, name, raw, True))
            setattr(owner, name, wrapped)
            return True
        original = getattr(owner, name)
        self._originals[target] = original
        wrapped = self._wrap(layer, target, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "suscav" or mod_name.startswith("suscav.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value, True))
                    setattr(mod, key, wrapped)
                elif type(value) is dict and key != "__builtins__":
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, dvalue, False))
                            value[dkey] = wrapped
        return True

    def _wrap(self, layer, target, fn, hook):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                self.calls[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_ns += elapsed
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:   # a changed signature must not fail the op
                    if target not in self.unmeasured:
                        self.unmeasured.append(target)
            return result

        return traced

    # -- counters taken at the layer boundaries -------------------------
    def _hook_for(self, target):
        if target in SOLVE_ENTRIES:
            kind = SOLVE_ENTRIES[target]
            return lambda args, kwargs, result: self._count_solve(kind, args, kwargs)
        if target in LOOP_ENTRIES:
            return lambda args, kwargs, result: self._add("loop_evals", 1)
        if target == "suscav.suspension:_solve_batched":
            # computed size of the dense dynamic matrices handed to the solver
            return lambda args, kwargs, result: self._add("solve_bytes", args[0].nbytes)
        if target == "suscav.spectra:read_asd_csv":
            return lambda args, kwargs, result: self._add("csv_read_rows", len(result[0]))
        if target in LAYERS["spectra.csv_write"]:
            return lambda args, kwargs, result: self._add(
                "csv_write_bytes", os.path.getsize(args[0]))
        return None

    def _add(self, counter, amount):
        self.counters[counter] += amount

    def _count_solve(self, kind, args, kwargs):
        model, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
        if hasattr(model, "final_stages"):      # a chain: its horizontal model
            model = self._originals["suscav.suspension:build_model"](model, "horizontal")
        mirror = args[2] if len(args) > 2 else kwargs.get("mirror", "a")
        key = (kind, mirror, model.axis, model.masses.tobytes(), model.springs,
               grid.values.tobytes())
        self.counters["solves"] += 1
        self._op_solves.add(key)

    # -- per-layer metrics ---------------------------------------------
    def metrics(self, ops, traced_wall_s, untraced_wall_s):
        """Per-operation layer metrics over `ops` traced operations."""
        c = self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count/op")
            out[f"{layer}.self_ms"] = (self.self_ns[layer] / 1e6 / ops, "ms/op")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        write_s = self.self_ns["spectra.csv_write"] / 1e9
        read_s = self.self_ns["spectra.csv_read"] / 1e9
        out.update({
            "suspension.solves": (c["solves"] / ops, "count/op"),
            "suspension.solve_bytes": (c["solve_bytes"] / ops, "B/op"),
            "suspension.unique_solve_ratio": (
                c["distinct_solves"] / c["solves"] if c["solves"] else 1.0, "ratio"),
            "isolation.loop_evals_per_command": (c["loop_evals"] / ops, "count/op"),
            "spectra.csv_write.bytes": (c["csv_write_bytes"] / ops, "B/op"),
            "spectra.csv_write.mb_per_s": (
                c["csv_write_bytes"] / 1e6 / write_s if write_s else 0.0, "MB/s"),
            "spectra.csv_read.rows": (c["csv_read_rows"] / ops, "rows/op"),
            "spectra.csv_read.rows_per_s": (
                c["csv_read_rows"] / read_s if read_s else 0.0, "rows/s"),
            "traced_wall_ms": (traced_wall_s * 1e3 / ops, "ms/op"),
            "unattributed_ms": ((traced_wall_s * 1e9 - self.root_ns) / 1e6 / ops, "ms/op"),
            "trace_overhead_pct": ((traced_wall_s / untraced_wall_s - 1.0) * 100.0, "%"),
        })
        return out

    def self_time_balanced(self):
        """Self times add up to the root spans' durations, to the nanosecond."""
        return sum(self.self_ns.values()) == self.root_ns
