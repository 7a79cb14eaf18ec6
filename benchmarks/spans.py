"""Span tracing of qnr from outside the package, and the per-layer metrics.

``Tracer.install`` wraps a fixed list of public functions of the qnr modules
(the layers ``cli``, ``config``, ``noise``, ``qsim``, ``reservoir``, ``tipc``
and ``dataio``).  Each wrapper is bound wherever the original is bound: in
its defining module, at every ``from ... import`` binding in another qnr
module, and in module-level dicts such as ``cli._COMMANDS``.  A call records
one span: name, start, end, the index of the span that caused it, and a few
counts taken from the arguments and the result.  Spans stay in memory until
the traced process ends.

``layer_metrics`` turns a span list into the benchmark's per-layer metrics.
Nothing here imports qnr or numpy, so ``run.py`` can use it too.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# module -> public functions traced in it: those the workloads reach.
# Leaf helpers called once per gate (rx_matrix, ...) are left out: their
# wrapper would cost more than their work and skew every self time above
# them.
TRACED = {
    "qnr.cli": ["cmd_train", "cmd_tipc", "cmd_ipc", "cmd_esp"],
    "qnr.config": ["assemble", "load_file"],
    "qnr.noise": ["compile_noise"],
    "qnr.qsim": ["apply_kraus", "expect_all_z", "haar_product_state",
                 "compile_unitary"],
    "qnr.reservoir": ["run_qnr", "esp_probe", "fit_readout",
                      "spatial_multiplex", "narma2", "nrmse"],
    "qnr.tipc": ["analyze_states", "ipc_of_target", "normalize_states",
                 "enumerate_bases", "evaluate_bases", "orthonormalize",
                 "capacities", "chi2_threshold", "shuffle_surrogate_threshold",
                 "profile"],
    "qnr.dataio": ["write_profile_json", "write_profile_degrees_csv",
                   "write_json", "write_esp_csv"],
}

# span name -> counts read from the bound arguments ``a`` and the result ``r``
_ATTRS = {
    "reservoir.run_qnr": lambda a, r: {
        "steps": len(a["inputs"]), "n_qubits": a["config"].n_qubits,
        "initial": a["initial"] is not None},
    "noise.compile_noise": lambda a, r: {"cross_pair": r.has_cross_pair_gates},
    "tipc.orthonormalize": lambda a, r: {"kept": len(r.kept),
                                         "dropped": len(r.dropped)},
    "tipc.evaluate_bases": lambda a, r: {"cells": int(r.size)},
    "tipc.enumerate_bases": lambda a, r: {"terms": len(r)},
    "tipc.shuffle_surrogate_threshold": lambda a, r: {
        "surrogates": a["n_surrogates"]},
    "dataio.write_profile_json": lambda a, r: {
        "bytes": os.path.getsize(a["path"])},
}

# layers whose first call ends set-up: inputs are drawn by then
COMPUTE_LAYERS = ("reservoir", "tipc")

# run_qnr falls back to per-qubit apply_kraus above this register size
_SUPEROP_MAX_QUBITS = 5


def span_name(module: str, func: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer == "cli":
        func = func[len("cmd_"):]
    return f"{layer}.{func}"


def qnr_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qnr" or name.startswith("qnr."))]


def rebind(original, replacement) -> int:
    """Point every qnr binding of ``original`` at ``replacement``.

    Covers module attributes (the defining module and every ``from ...
    import`` of the name) and values of module-level dicts.  Returns the
    number of bindings changed.
    """
    changed = 0
    for mod in qnr_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        changed += 1
    return changed


class Tracer:
    """In-memory span recorder around the functions listed in ``TRACED``.

    A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index
    of the enclosing span or -1.  Times come from ``time.monotonic``, which
    is the same clock in every process on the machine.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.installed = []

    def add(self, name: str, start: float, end: float, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs or {}])

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        attrs_of = _ATTRS.get(name)
        sig = inspect.signature(func) if attrs_of else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.monotonic(), None,
                          stack[-1] if stack else -1, {}])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[idx][4]["error"] = True
                raise
            finally:
                spans[idx][2] = time.monotonic()
                stack.pop()
            if attrs_of:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = attrs_of(bound.arguments, result)
            return result

        return functools.wraps(func)(traced)

    def install(self):
        """Wrap every function in ``TRACED``; the qnr modules must be loaded."""
        for module, funcs in TRACED.items():
            mod = sys.modules[module]
            for func in funcs:
                original = getattr(mod, func)
                wrapper = self.wrap(span_name(module, func), original)
                rebind(original, wrapper)
                self.installed.append((original, wrapper))

    def uninstall(self):
        for original, wrapper in self.installed:
            rebind(wrapper, original)
        self.installed = []

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans]


def install_setup_marker(cli, on_mark):
    """Call ``on_mark`` once, on the first call from ``cli`` into a compute layer.

    Used with tracing off: the hook wraps only the names ``cli`` imported
    from ``COMPUTE_LAYERS`` and restores the originals on its first call,
    so the rest of the run executes unwrapped code.
    """
    modules = {f"qnr.{layer}" for layer in COMPUTE_LAYERS}
    originals = {key: value for key, value in vars(cli).items()
                 if inspect.isfunction(value) and value.__module__ in modules}

    def hook_for(func):
        def hook(*args, **kwargs):
            for k, f in originals.items():
                setattr(cli, k, f)
            on_mark()
            return func(*args, **kwargs)
        return hook

    for key, func in originals.items():
        setattr(cli, key, hook_for(func))


# ---------------------------------------------------------------------------
# Span arithmetic and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's.

    The tracer is one stack in one thread, so children nest inside their
    parent and never overlap.
    """
    out = [sp["end"] - sp["start"] for sp in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            out[sp["parent"]] -= sp["end"] - sp["start"]
    return out


def run_qnr_path(span, compile_span) -> str:
    """pair | full | full_kraus, from public facts only: whether the compiled
    noise couples pairs, whether an initial state was given, and n_qubits."""
    a = span["attrs"]
    if not compile_span["attrs"]["cross_pair"] and not a["initial"]:
        return "pair"
    return "full_kraus" if a["n_qubits"] > _SUPEROP_MAX_QUBITS else "full"


COMMANDS = ("train", "ipc", "tipc", "esp")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced process (``trace.overhead_s`` is added
    by ``run.py``, which also has the untraced runs).  Metrics of layers the
    run did not enter read 0."""
    selfs = self_times(spans)
    total, calls, self_s, attr = {}, {}, {}, {}
    for sp, st in zip(spans, selfs):
        n = sp["name"]
        total[n] = total.get(n, 0.0) + (sp["end"] - sp["start"])
        self_s[n] = self_s.get(n, 0.0) + st
        calls[n] = calls.get(n, 0) + 1
        for k, v in sp["attrs"].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                key = f"{n}.{k}"
                attr[key] = attr.get(key, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    compile_of = {sp["parent"]: sp for sp in spans
                  if sp["name"] == "noise.compile_noise"}
    paths = {p: [0.0, 0] for p in ("pair", "full", "full_kraus")}
    for i, sp in enumerate(spans):
        if sp["name"] != "reservoir.run_qnr":
            continue
        acc = paths[run_qnr_path(sp, compile_of[i])]
        acc[0] += sp["end"] - sp["start"]
        acc[1] += sp["attrs"]["steps"]

    kept = attr.get("tipc.orthonormalize.kept", 0)
    dropped = attr.get("tipc.orthonormalize.dropped", 0)
    m = {f"reservoir.run_qnr.{p}.us_per_step": ratio(t * 1e6, n)
         for p, (t, n) in paths.items()}
    m.update({
        "reservoir.run_qnr.calls": calls.get("reservoir.run_qnr", 0),
        "reservoir.run_qnr.steps": attr.get("reservoir.run_qnr.steps", 0),
        "reservoir.esp_probe.self_s": self_s.get("reservoir.esp_probe", 0.0),
        "qsim.apply_kraus.calls": calls.get("qsim.apply_kraus", 0),
        "noise.compile_noise.calls": calls.get("noise.compile_noise", 0),
        "tipc.orthonormalize.calls": calls.get("tipc.orthonormalize", 0),
        "tipc.orthonormalize.kept": kept,
        "tipc.orthonormalize.dropped": dropped,
        "tipc.orthonormalize.kept_ratio": ratio(kept, kept + dropped),
        "tipc.evaluate_bases.cells": attr.get("tipc.evaluate_bases.cells", 0),
        "tipc.surrogate.s_per_surrogate": ratio(
            total.get("tipc.shuffle_surrogate_threshold", 0.0),
            attr.get("tipc.shuffle_surrogate_threshold.surrogates", 0)),
        "tipc.analyze_states.calls": calls.get("tipc.analyze_states", 0),
        "tipc.enumerate_bases.terms": attr.get("tipc.enumerate_bases.terms", 0),
        "dataio.write_profile_json.bytes":
            attr.get("dataio.write_profile_json.bytes", 0),
    })
    for n in ("qsim.compile_unitary", "qsim.apply_kraus", "qsim.expect_all_z",
              "qsim.haar_product_state", "reservoir.fit_readout",
              "reservoir.spatial_multiplex", "reservoir.narma2",
              "noise.compile_noise", "tipc.orthonormalize", "tipc.evaluate_bases",
              "tipc.capacities", "tipc.shuffle_surrogate_threshold",
              "tipc.normalize_states", "tipc.enumerate_bases",
              "dataio.write_profile_json", "dataio.write_profile_degrees_csv",
              "dataio.write_json", "config.assemble", "import"):
        m[f"{n}.s"] = total.get(n, 0.0)
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = self_s.get(f"cli.{c}", 0.0)
    return m


def self_time_table(spans) -> list:
    """(name, calls, self seconds) per span name, largest self time first."""
    rows = {}
    for sp, st in zip(spans, self_times(spans)):
        row = rows.setdefault(sp["name"], [0, 0.0])
        row[0] += 1
        row[1] += st
    return sorted(((n, c, s) for n, (c, s) in rows.items()),
                  key=lambda r: -r[2])
