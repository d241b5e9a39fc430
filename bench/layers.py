"""Per-layer tracing for the benchmark, applied from outside the package.

`install` wraps the public entry points of each qmip layer (and the numpy
kernels they call) with span recorders. A wrapper replaces the function in
every place a caller looks the name up: the defining module, every qmip module
that imported it by name (for example `qmip.model.apply_gate` and
`qmip.transforms.run`) and the `PASSES` table. `restore` puts the originals
back. No file of the package changes.

A span records its name, start, end, parent span and the id of the benchmark
op it belongs to. Counters are taken at the same boundaries, from the call's
arguments and return value. Byte counters ending in `bytes` with unit
`B-computed` are computed from array sizes, not measured traffic. Everything
is kept in memory; `Tracer.dump` writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        # per span name
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.outer_s: list[float] = []   # time not nested in a span of the same name
        self._depth: list[int] = []
        self._stack: list[list] = []     # [span index, name id, child seconds]
        self.op_id = -1
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.outer_s.append(0.0)
            self._depth.append(0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append([idx, nid, 0.0])
        self._depth[nid] += 1
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        t = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.outer_s[nid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def maximum(self, counter: str, value: float) -> None:
        self.counts[counter] = max(self.counts.get(counter, 0), value)

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as span `name`; `after(tracer, args, kwargs, result)`
        takes counters from the call once the span has closed."""
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def stat(self, name: str, kind: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_s,
                "s": self.outer_s}[kind][nid]

    def dump(self, path) -> None:
        """Write every span as fixed-width columns (numpy .npz)."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))


def _tensordot_bytes(tr, args, kwargs, out):
    tr.add("numpy.tensordot.bytes",
           args[0].nbytes + args[1].nbytes + out.nbytes)


def _full_matrix_bytes(tr, args, kwargs, out):
    if args[0].controls:   # only controlled gates build a new matrix
        tr.add("circuits.full_matrix.bytes", out.nbytes)


def _flatten_counts(tr, args, kwargs, branches):
    tr.add("model.flatten.branches", len(branches))
    tr.add("model.flatten.ops", sum(len(b.ops) for b in branches))


def _run_qubits(tr, args, kwargs, out):
    inst = args[0] if args else kwargs["instance"]
    tr.maximum("model.run.qubits_max", inst.verifier.layout.total_qubits)


def _seesaw_counts(tr, args, kwargs, res):
    tr.add("adversary.sweeps", len(res.trace))
    tr.add("adversary.restarts", len(res.restart_values))
    # the result keeps the converged flag of its best restart only, which is
    # every restart when restarts == 1 (the audit workload's setting)
    tr.add("adversary.converged", int(res.converged))


def _pass_qubits(tr, args, kwargs, res):
    tr.maximum("transforms.out_qubits_max", res.report.qubits_after)


def _save_bytes(tr, args, kwargs, text):
    tr.add("files.save.bytes", len(text.encode()))


def _targets():
    import numpy as np
    from qmip import adversary, circuits, files, linalg, model, transforms
    out = [
        (np, "tensordot", "numpy.tensordot", _tensordot_bytes),
        (np.linalg, "eigh", "numpy.eigh", None),
        (np.linalg, "eigvalsh", "numpy.eigh", None),
        (np.linalg, "svd", "numpy.svd", None),
        (circuits.Gate, "full_matrix", "circuits.full_matrix", _full_matrix_bytes),
        (circuits.Gate, "dagger", "circuits.dagger", None),
        (circuits, "apply_gate", "circuits.apply_gate", None),
        (linalg, "apply_matrix", "linalg.apply_matrix", None),
        (linalg, "project", "linalg.project", None),
        (linalg, "polar_unitary", "linalg.polar_unitary", None),
        (linalg, "random_unitary", "linalg.random_unitary", None),
        (model, "validate", "model.validate", None),
        (model, "flatten", "model.flatten", _flatten_counts),
        (model, "run", "model.run", _run_qubits),
        (model, "purify_coins", "model.purify_coins", None),
        (adversary, "seesaw", "adversary.seesaw", _seesaw_counts),
        (adversary, "optimal_shared_state", "adversary.optimal_shared_state", None),
        (transforms, "run_pipeline", "transforms.run_pipeline", None),
        (files, "load", "files.load", None),
        (files, "save", "files.save", _save_bytes),
        (files, "digest", "files.digest", None),
    ]
    for key, fn in transforms.PASSES.items():
        out.append((transforms, fn.__name__, f"transforms.{key}", _pass_qubits))
    return out


def install(tracer: Tracer) -> list:
    """Wrap every traced entry point; returns the undo list for `restore`."""
    from qmip import transforms
    targets = _targets()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qmip" or n.startswith("qmip."))]
    undo = []
    for owner, attr, name, after in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, after)
        for holder in [owner] + modules:
            if vars(holder).get(attr) is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        for key, fn in transforms.PASSES.items():
            if fn is original:
                undo.append((transforms.PASSES, key, original))
                transforms.PASSES[key] = wrapper
    return undo


def restore(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        if isinstance(holder, dict):
            holder[attr] = original
        else:
            setattr(holder, attr, original)


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values of the named per-layer metrics. `<span>.calls`, `<span>.self_s`
    and `<span>.s` (time not nested in a span of the same name) come from the
    spans; every other name is a counter, 0 if the layer never ran."""
    out: dict[str, float] = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "s"):
            out[name] = tracer.stat(span, kind)
        else:
            out[name] = tracer.counts.get(name, 0)
    sweeps = tracer.counts.get("adversary.sweeps", 0)
    restarts = tracer.counts.get("adversary.restarts", 0)
    out["adversary.sweep_s"] = (tracer.stat("adversary.seesaw", "s") / sweeps
                                if sweeps else 0.0)
    out["adversary.converged_frac"] = (
        tracer.counts.get("adversary.converged", 0) / restarts if restarts else 0.0)
    return out
