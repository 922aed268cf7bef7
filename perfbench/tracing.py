"""Span tracing around the cat0ot layer boundaries, installed from outside the package.

Each boundary is a function or method that one layer calls in another. The
tracer replaces it wherever a caller looks it up (module globals of every
loaded ``cat0ot`` module, the space implementation classes, and
``scipy.optimize`` for the assignment solver) with a wrapper that records a
span: name, start, end and the index of the enclosing span in the same
thread. Spans stay in per-thread arrays until :meth:`Tracer.summary` reduces
them and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from array import array

import numpy as np

WRAPPED = "__perfbench_wrapped__"

# Span name -> (owner path, attribute). The owner is where the original is
# defined; every other place that holds the same object is found by scanning.
BOUNDARIES = {
    "simplex.solve_transport": ("cat0ot._simplex", "solve_transport"),
    "transport.solve_kantorovich": ("cat0ot.transport", "solve_kantorovich"),
    "transport.pairwise_costs": ("cat0ot.transport", "pairwise_costs"),
    "transport.lsa": ("scipy.optimize", "linear_sum_assignment"),
    "transport.assignment_duals": ("cat0ot.transport", "_assignment_duals"),
    "transport.interior_duals": ("cat0ot.transport", "_interior_duals"),
    "transport.check_cyclic_monotonicity": ("cat0ot.transport", "check_cyclic_monotonicity"),
    "transport.verify_transport_identity": ("cat0ot.transport", "verify_transport_identity"),
    "transport.measure": ("cat0ot.transport", "measure"),
    "spaces.distances_from": ("cat0ot.spaces", "*Impl.distances_from"),
    "spaces.normalize": ("cat0ot.spaces", "*Impl.normalize"),
    "spaces.validate_point": ("cat0ot.spaces", "*Impl.validate_point"),
    "spaces.distance": ("cat0ot.spaces", "*Impl.distance"),
    "spaces.geodesic": ("cat0ot.spaces", "*Impl.geodesic"),
    "geometry.distance": ("cat0ot.geometry", "distance"),
    "geometry.geodesic": ("cat0ot.geometry", "geodesic"),
    "geometry.cat0_defect": ("cat0ot.geometry", "cat0_defect"),
    "calculus.twist_test": ("cat0ot.calculus", "twist_test"),
    "calculus.shell_estimate": ("cat0ot.calculus", "_shell_estimate"),
    "polar.polar_factorize": ("cat0ot.polar", "polar_factorize"),
    "harness.run_scenario": ("cat0ot.harness", "run_scenario"),
    "harness.run_batch": ("cat0ot.harness", "run_batch"),
}
NAMES = tuple(BOUNDARIES)
LAYERS = ("simplex", "transport", "spaces", "geometry", "calculus", "polar", "harness")

# Scalar primitives run 10^5..10^6 times; their exact call counts are the
# trustworthy number, so only counts are reported for them.
COUNT_ONLY = ("spaces.normalize", "spaces.validate_point", "spaces.distance", "spaces.geodesic")
# Boundaries with listed boundaries nested inside them also report self time.
WITH_SELF = (
    "transport.solve_kantorovich",
    "transport.pairwise_costs",
    "transport.check_cyclic_monotonicity",
    "transport.verify_transport_identity",
    "transport.measure",
    "geometry.distance",
    "geometry.geodesic",
    "geometry.cat0_defect",
    "calculus.twist_test",
    "calculus.shell_estimate",
    "polar.polar_factorize",
    "harness.run_scenario",
)
DERIVED = (
    "simplex.cells",
    "transport.check_cyclic_monotonicity.tuples",
    "transport.assignment.accepted_frac",
    "transport.interior_duals.refined_frac",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in NAMES:
        out.append(f"{name}.calls")
        if name in COUNT_ONLY:
            continue
        out.append(f"{name}.busy_s")
        if name in WITH_SELF:
            out.append(f"{name}.self_s")
    out.extend(DERIVED)
    out.extend(f"layer.{layer}.self_share" for layer in LAYERS)
    out.extend(("trace.spans", "trace.overhead_ratio"))
    return out


def _owners(module_path: str, attr: str) -> list[tuple[object, str]]:
    """(object, attribute) pairs that define a boundary."""
    module = sys.modules[module_path]
    if attr.startswith("*Impl."):
        meth = attr.split(".", 1)[1]
        return [
            (cls, meth)
            for cname, cls in vars(module).items()
            if cname.endswith("Impl") and isinstance(cls, type) and meth in vars(cls)
        ]
    return [(module, attr)]


def _lookup_sites() -> list[object]:
    """Module namespaces through which cat0ot code reaches a boundary."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "cat0ot" or n.startswith("cat0ot.")]
    return mods + [sys.modules["scipy.optimize"]]


def installed_wrappers() -> list[str]:
    """Names of every place that currently holds a tracing wrapper."""
    found = []
    for site in _lookup_sites():
        for key, val in vars(site).items():
            if getattr(val, WRAPPED, False):
                found.append(f"{site.__name__}.{key}")
            if isinstance(val, type) and val.__module__.startswith("cat0ot"):
                found.extend(
                    f"{val.__qualname__}.{k}" for k, v in vars(val).items() if getattr(v, WRAPPED, False)
                )
    return sorted(set(found))


class _ThreadBuffer:
    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Installs span-recording wrappers at every boundary and reduces the spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cells = 0
        self._tuples = 0
        self._refined = 0
        self._lock = threading.Lock()

    # -- recording

    def _buffer(self) -> _ThreadBuffer:
        buf = _ThreadBuffer()
        self._local.buf = buf
        self._buffers.append(buf)
        return buf

    def _wrap(self, name_id: int, fn, hook=None):
        local = self._local
        clock = time.perf_counter
        new_buffer = self._buffer
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            idx = len(buf.name)
            stack = buf.stack
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, out)
            return out

        setattr(wrapper, WRAPPED, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _count(self, counter: str, n: int) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def _count_cells(self, args, _out) -> None:
        n, m = np.shape(args["C"])
        self._count("_cells", n * m)

    def _count_tuples(self, args, _out) -> None:
        if args["mode"] == "exhaustive":
            k = len(args["plan"].entries)
            n = sum(math.comb(k, size) * math.factorial(size - 1) for size in range(2, args["max_len"] + 1))
        else:
            n = int(args["n_samples"])
        self._count("_tuples", n)

    def _count_refined(self, args, out) -> None:
        # _interior_duals hands back its input array when it skips or fails
        if out is not args["psi"]:
            self._count("_refined", 1)

    def install(self) -> None:
        if self._patched or installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        hooks = {
            "simplex.solve_transport": self._count_cells,
            "transport.check_cyclic_monotonicity": self._count_tuples,
            "transport.interior_duals": self._count_refined,
        }
        sites = _lookup_sites()
        for name_id, name in enumerate(NAMES):
            module_path, attr = BOUNDARIES[name]
            for owner, key in _owners(module_path, attr):
                original = vars(owner)[key]
                wrapper = self._wrap(name_id, original, hooks.get(name))
                self._patch(owner, key, wrapper)
                if isinstance(owner, type):
                    continue
                for site in sites:
                    for other, val in list(vars(site).items()):
                        if val is original and (site, other) != (owner, key):
                            self._patch(site, other, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")

    # -- reduction

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parents index into the same arrays."""
        names, parents, starts, ends = [], [], [], []
        offset = 0
        for buf in self._buffers:
            p = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            names.append(np.frombuffer(buf.name, dtype=np.int32).astype(np.int64))
            parents.append(np.where(p >= 0, p + offset, -1))
            starts.append(np.frombuffer(buf.start, dtype=float))
            ends.append(np.frombuffer(buf.end, dtype=float))
            offset += len(buf.name)
        if not names:
            empty = np.zeros(0, dtype=np.int64)
            return {"name": empty, "parent": empty, "start": empty.astype(float), "end": empty.astype(float)}
        return {
            "name": np.concatenate(names),
            "parent": np.concatenate(parents),
            "start": np.concatenate(starts),
            "end": np.concatenate(ends),
        }

    def summary(self) -> dict[str, float]:
        """Per-boundary calls, busy and self time, derived ratios and layer self shares."""
        s = self.spans()
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        # busy time counts only the outermost span of each name, so a
        # boundary that re-enters itself is not counted twice
        outer = np.ones(len(dur), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            outer[live] &= name[anc[live]] != name[live]
            anc[live] = parent[anc[live]]
        out: dict[str, float] = {}
        for nid, n in enumerate(NAMES):
            mask = name == nid
            out[f"{n}.calls"] = int(mask.sum())
            if n in COUNT_ONLY:
                continue
            out[f"{n}.busy_s"] = float(dur[mask & outer].sum())
            if n in WITH_SELF:
                out[f"{n}.self_s"] = float(self_t[mask].sum())
        out["simplex.cells"] = int(self._cells)
        out["transport.check_cyclic_monotonicity.tuples"] = int(self._tuples)
        out["transport.assignment.accepted_frac"] = self._accepted_frac(name, parent)
        calls = out["transport.interior_duals.calls"]
        out["transport.interior_duals.refined_frac"] = self._refined / calls if calls else 0.0
        # run_batch only waits on its worker threads, so it is left out of the shares
        counted = name != NAMES.index("harness.run_batch")
        total = float(self_t[counted].sum())
        for layer in LAYERS:
            ids = [i for i, n in enumerate(NAMES) if n.split(".", 1)[0] == layer and n != "harness.run_batch"]
            share = float(self_t[np.isin(name, ids)].sum()) / total if total > 0 else 0.0
            out[f"layer.{layer}.self_share"] = share
        out["trace.spans"] = int(len(name))
        return out

    @staticmethod
    def _accepted_frac(name: np.ndarray, parent: np.ndarray) -> float:
        """Share of assignment fast-path attempts whose certificate was accepted."""
        solve = NAMES.index("transport.solve_kantorovich")
        lsa_parents = set(parent[name == NAMES.index("transport.lsa")].tolist())
        simplex_parents = set(parent[name == NAMES.index("simplex.solve_transport")].tolist())
        attempts = [p for p in lsa_parents if p >= 0 and name[p] == solve]
        if not attempts:
            return 0.0
        return sum(1 for p in attempts if p not in simplex_parents) / len(attempts)

    def dump(self, path: str) -> None:
        s = self.spans()
        np.savez_compressed(path, names=np.array(NAMES), **s)
