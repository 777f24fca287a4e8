"""Call spans around the bcslab layers, recorded from outside the package.

Tracer wraps every public function of each bcslab module wherever it is bound
in a module namespace, so calls through `from .model import ...` names are
seen too.  A span is (name, parent, start, end); spans stay in memory and are
written once, when the traced subcommand returns.  Summary reads them back:
a span's self time is its duration minus the durations of its child spans,
which on one thread never overlap.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

import numpy as np


def _matrix_order(args, kwargs, result):
    return float(np.shape(args[0] if args else kwargs["matrix"])[0])


def _nbytes(args, kwargs, result):
    return float(sum(a.nbytes for a in result))


def _iterations(args, kwargs, result):
    return float(result.iterations)


# one number recorded per call of these functions
PROBES = {
    "potential.logdet": _matrix_order,
    "expansion.analytic_hessian": _nbytes,
    "gap.solve_gap": _iterations,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.extra: dict = {}
        self.wrapped: list = []
        self._stack: list = []

    def _wrap(self, name, fn, probe):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                try:
                    self.extra[i] = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a changed signature loses the probe, not the run
                    self.extra[i] = math.nan
            return result

        return traced

    def install(self, package: str):
        """Wrap the public functions of every imported module of `package`."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        replacement = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replacement[obj] = self._wrap(name, obj, PROBES.get(name))
                    self.wrapped.append(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, attr, replacement[obj])

    def write(self, path: str, import_s: float):
        now = time.perf_counter()
        for i in self._stack:  # spans left open by an exception
            self.ends[i] = now
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        extra = np.full(len(self.starts), math.nan)
        for i, v in self.extra.items():
            extra[i] = v
        np.savez(
            path,
            table=np.array(table, dtype=str),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts, dtype=float),
            end=np.array(self.ends, dtype=float),
            extra=extra,
            wrapped=np.array(self.wrapped, dtype=str),
            import_s=np.float64(import_s),
        )


class Summary:
    """Per-function counts, self and total times of one traced process."""

    def __init__(self, path):
        with np.load(path, allow_pickle=False) as data:
            table = [str(n) for n in data["table"]]
            self.name = data["name"]
            self.parent = data["parent"]
            self.duration = data["end"] - data["start"]
            self.extra = data["extra"]
            self.wrapped = {str(n) for n in data["wrapped"]}
            self.import_s = float(data["import_s"])
        self.index = {n: k for k, n in enumerate(table)}
        covered = np.zeros(len(self.duration))
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], self.duration[child])
        self.self_time = self.duration - covered

    def _mask(self, fn: str) -> np.ndarray:
        return self.name == self.index.get(fn, -1)

    def calls(self, fn: str) -> int:
        return int(self._mask(fn).sum())

    def self_s(self, fn: str) -> float:
        return float(self.self_time[self._mask(fn)].sum())

    def total_s(self, fn: str) -> float:
        return float(self.duration[self._mask(fn)].sum())

    def durations(self, fn: str) -> list:
        return self.duration[self._mask(fn)].tolist()

    def extras(self, fn: str) -> np.ndarray:
        return self.extra[self._mask(fn)]

    def calls_under(self, fn: str, ancestor: str) -> int:
        """Calls of `fn` made, directly or not, from inside `ancestor`."""
        target, anc = self.index.get(fn, -1), self.index.get(ancestor, -1)
        names = self.name.tolist()
        inside = []
        count = 0
        # a parent is recorded before its children
        for k, p in zip(names, self.parent.tolist()):
            inside.append(p >= 0 and (inside[p] or names[p] == anc))
            count += inside[-1] and k == target
        return count

    def layer_self_s(self, layer: str) -> float:
        ks = [k for n, k in self.index.items() if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ks)].sum())

    def all_self_s(self) -> float:
        return float(self.self_time.sum())

    def top(self, k: int) -> list:
        by_name = [(self.self_s(n), n) for n in self.index]
        return sorted(by_name, reverse=True)[:k]


def percentile_ms(values: list, pct: int) -> float:
    """pct-th percentile in ms (statistics.quantiles, exclusive); 0 if no calls."""
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    if pct == 50:
        return 1e3 * statistics.median(values)
    return 1e3 * statistics.quantiles(values, n=100)[pct - 1]
