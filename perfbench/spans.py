"""In-memory span tracer for the benchmark's traced runs.

``install`` swaps every public function, and every public method, property
and static method of a public class, of the package's layer modules for a
timing wrapper.  A function is swapped wherever it is bound: in its own
module and in every package module that imported it by name (``cli.run_afl``
is the same object as ``flcore.run_afl``).  Nothing in the package itself is
edited, so the traced code is exactly the code an untraced run executes.

Each span records a name id, start, end and parent index in flat arrays;
``summarize`` turns them into per-layer and per-function counts and self
times, where a span's self time is its duration minus the time its child
spans cover.  Calls to private helpers count towards the public caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "harness.body"


class Tracer:
    """Span recorder; one per traced workload body."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        ends = self.end

        def traced(*args, **kwargs):
            i = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def run(self, body):
        """Call ``body()`` inside the root span and return its result."""
        return self.wrap(body, ROOT_SPAN)()

    # ---- installing and removing the wrappers -------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, prefix: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                wrapped = property(self.wrap(member.fget, name), member.fset,
                                   member.fdel, member.__doc__)
            elif isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self.wrap(member.__func__, name))
            elif inspect.isfunction(member):
                wrapped = self.wrap(member, name)
            else:
                continue
            self._set(cls, attr, wrapped)

    def install(self, package: str, layers):
        """Wrap the public API of ``package.<layer>`` for every layer."""
        swaps = {}
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    swaps[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = swaps.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def write(self, path: str):
        """Write every span to ``path`` as an ``.npz`` archive."""
        np.savez(path, **self.arrays())


def summarize(spans: dict) -> dict:
    """Calls, self time and inclusive time per span name and per layer.

    The layer of a span is the text before the first dot of its name; the
    root span belongs to the ``harness`` layer, so the self times of all
    layers add up to the root's duration.
    """
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_t = dur - covered
    n_names = len(spans["names"])
    calls = np.bincount(nid, minlength=n_names)
    self_by_name = np.bincount(nid, weights=self_t, minlength=n_names)
    incl_by_name = np.bincount(nid, weights=dur, minlength=n_names)
    by_name, by_layer = {}, {}
    for i, name in enumerate(spans["names"]):
        if not calls[i]:
            continue
        name = str(name)
        entry = {"calls": int(calls[i]), "self_s": float(self_by_name[i]),
                 "incl_s": float(incl_by_name[i])}
        by_name[name] = entry
        layer = by_layer.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    roots = np.flatnonzero(~has_parent)
    return {"by_name": by_name, "by_layer": by_layer,
            "root_s": float(dur[roots].sum()), "spans": int(dur.size)}
