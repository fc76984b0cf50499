"""Span tracer for the benchmark's traced run.

Each traced function is wrapped by rebinding it in every ``braidgate``
module namespace that holds it, so a call made from inside the package
(``enhancement.rep_of_word`` calling ``yang_baxter.braid_rep``) goes through
the wrapper too and becomes a child span.  Methods of ``CatalogEntry`` are
patched on the class.  Spans are kept in memory as parallel lists and
written out once, after the run.
"""

from __future__ import annotations

import sys
import time

import numpy as np

OP_SPAN = "op"


class Tracer:
    """Records (name, start, end, parent, op id) for every traced call."""

    def __init__(self, targets: list[str]):
        self.targets = list(targets)
        self.names: list[str] = [OP_SPAN] + self.targets
        self._name_idx = {n: k for k, n in enumerate(self.names)}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name_idx: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_idx)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self.span_end.append(0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def _exit(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside a root span for operation ``op_id``."""
        self._op = op_id
        sid = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(sid)
            self._op = -1

    def _wrap(self, name: str, fn):
        idx = self._name_idx[name]
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            sid = enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sid)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in all loaded ``braidgate`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "braidgate" or k.startswith("braidgate."))]
        for name in self.targets:
            mod_name, _, attr = name.partition(".")
            home = sys.modules[f"braidgate.{mod_name}"]
            if "." in attr:  # a method, patched on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every binding that :meth:`install` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int64),
            "start_ns": np.asarray(self.span_start, dtype=np.int64),
            "end_ns": np.asarray(self.span_end, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(start_ns, end_ns, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    dur = np.asarray(end_ns, dtype=np.int64) - np.asarray(start_ns, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.zeros(dur.size, dtype=np.int64)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered
