"""Span tracing of the package's hot functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
``gkexpand`` module that holds a reference to it (``log_factorial_array``
is imported by name into ``basis``, ``blocks`` and ``expansion``, for
example), and ``uninstall`` puts the originals back.  Spans are kept in
memory as flat arrays -- name, start, end, parent, op and items -- and
written out once, when the run ends.  Nothing is installed in an untraced
run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _size_of_result(args, res) -> int:
    return int(np.size(res))


def _one(args, res) -> int:
    return 1


# (module, attribute, items) per traced function.  ``items`` counts the
# elements or pairs one call processes; None counts the span's direct
# children instead, which for golden_max are its f-evaluations.
TARGETS = (
    ("numerics", "log_factorial_array", _size_of_result),
    ("basis", "log_abs_psi_many", _size_of_result),
    ("expansion", "Expansion.basis_log_values", lambda args, res: int(res[0].shape[0])),
    ("expansion", "_combo_block_log_values", lambda args, res: int(res[0].shape[0])),
    ("reconstruct", "_accumulate", lambda args, res: int(np.size(args[0]))),
    ("reconstruct", "tail_bound", _one),
    ("blocks", "row_values", _size_of_result),
    ("optimize", "golden_max", None),
    ("blocks", "_combo_abs_at", lambda args, res: int(np.size(args[1]))),
    ("blocks", "row_sup_norms", lambda args, res: len(res)),
    ("probe", "_next_candidate", _one),
    ("probe", "decay_radius", _one),
    ("probe", "_quad_form", lambda args, res: _pairs(len(args[0]))),
    ("probe", "offdiag_row_sums", lambda args, res: _pairs(args[0].n)),
    ("probe", "verify_certificate", lambda args, res: _pairs(args[0].n)),
)

# basis_log_values returns two float64 arrays (signs, logs) per term.
BYTES_PER_BASIS_TERM = 16


def target_name(module: str, attr: str) -> str:
    """Metric prefix of a target: ``module.function``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.targets = TARGETS
        self.names = [target_name(m, a) for m, a, _ in TARGETS]
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")

    def _wrap(self, tid: int, fn, items):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(tid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.items.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if items is not None:
                self.items[sid] = items(args, res)
            return res

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "gkexpand" or name.startswith("gkexpand."))
        ]
        for tid, (mod, attr, items) in enumerate(self.targets):
            owner = sys.modules[f"gkexpand.{mod}"]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(tid, fn, items))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(tid, fn, items)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def layer_metrics(self, ops: int, speed_scale: float) -> dict[str, tuple[float, str]]:
        """Per-op calls, self time and items of every target.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since calls nest.  It is
        multiplied by ``speed_scale`` to read at the reference CPU speed.
        """
        names = np.frombuffer(self.name, dtype=np.uint16)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        items = np.frombuffer(self.items, dtype=np.int64).astype(np.float64)
        has_parent = parents >= 0
        covered = np.zeros(len(dur))
        children = np.zeros(len(dur))
        np.add.at(covered, parents[has_parent], dur[has_parent])
        np.add.at(children, parents[has_parent], 1.0)
        self_time = dur - covered
        out: dict[str, tuple[float, str]] = {}
        per = 1.0 / max(ops, 1)
        for tid, (name, target) in enumerate(zip(self.names, self.targets)):
            mine = names == tid
            count = float(np.count_nonzero(mine))
            work = float(np.sum(children[mine] if target[2] is None else items[mine]))
            out[f"{name}.calls"] = (count * per, "count/op")
            out[f"{name}.self_s"] = (float(np.sum(self_time[mine])) * per * speed_scale, "s/op")
            out[f"{name}.items"] = (work * per, "count/op")
        basis_terms = out["expansion.basis_log_values.items"][0]
        out["expansion.basis_log_values.bytes_out"] = (BYTES_PER_BASIS_TERM * basis_terms, "B/op")
        return out

    def write(self, path) -> None:
        """One CSV line per span: id, parent, op, name, start, end, items."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s,items\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid]!r},{self.end[sid]!r},{self.items[sid]}\n"
                )
