"""Spans and counters for the traced run, recorded from outside the
library.

`Tracer.install` replaces each traced function with a wrapper: module
functions wherever a torushms module (or the package namespace) binds
the same object, and methods through their class.  A span records its
name, start, end, parent span and task id; spans stay in memory and
`Tracer.write` saves them when the run ends.  Counters are computed from
arguments and results at the same boundaries.  `Tracer.uninstall` puts
the original objects back.

Self time is a span's duration minus the durations of its child spans
(spans nest, so children never overlap).  A call whose parent span has
the same name is recursion: it is timed, but does not add to `calls` or
to the counters, so `point_pow(p, -n)` counts once and `n` once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


def _count_mul(c, args, kwargs, result):
    a, b = args[0], args[1]
    na = len(a.terms)
    nb = len(b.terms) if hasattr(b, "terms") else (0 if b == 0 else 1)
    c["novikov.mul.term_pairs"] += na * nb
    if hasattr(result, "terms"):
        c["novikov.mul.terms_kept"] += len(result.terms)


def _count_add(c, args, kwargs, result):
    a, b = args[0], args[1]
    nb = len(b.terms) if hasattr(b, "terms") else (0 if b == 0 else 1)
    c["novikov.add.terms_in"] += len(a.terms) + nb


def _count_intersections(c, args, kwargs, result):
    c["torus.intersections.points"] += len(result)


def _count_theta(c, args, kwargs, result):
    c["tate.theta_eval.terms"] += len(result.terms)


def _count_point_pow(c, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    c["tate.point_pow.n_total"] += abs(n)


def _count_suite(c, args, kwargs, result):
    c["sheafk.relation_suite.relations"] += len(result)


def _count_k0(c, args, kwargs, result):
    terms = sys.modules["torushms.sheafk"].as_sum(args[0]).terms
    c["sheafk.k0_class.mult_total"] += sum(abs(m) for _, m in terms)


def _count_class_of_sum(c, args, kwargs, result):
    total = 0
    for term in args[0]:
        total += 1 if not isinstance(term, tuple) else abs(int(term[1]))
    c["cobord.class_of_sum.mult_total"] += total


# (span name, module that defines it, attribute, class or None, counter)
# Functions listed here are wrapped wherever torushms binds them.
TRACED = (
    ("novikov.mul", "torushms.novikov", "__mul__", "NovikovSeries", _count_mul),
    ("novikov.mul", "torushms.novikov", "__rmul__", "NovikovSeries", _count_mul),
    ("novikov.add", "torushms.novikov", "__add__", "NovikovSeries", _count_add),
    ("novikov.add", "torushms.novikov", "__radd__", "NovikovSeries", _count_add),
    ("novikov.invert", "torushms.novikov", "invert", None, None),
    ("novikov.fractional_power", "torushms.novikov", "fractional_power", None, None),
    ("torus.intersections", "torushms.torus", "intersections", None, _count_intersections),
    ("torus.transport", "torushms.torus", "transport", "LocalSystem", None),
    ("torus.mat_mul", "torushms.torus", "mat_mul", None, None),
    ("floer.cf", "torushms.floer", "cf", None, None),
    ("floer.mu2", "torushms.floer", "mu2", None, None),
    ("floer.assoc_defect", "torushms.floer", "assoc_defect", None, None),
    ("floer.mu2_bruteforce", "torushms.floer", "mu2_bruteforce", None, None),
    ("tate.theta_eval", "torushms.tate", "theta_eval", None, _count_theta),
    ("tate.eval_section", "torushms.tate", "eval_section", None, None),
    ("tate.conjugate_zero", "torushms.tate", "conjugate_zero", None, None),
    ("tate.point_mul", "torushms.tate", "point_mul", None, None),
    ("tate.point_pow", "torushms.tate", "point_pow", None, _count_point_pow),
    ("sheafk.relation_suite", "torushms.sheafk", "relation_suite", None, _count_suite),
    ("sheafk.holds", "torushms.sheafk", "holds", "RelationTriple", None),
    ("sheafk.k0_class", "torushms.sheafk", "k0_class", None, _count_k0),
    ("cobord.class_of_sum", "torushms.cobord", "class_of_sum", None, _count_class_of_sum),
    ("cobord.rho_values_by_recursion", "torushms.cobord", "rho_values_by_recursion", None, None),
    ("cobord.pl_surgery_flux", "torushms.cobord", "pl_surgery_flux", None, None),
    ("mirror.theta_floer_equiv", "torushms.mirror", "theta_floer_equiv", None, None),
    ("mirror.theta_sharp", "torushms.mirror", "theta_sharp", None, None),
    ("cli.parse_expr", "torushms.cli", "parse_expr", None, None),
    ("cli.main", "torushms.cli", "main", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))


class Tracer:
    """In-memory span recorder.  Off (`active` False) the wrappers call
    straight through."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.names: List[str] = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []  # [span index, name id, child time]
        self._saved: List[Tuple[object, str, object]] = []
        self.reset_totals()
        self.on_mu2: Optional[Callable] = None

    def reset_totals(self):
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: Dict[str, float] = {
            "novikov.mul.term_pairs": 0,
            "novikov.mul.terms_kept": 0,
            "novikov.add.terms_in": 0,
            "torus.intersections.points": 0,
            "tate.theta_eval.terms": 0,
            "tate.point_pow.n_total": 0,
            "sheafk.relation_suite.relations": 0,
            "sheafk.k0_class.mult_total": 0,
            "cobord.class_of_sum.mult_total": 0,
        }
        self.top_level_s = 0.0

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        tracer = self
        nid = self._ids[name]
        mu2_id = self._ids["floer.mu2"]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            parent = stack[-1] if stack else None
            frame = [idx, nid, 0.0]
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_task.append(tracer.task)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                dur = end - start
                tracer.total_s[nid] += dur
                tracer.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                else:
                    tracer.top_level_s += dur
            if parent is None or parent[1] != nid:
                tracer.calls[nid] += 1
                if count is not None:
                    count(tracer.counters, args, kwargs, result)
                if nid == mu2_id and tracer.on_mu2 is not None:
                    tracer.on_mu2(args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED name in every loaded torushms module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "torushms" or n.startswith("torushms."))]
        for name, modname, attr, clsname, count in TRACED:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        return {
            n: (self.calls[i], self.total_s[i], self.self_s[i])
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path, header: dict):
        """Save every span: one JSON header line, then the five columns
        (name id, parent span, task id as int32; start, end as float64
        perf_counter seconds), each written whole in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.span_name, self.span_parent, self.span_task,
                   self.span_start, self.span_end)
        head = dict(header, names=self.names, spans=self.span_count(),
                    columns=["name:i", "parent:i", "task:i", "start:d", "end:d"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for column in columns:
                column.tofile(fh)
