"""Spans around the program's public functions, for the traced run.

:class:`Tracer` replaces module attributes with wrappers that record a span
(name, operation, start, end, parent span) per call, and puts the original
functions back on :meth:`Tracer.uninstall`.  The program looks these names
up in its own modules at call time (``solve_cone`` calls
``robustcounter.solver.solve_milp``, ``solve_milp`` calls
``robustcounter.solver.to_standard_form``), so inner calls are traced too.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time

# (module, attribute) pairs the traced run wraps
WRAPPED = (
    ("robustcounter.sitesel", "load_instance"),
    ("robustcounter.sitesel", "build_nominal"),
    ("robustcounter.sitesel", "build_irc"),
    ("robustcounter.sitesel", "build_rc"),
    ("robustcounter.model", "import_text"),
    ("robustcounter.model", "export_text"),
    ("robustcounter.uncertainty", "parse_annotations"),
    ("robustcounter.robustify", "interval_robust_counterpart"),
    ("robustcounter.robustify", "symmetric_robust_counterpart"),
    ("robustcounter.solver", "solve"),
    ("robustcounter.solver", "solve_cone"),
    ("robustcounter.solver", "solve_milp"),
    ("robustcounter.solver", "to_standard_form"),
    ("robustcounter.validate", "corner_check"),
    ("robustcounter.validate", "monte_carlo_check"),
)

NAME, OP, START, END, PARENT, INFO = range(6)


def _corner_points(args) -> int:
    """Row corners ``corner_check`` evaluates: per row with uncertain
    entries, 2^(coefficient entries) times 2 when the right-hand side is
    uncertain as well."""
    uset = args[1]
    total = 0
    for entries in uset.by_constraint().values():
        coefs = sum(1 for e in entries if not e.is_rhs)
        total += 2 ** coefs * (2 if len(entries) > coefs else 1)
    return total


def _info(name, args, result):
    if name == "solve":
        model = args[0]
        return {"vars": len(model.variables), "rows": len(model.constraints)}
    if name.endswith("robust_counterpart"):
        return {"aux_vars": len(result.model.variables) - len(args[0].variables)}
    if name == "corner_check":
        return {"points": _corner_points(args)}
    if name == "monte_carlo_check":
        return {"samples": result.samples}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: dict[tuple[str, str], object] = {}

    def install(self):
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved[(module_name, attr)] = original
            setattr(module, attr, self._wrap(attr, original))

    def uninstall(self):
        for (module_name, attr), original in self._saved.items():
            setattr(importlib.import_module(module_name), attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.op, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            spans[idx][INFO] = _info(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "op": s[OP],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "info": s[INFO]}))
                fh.write("\n")


def _dur(s) -> float:
    return s[END] - s[START]


def layer_metrics(spans, pass_of) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``spans`` is every span of the run, ``pass_of`` the set of span indices
    recorded during that pass.  Self times subtract the spans of the named
    inner layer only: ``solve_cone`` minus its ``solve_milp`` calls, and
    ``solve_milp`` minus its ``to_standard_form`` calls.
    """
    mine = [(i, spans[i]) for i in sorted(pass_of)]

    def total(name):
        return math.fsum(_dur(s) for _, s in mine if s[NAME] == name)

    def child_total(name, parent_name):
        return math.fsum(_dur(s) for _, s in mine if s[NAME] == name
                         and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name)

    def info_sum(name, key):
        return sum(s[INFO][key] for _, s in mine if s[NAME] == name)

    cone_rounds = sum(1 for _, s in mine if s[NAME] == "solve_milp"
                      and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solve_cone")
    mc_s = total("monte_carlo_check")
    return {
        "solver.cone_rounds": cone_rounds,
        "solver.cone_self_s": total("solve_cone") - child_total("solve_milp", "solve_cone"),
        "solver.milp_s": total("solve_milp"),
        "solver.bnb_self_s": total("solve_milp") - child_total("to_standard_form", "solve_milp"),
        "model.to_standard_form_calls": sum(1 for _, s in mine if s[NAME] == "to_standard_form"),
        "model.to_standard_form_s": total("to_standard_form"),
        "model.solved_vars": info_sum("solve", "vars"),
        "model.solved_rows": info_sum("solve", "rows"),
        "model.import_text_s": total("import_text"),
        "model.export_text_s": total("export_text"),
        "uncertainty.parse_annotations_s": total("parse_annotations"),
        "robustify.irc_s": total("interval_robust_counterpart"),
        "robustify.rc_s": total("symmetric_robust_counterpart"),
        "robustify.aux_vars": (info_sum("interval_robust_counterpart", "aux_vars")
                               + info_sum("symmetric_robust_counterpart", "aux_vars")),
        "validate.corner_s": total("corner_check"),
        "validate.corner_points": info_sum("corner_check", "points"),
        "validate.mc_s": mc_s,
        "validate.mc_samples_per_s": (info_sum("monte_carlo_check", "samples") / mc_s
                                      if mc_s > 0 else 0.0),
        "sitesel.build_s": total("build_nominal") + total("build_irc") + total("build_rc"),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
