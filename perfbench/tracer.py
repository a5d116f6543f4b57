"""Layer timing for braidcalc, installed from outside the package.

The tracer replaces public functions and methods of the braidcalc modules
with thin wrappers.  A function imported by name into another braidcalc
module is replaced there too, so every call site goes through the wrapper.

Every wrapped call keeps a frame on one stack, which gives exact self times
(a call's duration minus the time covered by its wrapped children).  Calls
of functions marked hot (scalar arithmetic and the inner kernels called
hundreds of thousands of times per round) are aggregated into a count, a
total and a self time per function.  Every other call records one span:
id, parent span id, name, start, end and self time.  Spans stay in memory
until `write_jsonl` puts them in a file at the end of the run.

`layer_metrics` turns the aggregates, spans and counters into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path, hot).  Hot functions are aggregated, the others
# record one span per call.  Missing targets are skipped and reported.
TARGETS = [
    # scalars: every arithmetic method is hot
    ("scalars", "CycloScalar.__add__", True),
    ("scalars", "CycloScalar.__sub__", True),
    ("scalars", "CycloScalar.__rsub__", True),
    ("scalars", "CycloScalar.__neg__", True),
    ("scalars", "CycloScalar.__mul__", True),
    ("scalars", "CycloScalar.__truediv__", True),
    ("scalars", "CycloScalar.__rtruediv__", True),
    ("scalars", "CycloScalar.__pow__", True),
    ("scalars", "CycloScalar.inv", True),
    ("scalars", "CycloScalar.is_zero", True),
    ("scalars", "CycloField.__init__", False),
    ("scalars", "field_make", False),
    ("scalars", "root_order", False),
    ("scalars", "is_regular_exact", False),
    # linalg
    ("linalg", "Echelon.add", True),
    ("linalg", "Echelon.reduce", True),
    ("linalg", "Subspace.reduce", True),
    ("linalg", "Subspace.contains", True),
    ("linalg", "Echelon.add_rows", False),
    ("linalg", "Echelon.back_substitute", False),
    ("linalg", "Subspace.from_echelon", False),
    ("linalg", "Subspace.sum", False),
    ("linalg", "Subspace.intersection", False),
    ("linalg", "Subspace.contains_subspace", False),
    ("linalg", "kernel_basis", False),
    ("linalg", "kernel_from_echelon", False),
    ("linalg", "left_kernel", False),
    ("linalg", "rank_of_rows", False),
    # spaces
    ("spaces", "BraidedSpace.apply_generator", True),
    ("spaces", "BraidedSpace.apply_word", True),
    ("spaces", "BraidedSpace.braiding_block_apply", True),
    ("spaces", "BraidedSpace.apply_braid", True),
    ("spaces", "BraidedSpace.braiding_block_matrix", False),
    ("spaces", "braid_apply", False),
    ("spaces", "BraidedSpace.__init__", False),
    ("spaces", "BraidedSpace._compute_min_poly", False),
    ("spaces", "BraidedSpace._compute_hecke", False),
    ("spaces", "make_braiding", False),
    ("spaces", "make_preset", False),
    # tensorbialg
    ("tensorbialg", "matvec", True),
    ("tensorbialg", "delta_columns", False),
    ("tensorbialg", "transpose_columns", False),
    ("tensorbialg", "symmetrizer", False),
    ("tensorbialg", "Symmetrizer.rank", False),
    ("tensorbialg", "symmetrizer_direct", False),
    ("tensorbialg", "primitive_space", False),
    ("tensorbialg", "nichols_dims", False),
    # tower
    ("tower", "reduce_bidegree", True),
    ("tower", "_close_components", False),
    ("tower", "_verify_coideal", False),
    ("tower", "_verify_braiding_stability", False),
    ("tower", "ideal_closure", False),
    ("tower", "quotient_primitives", False),
    ("tower", "symmetric_step", False),
    ("tower", "tower_iterates", False),
    ("tower", "sdeg", False),
    ("tower", "nichols_via_tower", False),
    ("tower", "is_quadratic", False),
    # enveloping
    ("enveloping", "BracketTable.value", True),
    ("enveloping", "_coords_in_primitives", True),
    ("enveloping", "validate_bracket", False),
    ("enveloping", "BracketTable.zero", False),
    ("enveloping", "FilteredQuotient.__init__", False),
    ("enveloping", "enveloping_filtration", False),
    ("enveloping", "symmetric_algebra_dims", False),
    ("enveloping", "pbw_check", False),
    ("enveloping", "lie_check", False),
    ("enveloping", "primitive_check", False),
    ("enveloping", "hecke_presentation", False),
    # pareigis
    ("pareigis", "pi_zeta", True),
    ("pareigis", "perm_act", True),
    ("pareigis", "induced_bracket", True),
    ("pareigis", "_pair_bracket", True),
    ("pareigis", "_apply_first_slice", True),
    ("pareigis", "zeta_space", False),
    ("pareigis", "_eigen_fixpoint", False),
    ("pareigis", "mixed_zeta_space", False),
    ("pareigis", "pi_image", False),
    ("pareigis", "check_pi_in_E", False),
    ("pareigis", "check_pi_su", False),
    ("pareigis", "verify_PL", False),
    # cli
    ("cli", "parse_scalar", True),
    ("cli", "parse_spec", False),
    ("cli", "_JobContext.__init__", False),
    ("cli", "run_task", False),
    ("cli", "_task_cache_key", False),
    ("cli", "run", False),
    ("cli", "Report.emit", False),
    ("cli", "main", False),
]

# Groups whose busy time (time with at least one member on the stack) is a
# metric.  Members are "module.attribute path" names from TARGETS.
GROUPS = {
    "scalars.busy_s": [
        "scalars.CycloScalar." + m for m in (
            "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__truediv__", "__rtruediv__", "__pow__", "inv", "is_zero")],
    "spaces.build_s": ["spaces.make_braiding", "spaces.make_preset",
                       "spaces.BraidedSpace.__init__"],
    "tensorbialg.delta_s": ["tensorbialg.delta_columns"],
    "tensorbialg.symmetrizer_s": ["tensorbialg.symmetrizer",
                                  "tensorbialg.Symmetrizer.rank",
                                  "tensorbialg.symmetrizer_direct"],
    "tensorbialg.primitive_space_s": ["tensorbialg.primitive_space"],
    "tower.quotient_primitives_s": ["tower.quotient_primitives"],
    "tower.closure_s": ["tower._close_components"],
    "tower.verify_s": ["tower._verify_coideal",
                       "tower._verify_braiding_stability"],
    "enveloping.validate_bracket_s": ["enveloping.validate_bracket"],
    "enveloping.filtration_s": ["enveloping.FilteredQuotient.__init__"],
    "enveloping.symmetric_dims_s": ["enveloping.symmetric_algebra_dims"],
    "enveloping.verdicts_s": ["enveloping.pbw_check", "enveloping.lie_check",
                              "enveloping.primitive_check",
                              "enveloping.hecke_presentation"],
    "pareigis.zeta_space_s": ["pareigis.zeta_space",
                              "pareigis.mixed_zeta_space"],
    "pareigis.pi_checks_s": ["pareigis.check_pi_in_E", "pareigis.check_pi_su"],
    "pareigis.verify_PL_s": ["pareigis.verify_PL"],
    "cli.parse_s": ["cli.parse_spec"],
    "cli.context_s": ["cli._JobContext.__init__"],
    "cli.task_s": ["cli.run_task"],
    "cli.run_s": ["cli.run"],
    "cli.emit_s": ["cli.Report.emit"],
}

# Functions whose self times make up spaces.braid_self_s.
BRAID_FUNCTIONS = [
    "spaces.BraidedSpace.apply_generator", "spaces.BraidedSpace.apply_word",
    "spaces.BraidedSpace.braiding_block_apply",
    "spaces.BraidedSpace.apply_braid",
    "spaces.BraidedSpace.braiding_block_matrix", "spaces.braid_apply",
]


class _Group:
    __slots__ = ("depth", "busy")

    def __init__(self):
        self.depth = 0
        self.busy = 0.0


class Tracer:
    """Wraps the braidcalc layers; `install` once, read results at the end."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []        # (id, parent, name, start, end, self)
        self.groups = {g: _Group() for g in GROUPS}
        self.counters = {
            "linalg.pivots": 0, "linalg.rref_nnz": 0,
            "tensorbialg.delta_memo_hits": 0,
            "tensorbialg.delta_memo_misses": 0,
            "tower.ideal_dim_total": 0, "enveloping.filtration_rank": 0,
            "cli.cache_hits": 0, "cli.cache_misses": 0,
        }
        self.missing: list[str] = []
        self.origin = time.perf_counter()
        self._stack: list[list] = []      # frames: [child time]
        self._span_stack: list[int] = []
        self._next_id = 0
        self._seen_delta: dict[int, object] = {}

    # -- installation ----------------------------------------------------------

    def install(self, package: str = "braidcalc") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        after = self._result_hooks()
        for modname, path, hot in TARGETS:
            module = sys.modules.get(package + "." + modname)
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(modname + "." + path)
                continue
            name = modname + "." + path
            if isinstance(raw, property):
                wrapped = property(self._wrap(raw.fget, name, hot, after.get(name)))
                setattr(owner, attr, wrapped)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self._wrap(raw.__func__, name, hot, after.get(name))))
                continue
            wrapper = self._wrap(raw, name, hot, after.get(name))
            if owner is module:
                # every braidcalc module holding the same function object
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapper)
            else:
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        setattr(owner, key, wrapper)

    def _result_hooks(self):
        counters = self.counters
        seen = self._seen_delta

        def echelon_add(args, result):
            if result:
                counters["linalg.pivots"] += 1

        def from_echelon(args, result):
            counters["linalg.rref_nnz"] += sum(len(r) for r in result.rows)

        def delta_columns(args, result):
            # a memo hit hands back a column list returned before
            if id(result) in seen:
                counters["tensorbialg.delta_memo_hits"] += 1
            else:
                seen[id(result)] = result
                counters["tensorbialg.delta_memo_misses"] += 1

        def ideal_closure(args, result):
            counters["tower.ideal_dim_total"] += sum(
                c.dim for c in result.components)

        def filtration(args, result):
            counters["enveloping.filtration_rank"] += args[0].echelon.rank

        def cli_run(args, result):
            for entry in result.tasks:
                if entry.get("cached"):
                    counters["cli.cache_hits"] += 1
                elif entry.get("status") == "ok":
                    counters["cli.cache_misses"] += 1

        return {
            "linalg.Echelon.add": echelon_add,
            "linalg.Subspace.from_echelon": from_echelon,
            "tensorbialg.delta_columns": delta_columns,
            "tower.ideal_closure": ideal_closure,
            "enveloping.FilteredQuotient.__init__": filtration,
            "cli.run": cli_run,
        }

    def _wrap(self, fn, name, hot, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        groups = tuple(self.groups[g] for g, members in GROUPS.items()
                       if name in members)
        stack = self._stack
        perf = time.perf_counter

        if hot:
            def wrapper(*args, **kwargs):
                for g in groups:
                    g.depth += 1
                frame = [0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - frame[0]
                    for g in groups:
                        g.depth -= 1
                        if not g.depth:
                            g.busy += dur
                if after is not None:
                    after(args, result)
                return result
        else:
            spans = self.spans
            span_stack = self._span_stack

            def wrapper(*args, **kwargs):
                for g in groups:
                    g.depth += 1
                self._next_id += 1
                sid = self._next_id
                parent = span_stack[-1] if span_stack else 0
                span_stack.append(sid)
                frame = [0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    dur = end - start
                    stack.pop()
                    span_stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - frame[0]
                    for g in groups:
                        g.depth -= 1
                        if not g.depth:
                            g.busy += dur
                    spans.append((sid, parent, name, start, end, dur - frame[0]))
                if after is not None:
                    after(args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- results ------------------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def self_time(self, prefix_or_names) -> float:
        if isinstance(prefix_or_names, str):
            return sum(s[2] for n, s in self.stats.items()
                       if n.startswith(prefix_or_names))
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in prefix_or_names)

    def layer_metrics(self) -> dict:
        """The per-layer metrics, as name -> (value, unit)."""
        busy = {g: grp.busy for g, grp in self.groups.items()}
        c = self.counters
        rows = self.calls("linalg.Echelon.add")
        out = {
            "scalars.mul_calls": (self.calls("scalars.CycloScalar.__mul__"), "count"),
            "scalars.add_calls": (self.calls(
                "scalars.CycloScalar.__add__", "scalars.CycloScalar.__sub__",
                "scalars.CycloScalar.__rsub__"), "count"),
            "scalars.inv_calls": (self.calls("scalars.CycloScalar.inv"), "count"),
            "scalars.busy_s": (busy["scalars.busy_s"], "s"),
            "linalg.rows_offered": (rows, "count"),
            "linalg.pivots": (c["linalg.pivots"], "count"),
            "linalg.useful_row_ratio": (
                c["linalg.pivots"] / rows if rows else 0.0, "ratio"),
            "linalg.reduce_calls": (self.calls(
                "linalg.Echelon.reduce", "linalg.Subspace.reduce"), "count"),
            "linalg.kernel_calls": (self.calls(
                "linalg.kernel_from_echelon", "linalg.left_kernel"), "count"),
            "linalg.rref_nnz": (c["linalg.rref_nnz"], "count"),
            "linalg.self_s": (self.self_time("linalg."), "s"),
            "spaces.generator_applications": (
                self.calls("spaces.BraidedSpace.apply_generator"), "count"),
            "spaces.braid_self_s": (self.self_time(BRAID_FUNCTIONS), "s"),
            "spaces.build_s": (busy["spaces.build_s"], "s"),
            "tensorbialg.delta_s": (busy["tensorbialg.delta_s"], "s"),
            "tensorbialg.delta_memo_hits": (c["tensorbialg.delta_memo_hits"], "count"),
            "tensorbialg.delta_memo_misses": (c["tensorbialg.delta_memo_misses"], "count"),
            "tensorbialg.symmetrizer_s": (busy["tensorbialg.symmetrizer_s"], "s"),
            "tensorbialg.primitive_space_s": (busy["tensorbialg.primitive_space_s"], "s"),
            "tower.quotient_primitives_s": (busy["tower.quotient_primitives_s"], "s"),
            "tower.quotient_primitives_calls": (
                self.calls("tower.quotient_primitives"), "count"),
            "tower.closure_s": (busy["tower.closure_s"], "s"),
            "tower.verify_s": (busy["tower.verify_s"], "s"),
            "tower.symmetric_steps": (self.calls("tower.symmetric_step"), "count"),
            "tower.ideal_dim_total": (c["tower.ideal_dim_total"], "count"),
            "enveloping.validate_bracket_s": (busy["enveloping.validate_bracket_s"], "s"),
            "enveloping.filtration_s": (busy["enveloping.filtration_s"], "s"),
            "enveloping.filtration_rank": (c["enveloping.filtration_rank"], "count"),
            "enveloping.symmetric_dims_s": (busy["enveloping.symmetric_dims_s"], "s"),
            "enveloping.verdicts_s": (busy["enveloping.verdicts_s"], "s"),
            "pareigis.zeta_space_s": (busy["pareigis.zeta_space_s"], "s"),
            "pareigis.pi_checks_s": (busy["pareigis.pi_checks_s"], "s"),
            "pareigis.verify_PL_s": (busy["pareigis.verify_PL_s"], "s"),
            "cli.parse_s": (busy["cli.parse_s"], "s"),
            "cli.context_s": (busy["cli.context_s"], "s"),
            "cli.task_s": (busy["cli.task_s"], "s"),
            # run() time spent outside task execution and context building:
            # cache keys, cache reads and writes, ordering the entries
            "cli.cache_s": (max(0.0, busy["cli.run_s"] - busy["cli.context_s"]
                                - busy["cli.task_s"]), "s"),
            "cli.emit_s": (busy["cli.emit_s"], "s"),
            "cli.cache_hits": (c["cli.cache_hits"], "count"),
            "cli.cache_misses": (c["cli.cache_misses"], "count"),
        }
        return out

    def write_jsonl(self, path: str) -> None:
        """Spans, then one aggregate line per wrapped function."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "self": round(self_s, 9)}) + "\n")
            for name, (calls, total, self_s) in sorted(self.stats.items()):
                if calls:
                    fh.write(json.dumps({
                        "aggregate": name, "calls": calls,
                        "total": round(total, 9), "self": round(self_s, 9)}) + "\n")
