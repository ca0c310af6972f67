"""Per-layer timing from outside the program.

:class:`Tracer` wraps public functions and methods of the layer modules
with span recorders.  Nothing under ``src/`` is edited: a wrapped
function is replaced in its defining module *and* in every ``repro``
module that imported it by name (``ground_universe`` in
``solver/epr.py``, ``wp`` in ``core/induction.py``, ``find_minimal_cti``
in ``core/session.py``, ...), and a wrapped method is replaced on its
class.

Spans are kept in memory as ``[name, start, end, parent, nested]``
records.  A name's time is the sum of its outermost spans (a recursive
call is not counted twice); its self time is each span's duration minus
the time its direct child spans cover.

Work done inside pool workers is invisible to the wrappers (they are
inherited at fork, but their spans stay in the worker).  For those
queries the tracer reads the counters the program already returns in
``EprResult.statistics`` -- instance, conflict and congruence counts and
the ``phase_*_ms`` timings -- when ``solve_queries`` hands them back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

#: (module, attribute path, span name)
TARGETS = (
    ("repro.logic.parser", "parse_formula", "rml.parse"),
    ("repro.logic.parser", "parse_term", "rml.parse"),
    ("repro.rml.parser", "parse_program", "rml.parse"),
    ("repro.rml.typecheck", "check_program", "rml.parse"),
    ("repro.rml.wp", "wp", "rml.wp"),
    ("repro.rml.encode", "TransitionEncoder.encode_step", "rml.encode_step"),
    ("repro.analysis.preflight", "preflight_program", "analysis.preflight"),
    ("repro.core.induction", "obligations", "induction.obligations"),
    ("repro.core.induction", "check_inductive", "induction.check"),
    ("repro.core.induction", "check_initiation", "induction.check"),
    ("repro.core.minimize", "find_minimal_cti", "minimize"),
    ("repro.core.minimize", "minimize_obligation", "minimize"),
    ("repro.core.bounded", "check_k_invariance", "bounded"),
    ("repro.core.bounded", "find_error_trace", "bounded"),
    ("repro.solver.epr", "EprSolver.check", "epr.check"),
    ("repro.solver.epr", "EprSolver.prepare", "epr.prepare"),
    ("repro.solver.epr", "PreparedEpr.solve", "epr.solve"),
    ("repro.solver.epr", "PreparedEpr._fingerprint", "cache.key"),
    ("repro.solver.grounding", "ground_universe", "grounding.ground_universe"),
    ("repro.solver.cnf", "CnfBuilder.assert_formula", "cnf.assert"),
    ("repro.solver.sat", "Solver.solve", "sat.solve"),
    ("repro.solver.equality", "EqualityTheory.classes", "equality"),
    ("repro.solver.equality", "EqualityTheory.congruence_violations", "equality"),
    ("repro.solver.cache", "QueryCache.lookup", "cache.lookup"),
    ("repro.solver.cache", "QueryCache.store", "cache.store"),
    ("repro.solver.dispatch", "solve_queries", "dispatch.batch"),
    ("repro.proof.ledger", "Ledger.proven", "ledger.lookup"),
    ("repro.proof.ledger", "Ledger.record", "ledger.record"),
)

#: statistics keys of a solved (not cached) EprResult -> counter name
RESULT_COUNTERS = {
    "instances": "epr.instances",
    "cegar_rounds": "epr.cegar_rounds",
    "lazy_instances": "epr.lazy_instances",
    "sat_vars": "cnf.vars",
    "conflicts": "sat.conflicts",
    "decisions": "sat.decisions",
    "propagations": "sat.propagations",
    "congruence_clauses": "equality.congruence_clauses",
}

#: profiler phases a worker reports per query (``phase_<name>_ms``)
WORKER_PHASES = ("normalize", "ground", "cnf", "cache", "sat", "theory", "extract")

#: (metric, unit), in the order they are reported
LAYER_METRICS = (
    ("rml.parse_s", "s"),
    ("rml.wp_calls", "count"),
    ("rml.wp_s", "s"),
    ("rml.encode_step_calls", "count"),
    ("rml.encode_step_s", "s"),
    ("analysis.preflight_s", "s"),
    ("induction.obligations_s", "s"),
    ("induction.check_calls", "count"),
    ("induction.check_s", "s"),
    ("induction.check_self_s", "s"),
    ("minimize.calls", "count"),
    ("minimize.s", "s"),
    ("minimize.self_s", "s"),
    ("minimize.solves_per_call", "ratio"),
    ("bounded.s", "s"),
    ("bounded.self_s", "s"),
    ("epr.prepare_calls", "count"),
    ("epr.prepare_s", "s"),
    ("epr.prepare_self_s", "s"),
    ("epr.solve_calls", "count"),
    ("epr.solve_s", "s"),
    ("epr.solve_self_s", "s"),
    ("epr.instances", "count"),
    ("epr.sat_answers", "count"),
    ("epr.unsat_answers", "count"),
    ("epr.unknown_answers", "count"),
    ("epr.cegar_rounds", "count"),
    ("epr.lazy_instances", "count"),
    ("grounding.ground_universe_s", "s"),
    ("grounding.universe_terms", "count"),
    ("cnf.assert_calls", "count"),
    ("cnf.assert_s", "s"),
    ("cnf.vars", "count"),
    ("sat.solve_calls", "count"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("equality.s", "s"),
    ("equality.congruence_clauses", "count"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.key_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.store_s", "s"),
    ("dispatch.batches", "count"),
    ("dispatch.tasks", "count"),
    ("dispatch.batch_s", "s"),
    ("dispatch.worker_busy_s", "s"),
    ("dispatch.overhead_s", "s"),
    ("dispatch.retries", "count"),
    *((f"worker.{phase}_s", "s") for phase in WORKER_PHASES),
    ("ledger.lookups", "count"),
    ("ledger.hits", "count"),
    ("ledger.records", "count"),
    ("ledger.s", "s"),
)

#: metric -> (span name, "time" | "self" | "calls")
SPAN_METRICS = {
    "rml.parse_s": ("rml.parse", "time"),
    "rml.wp_calls": ("rml.wp", "calls"),
    "rml.wp_s": ("rml.wp", "time"),
    "rml.encode_step_calls": ("rml.encode_step", "calls"),
    "rml.encode_step_s": ("rml.encode_step", "time"),
    "analysis.preflight_s": ("analysis.preflight", "time"),
    "induction.obligations_s": ("induction.obligations", "time"),
    "induction.check_calls": ("induction.check", "calls"),
    "induction.check_s": ("induction.check", "time"),
    "induction.check_self_s": ("induction.check", "self"),
    "minimize.calls": ("minimize", "calls"),
    "minimize.s": ("minimize", "time"),
    "minimize.self_s": ("minimize", "self"),
    "bounded.s": ("bounded", "time"),
    "bounded.self_s": ("bounded", "self"),
    "epr.prepare_calls": ("epr.prepare", "calls"),
    "epr.prepare_s": ("epr.prepare", "time"),
    "epr.prepare_self_s": ("epr.prepare", "self"),
    "epr.solve_calls": ("epr.solve", "calls"),
    "epr.solve_s": ("epr.solve", "time"),
    "epr.solve_self_s": ("epr.solve", "self"),
    "grounding.ground_universe_s": ("grounding.ground_universe", "time"),
    "cnf.assert_calls": ("cnf.assert", "calls"),
    "cnf.assert_s": ("cnf.assert", "time"),
    "sat.solve_calls": ("sat.solve", "calls"),
    "sat.solve_s": ("sat.solve", "time"),
    "equality.s": ("equality", "time"),
    "cache.lookups": ("cache.lookup", "calls"),
    "cache.key_s": ("cache.key", "time"),
    "cache.lookup_s": ("cache.lookup", "time"),
    "cache.store_s": ("cache.store", "time"),
    "dispatch.batches": ("dispatch.batch", "calls"),
    "dispatch.batch_s": ("dispatch.batch", "time"),
    "ledger.lookups": ("ledger.lookup", "calls"),
    "ledger.records": ("ledger.record", "calls"),
}


class Tracer:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        # EprResults produced by in-process solves, kept alive so their
        # ids stay unique; any other result solve_queries returns was
        # solved in a worker.
        self._local_results: dict[int, object] = {}

    # ----------------------------------------------------------- install

    def install(self) -> None:
        before = {"dispatch.batch": self._before_batch}
        hooks = {
            "epr.solve": self._after_solve,
            "epr.check": self._after_check,
            "grounding.ground_universe": self._after_universe,
            "cache.lookup": self._after_lookup,
            "dispatch.batch": self._after_batch,
            "ledger.lookup": self._after_ledger_lookup,
        }
        modules = [
            module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for module_name, path, span in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{module_name}.{path} is not a plain function")
            wrapper = self._wrap(
                original, span, before.get(span), hooks.get(span)
            )
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, name: str, before, after):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                token = before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            nested = depth.get(name, 0)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, nested > 0]
            spans.append(record)
            stack.append(index)
            depth[name] = nested + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] = nested
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(result, record, token)
            return result

        return wrapper

    # ------------------------------------------------------------- hooks

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _note_result(self, result) -> None:
        self._count(f"epr.{result.verdict}_answers")
        if result.cached:
            return
        for key, counter in RESULT_COUNTERS.items():
            self._count(counter, result.statistics.get(key, 0))

    def _after_solve(self, result, record, token) -> None:
        self._local_results[id(result)] = result
        self._note_result(result)

    def _after_check(self, result, record, token) -> None:
        # UNKNOWN from a failed prepare never reaches PreparedEpr.solve.
        if id(result) not in self._local_results:
            self._local_results[id(result)] = result
            self._note_result(result)

    def _after_universe(self, universe, record, token) -> None:
        self._count("grounding.universe_terms", sum(map(len, universe.values())))

    def _after_lookup(self, hit, record, token) -> None:
        if hit is not None:
            self._count("cache.hits")

    def _after_ledger_lookup(self, entry, record, token) -> None:
        if entry is not None:
            self._count("ledger.hits")

    def _before_batch(self, arguments) -> tuple:
        # Retries are only reported through a SolverStats; lend the batch
        # one when its caller passed none.
        from repro.solver.stats import SolverStats

        if arguments.get("stats") is None:
            arguments["stats"] = SolverStats()
        stats = arguments["stats"]
        return stats, stats.retries

    def _after_batch(self, batches, record, token) -> None:
        self._count("dispatch.tasks", len(batches))
        longest = 0.0
        for batch in batches:
            busy = 0.0
            for result in batch:
                if id(result) in self._local_results:
                    continue  # solved in-process; its wrappers saw it
                self._note_result(result)
                for phase in WORKER_PHASES:
                    seconds = result.statistics.get(f"phase_{phase}_ms", 0) / 1000
                    self._count(f"worker.{phase}_s", seconds)
                    busy += seconds
            self._count("dispatch.worker_busy_s", busy)
            longest = max(longest, busy)
        if longest:
            self._count("dispatch.overhead_s", record[2] - record[1] - longest)
        stats, retries_before = token
        self._count("dispatch.retries", stats.retries - retries_before)

    # ----------------------------------------------------------- metrics

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, outermost ``time`` and ``self`` time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, nested) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
            entry["calls"] += 1
            if not nested:
                entry["time"] += end - start
            entry["self"] += end - start - child_time[index]
        return totals

    def _within(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> dict[str, float]:
        totals = self.span_totals()
        values: dict[str, float] = {}
        for metric, (span, field) in SPAN_METRICS.items():
            values[metric] = totals.get(span, {}).get(field, 0)
        ledger = totals.get("ledger.lookup", {}).get("time", 0.0)
        values["ledger.s"] = ledger + totals.get("ledger.record", {}).get("time", 0.0)
        solves = sum(
            1 for index, span in enumerate(self.spans)
            if span[0] == "epr.check" and self._within(index, "minimize")
        )
        values["minimize.solves_per_call"] = (
            solves / values["minimize.calls"] if values["minimize.calls"] else 0.0
        )
        for metric, _ in LAYER_METRICS:
            if metric not in values:
                values[metric] = self.counters.get(metric, 0)
        lookups = values["cache.lookups"]
        values["cache.hit_ratio"] = values["cache.hits"] / lookups if lookups else 0.0
        return values
