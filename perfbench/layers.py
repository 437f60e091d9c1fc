"""Outside-in per-layer tracing: wrappers installed from the benchmark's
own files around the public functions of each ``repro`` layer.

Each wrapped call records one span — function, start, end, parent span,
job — in flat arrays that stay in memory until the run ends.  A span's
self time is its duration minus its child spans' durations, so the self
times of a run sum to the wall time its top-level spans cover.
Generator functions get one span per resume.  Several functions are
bound by name in their callers' modules, so each wrapper is installed
at every module that looks the name up on a measured path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from array import array

#: (metric prefix, owner, attribute, modules that bound the name).  An
#: owner is a module, or ``module:Class`` for methods.
WRAPPED = (
    ("dsl.load_document", "repro.dsl.loader", "load_document", ()),
    ("service.run_batch", "repro.service.runner", "run_batch", ()),
    ("service.execute_payload", "repro.service.pool", "execute_payload", ()),
    ("service.job_key", "repro.service.jobs:VerificationJob", "key", ()),
    ("service.from_payload", "repro.service.jobs:VerificationJob", "from_payload", ()),
    ("service.result_cache.get", "repro.service.cache:ResultCache", "get", ()),
    ("service.result_cache.put", "repro.service.cache:ResultCache", "put", ()),
    ("service.summary_store.get", "repro.service.cache:SummaryStore", "get", ()),
    ("service.summary_store.put", "repro.service.cache:SummaryStore", "put", ()),
    ("service.persistent_summary_key", "repro.service.summaries", "persistent_summary_key", ()),
    ("service.encode_record", "repro.service.summaries", "encode_record", ()),
    ("service.decode_record", "repro.service.summaries", "decode_record", ()),
    ("verifier.verify", "repro.verifier.engine:Verifier", "verify", ()),
    ("verifier.summary", "repro.verifier.engine:Verifier", "summary", ()),
    ("verifier.successors", "repro.verifier.task_vass:TaskVASS", "successors", ()),
    ("ltl.build_automaton", "repro.verifier.spec", "build_automaton", ()),
    ("vass.build_km_graph", "repro.verifier.engine", "build_km_graph", ()),
    ("vass.accepting_cycle", "repro.verifier.engine", "accepting_cycle", ()),
    (
        "symbolic.apply_condition",
        "repro.verifier.task_vass",
        "apply_condition",
        ("repro.verifier.engine", "repro.witness.materialize"),
    ),
    ("symbolic.canonical_key", "repro.symbolic.store:ConstraintStore", "canonical_key", ()),
    ("symbolic.absorb", "repro.symbolic.store:ConstraintStore", "absorb", ()),
    ("symbolic.restrict", "repro.symbolic.store:ConstraintStore", "restrict", ()),
    ("symbolic.copy", "repro.symbolic.store:ConstraintStore", "copy", ()),
    ("arith.is_satisfiable", "repro.symbolic.store", "is_satisfiable", ("repro.arith.cells",)),
    ("arith.project_components", "repro.symbolic.store", "project_components", ()),
    ("witness.concretize", "repro.witness", "concretize", ()),
    ("witness.materialize", "repro.witness", "materialize", ()),
    ("witness.validate", "repro.witness", "validate", ()),
    ("witness.minimize", "repro.witness", "minimize", ()),
)

#: Modules the wrappers need beyond ``repro.service.cli``'s own import
#: closure; their import time joins the ``import`` layer.
EXTRA_IMPORTS = ("repro.dsl.loader", "repro.service.summaries")

IMPORT = "import"
#: Benchmark bookkeeping inside the run (dominance counting): excluded
#: from every self time and from the traced wall.
EXCLUDED = "bench.excluded"

_ROOT_SEARCH = "root search"


def dominated_nodes(nodes) -> int:
    """Nodes strictly dominated by another node of the same control
    state in the same graph (ω compares above every number)."""
    by_state: dict = {}
    for node in nodes:
        by_state.setdefault(node.state, set()).add(node.vector)
    beaten: set = set()
    for state, vectors in by_state.items():
        if len(vectors) < 2:
            continue
        thawed = [(vector, dict(vector)) for vector in vectors]
        for vector, small in thawed:
            for other, big in thawed:
                if other != vector and all(
                    big.get(dim, 0) >= value for dim, value in small.items()
                ):
                    beaten.add((state, vector))
                    break
    return sum(1 for node in nodes if (node.state, node.vector) in beaten)


class Tracer:
    """Span recorder plus the per-layer counts the wrappers take."""

    def __init__(self) -> None:
        self.names: list[str] = [IMPORT, EXCLUDED]
        self.calls: list[int] = [0, 0]
        #: Values yielded, per generator function.
        self.yields: list[int] = [0, 0]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open spans, innermost last, over a -1 sentinel (no parent).
        self.stack: list[int] = [-1]
        #: Index of the job being executed; -1 outside jobs.
        self.job = [-1]
        self.result_cache_hits = 0
        self.sat_true = 0
        self.witness_confirmed = 0
        #: [nodes, strictly dominated nodes, graphs] per exploration kind.
        self.km = {"root": [0, 0, 0], "summary": [0, 0, 0]}

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _spanned(self, index: int, fn):
        """``fn`` timed as one span per call (per resume for generators)."""
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        stack, job, calls, yields = self.stack, self.job, self.calls, self.yields
        clock = time.perf_counter

        def open_span() -> int:
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            jobs.append(job[0])
            stack.append(span)
            starts.append(clock())
            ends.append(0.0)
            return span

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                calls[index] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        span = open_span()
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            ends[span] = clock()
                            stack.pop()
                        yields[index] += 1
                        yield value
                finally:
                    inner.close()

            return resumed

        @functools.wraps(fn)
        def called(*args, **kwargs):
            calls[index] += 1
            span = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return called

    def record(self, name: str, start: float, end: float) -> None:
        """A span the caller timed, under the innermost open span."""
        index = self.names.index(name)
        self.calls[index] += 1
        self.span_name.append(index)
        self.span_parent.append(self.stack[-1])
        self.span_job.append(self.job[0])
        self.span_start.append(start)
        self.span_end.append(end)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every function of :data:`WRAPPED` at its owner and at
        each module that bound it by name."""
        for name, owner, attribute, importers in WRAPPED:
            module_name, _, class_name = owner.partition(":")
            target = importlib.import_module(module_name)
            static = False
            if class_name:
                target = getattr(target, class_name)
                fn = target.__dict__[attribute]
                static = isinstance(fn, staticmethod)
                if static:
                    fn = fn.__func__
            else:
                fn = getattr(target, attribute)
            self.names.append(name)
            self.calls.append(0)
            self.yields.append(0)
            wrapper = self._spanned(len(self.names) - 1, self._counted(name, fn))
            if name == "service.execute_payload":
                wrapper = self._job_scoped(wrapper)
            setattr(target, attribute, staticmethod(wrapper) if static else wrapper)
            for importer in importers:
                module = importlib.import_module(importer)
                if getattr(module, attribute) is not fn:
                    raise RuntimeError(f"{importer}.{attribute} is not {owner}.{attribute}")
                setattr(module, attribute, wrapper)

    def _job_scoped(self, fn):
        """Tag every span inside one executed job with that job's index."""
        job = self.job
        counter = itertools.count()

        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            job[0] = next(counter)
            try:
                return fn(*args, **kwargs)
            finally:
                job[0] = -1

        return scoped

    def _counted(self, name: str, fn):
        """``fn`` plus the outcome counts its layer reports (cheap checks
        inside the span; the dominance count in an excluded span)."""
        tracer = self
        if name == "service.result_cache.get":

            def counted(*args, **kwargs):
                outcome = fn(*args, **kwargs)
                tracer.result_cache_hits += outcome is not None
                return outcome

        elif name == "arith.is_satisfiable":

            def counted(*args, **kwargs):
                verdict = fn(*args, **kwargs)
                tracer.sat_true += bool(verdict)
                return verdict

        elif name == "witness.concretize":

            def counted(*args, **kwargs):
                witness = fn(*args, **kwargs)
                tracer.witness_confirmed += bool(getattr(witness, "confirmed", False))
                return witness

        elif name == "vass.build_km_graph":

            def counted(*args, **kwargs):
                graph = fn(*args, **kwargs)
                tracer.count_graph(graph, kwargs.get("progress_label", ""))
                return graph

        else:
            return fn
        return functools.wraps(fn)(counted)

    def count_graph(self, graph, label: str) -> None:
        """Tally a returned KM graph's nodes and strictly dominated nodes
        in a span excluded from self times and from the traced wall."""
        start = time.perf_counter()
        kind = self.km["root" if label == _ROOT_SEARCH else "summary"]
        kind[0] += len(graph.nodes)
        kind[1] += dominated_nodes(graph.nodes)
        kind[2] += 1
        self.record(EXCLUDED, start, time.perf_counter())

    # ------------------------------------------------------------------
    # aggregation and output
    # ------------------------------------------------------------------
    def layer_times(self) -> dict:
        """Self seconds per function, the summary layer's inclusive
        seconds (outermost summary spans only: summaries nest), and the
        number of spans."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        count = len(starts)
        summary = self.names.index("verifier.summary")
        child = [0.0] * count
        in_summary = bytearray(count)
        summary_incl = 0.0
        for span in range(count):
            parent = parents[span]
            duration = ends[span] - starts[span]
            if parent >= 0:
                child[parent] += duration
                if in_summary[parent] or names[parent] == summary:
                    in_summary[span] = 1
            if names[span] == summary and not in_summary[span]:
                summary_incl += duration
        self_s = [0.0] * len(self.names)
        for span in range(count):
            self_s[names[span]] += ends[span] - starts[span] - child[span]
        return {
            "self_s": dict(zip(self.names, self_s)),
            "calls": dict(zip(self.names, self.calls)),
            "yields": dict(zip(self.names, self.yields)),
            "summary_incl_s": summary_incl,
            "spans": count,
        }

    def write(self, path: str) -> None:
        """The spans as a JSON header line (function names, span count)
        followed by five raw arrays in native byte order: name index
        (uint16), parent span (int32, -1 = none), job (int32, -1 =
        outside jobs), start and end (float64, ``time.perf_counter``)."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.span_start)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_name,
                self.span_parent,
                self.span_job,
                self.span_start,
                self.span_end,
            ):
                column.tofile(handle)
