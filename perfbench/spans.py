"""In-memory span recorder for the traced benchmark pass.

Spans are recorded around calls into each ssate module's public
functions. The package itself is not edited: ``install`` rebinds, from
outside, the names that each calling module bound (for example
``ssate.estimators.fit_gmodel_mle`` or ``ssate.nuisance.minimize_gd``),
and ``Tracer.restore`` puts the originals back.

A span is ``[name, start, end, parent, op]``; its id is its index in
``Tracer.spans``. ``op`` names the benchmark operation the span belongs
to, so all spans of one operation share it. The layer of a span is the
part of its name before the first dot, which is the ssate module the
wrapped function lives in (``bench`` marks the benchmark's own spans).
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # op -> {counter name: int}
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, key, n=1):
        per_op = self.counts.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + n

    def wrap(self, fn, name, counter=None, after=None):
        """Span-recording stand-in for ``fn``.

        ``name`` may be a callable of ``(args, kwargs)`` when the span name
        depends on the arguments. ``counter`` is bumped once per call and
        ``after(result)`` sees each return value.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                tracer.count(counter)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- cross-process merge -----------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge(self, path):
        """Adopt the spans a child process dumped, under the open span.

        Child roots become children of the innermost open span; child
        counts are added to the current op. Both processes read the same
        system-wide monotonic clock, so start and end times stay
        comparable.
        """
        with open(path) as fh:
            child = json.load(fh)
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, cparent, _ in child["spans"]:
            self.spans.append([name, start, end, parent if cparent is None else cparent + base, self.op])
        for per_op in child["counts"].values():
            for key, n in per_op.items():
                self.count(key, n)


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Spans are recorded from single-threaded code, so siblings never
    overlap and the covered time is the sum of the child durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def install(tracer, ssate):
    """Wrap the names the ssate modules bound for their cross-module calls.

    ``ssate`` is the imported package. Every module that bound a function
    gets the same wrapper, so a call is recorded once whichever module
    made it.
    """
    datamodel, estimators, nuisance = ssate.datamodel, ssate.estimators, ssate.nuisance
    optimize, oracle, simharness, cli = ssate.optimize, ssate.oracle, ssate.simharness, ssate.cli

    def rebind(fn, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    tracer.patch(mod, attr, wrapper)

    everywhere = (datamodel, estimators, nuisance, optimize, oracle, simharness, cli)

    # datamodel
    for cls in (datamodel.OneSampleDataset, datamodel.TwoSampleDataset):
        tracer.patch(cls, "from_arrays", staticmethod(tracer.wrap(
            cls.from_arrays, "datamodel.from_arrays", counter="datamodel.from_arrays_calls")))
    for name in ("make_fold_plan", "read_one_sample_csv", "read_two_sample_csv",
                 "write_one_sample_csv"):
        fn = getattr(datamodel, name)
        rebind(fn, tracer.wrap(fn, f"datamodel.{name}"), everywhere)

    # estimators
    for name in ("estimate_os_eff", "estimate_ts_eff"):
        fn = getattr(estimators, name)
        rebind(fn, tracer.wrap(fn, f"estimators.{name}"), everywhere)

    # nuisance
    for name in ("fit_outcome_both", "fit_gmodel_mle", "fit_e_model", "fit_density_ratio",
                 "assemble_v_beta"):
        fn = getattr(nuisance, name)
        rebind(fn, tracer.wrap(fn, f"nuisance.{name}"), everywhere)

    def riesz_name(args, kwargs):
        gen = kwargs.get("gen", args[1] if len(args) > 1 else nuisance.LSIF)
        return f"nuisance.fit_riesz_{gen.tag.lower()}"

    rebind(nuisance.fit_riesz, tracer.wrap(nuisance.fit_riesz, riesz_name), everywhere)
    tracer.patch(nuisance.FittedBasis, "transform", tracer.wrap(
        nuisance.FittedBasis.transform, "nuisance.transform", counter="nuisance.transform_calls"))

    # optimize: iterations come from the returned OptResult, function
    # evaluations from counting calls of the objective handed in
    for name, short in (("minimize_newton", "newton"), ("minimize_gd", "gd")):
        fn = getattr(optimize, name)
        traced = tracer.wrap(fn, f"optimize.{name}",
                             after=lambda res, short=short: tracer.count(f"optimize.{short}_iters", res.n_iter))

        def counted(objective, *args, _traced=traced, _short=short, **kwargs):
            def evaluate(x):
                tracer.count(f"optimize.{_short}_fun_evals")
                return objective(x)
            return _traced(evaluate, *args, **kwargs)

        rebind(fn, functools.wraps(fn)(counted), everywhere)

    # simharness
    for name in ("sample_one", "sample_two", "run_mc"):
        fn = getattr(simharness, name)
        rebind(fn, tracer.wrap(fn, f"simharness.{name}"), everywhere)

    # oracle: simharness calls these through the module object
    for name in ("true_ate", "bound_v_os", "bound_v_ipw", "bound_v_ts"):
        tracer.patch(oracle, name, tracer.wrap(getattr(oracle, name), f"oracle.{name}"))

    # cli
    tracer.patch(cli, "_emit", tracer.wrap(cli._emit, "cli.emit"))
