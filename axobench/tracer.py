"""Span and counter tracing of axokit's layers from outside the package.

The tracer replaces module-level functions (and one method) of each layer
with wrappers that record calls, work counts and CPU time, then puts the
originals back.  A layer's self time is its span's CPU time minus the part
covered by its child spans.  Spans use process CPU time, the same clock as
the benchmark's ``cpu_s``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

clock = time.process_time


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, child seconds]
        self._undo: list[tuple] = []

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, on_result=None):
        """A wrapper of ``fn`` that records one span named ``name`` per call;
        ``on_result(args, kwargs, result)`` runs after the span closes."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                self.total_s[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` everywhere axokit has bound it."""
        orig = getattr(module, attr)
        self.replace(orig, self.wrap(name, orig, on_result))

    def replace(self, orig, new):
        """Rebind every axokit module attribute that is ``orig`` to ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "axokit" or mod_name.startswith("axokit."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def patch_method(self, cls, attr, name, on_result=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, on_result))
        self._undo.append((cls, attr, orig))

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries behind the benchmark's per-layer metrics."""
    import axokit._simpy as simpy
    from axokit import characterize, cli, conss, dse, forest, matching, simcore, stats

    t, c = tracer, tracer.counts

    def lanes(args, kwargs, result):
        c["simcore.lanes"] += len(args[2])

    t.patch(simcore, "evaluate_batch", "simcore.evaluate_batch", lanes)
    t.patch(simcore, "_simulate_chunk", "simcore.pack")
    t.patch(simpy, "run_program", "simpy.run_program")
    t.patch(simcore, "_collect_outputs", "simcore.unpack")
    t.patch(simcore, "_count_toggles", "simcore.toggles")

    def configs(args, kwargs, result):
        c["characterize.configs"] += len(result)

    t.patch(characterize, "characterize_dataset", "characterize.dataset", configs)
    t.patch(characterize, "behav_characterize", "characterize.behav")
    t.patch(characterize, "_behav_from_outputs", "characterize.behav_metrics")
    t.patch(characterize, "ppa_characterize", "characterize.ppa")
    t.patch(characterize, "cpd_proxy", "characterize.cpd_proxy")
    t.patch(characterize, "export_csv", "characterize.csv")
    t.patch(characterize, "import_csv", "characterize.csv")

    for attr, val in list(vars(stats).items()):
        if callable(val) and getattr(val, "__module__", None) == stats.__name__ \
                and not isinstance(val, type):
            t.patch(stats, attr, "stats")

    def rows(args, kwargs, result):
        c["matching.rows"] += len(result)

    t.patch(matching, "match_datasets", "matching.match")
    t.patch(matching, "augment_with_noise", "matching.augment", rows)

    def pool(args, kwargs, result):
        c["conss.pool"] += len(result)

    t.patch(conss, "supersample", "conss.supersample", pool)
    t.patch(conss, "evaluate_pool", "conss.evaluate_pool")

    def nodes(args, kwargs, result):
        c["forest.nodes"] += int(result.feature.size)

    def predicted(args, kwargs, result):
        c["forest.predict.rows"] += len(result)
        if t.parent() == "conss.supersample" and args[0].kind == "classifier":
            c["conss.candidates"] += len(result)

    t.patch(forest, "_build_tree", "forest.build_tree", nodes)
    t.patch_method(forest.ForestModel, "predict_values", "forest.predict", predicted)
    t.patch(forest, "save_model", "forest.model_io")
    t.patch(forest, "load_model", "forest.model_io")

    def ga_result(args, kwargs, result):
        c["dse.feasible_unique"] += result[2][-1]

    def archive(args, kwargs, result):
        if t.parent() == "dse.run_ga":
            c["dse.archive_len.max"] = max(c["dse.archive_len.max"], len(args[0]))

    def validated(args, kwargs, result):
        c["dse.validated"] += result[1]

    t.patch(dse, "run_ga", "dse.run_ga", ga_result)
    t.patch(dse, "_rank_population", "dse.rank")
    t.patch(dse, "_crowding", "dse.crowding")
    t.patch(dse, "pareto_front", "dse.archive", archive)
    t.patch(dse, "hypervolume_2d", "dse.archive")
    t.patch(dse, "validate_front", "dse.validate", validated)

    # Counters without spans on the GA's two hottest calls: one tournament
    # per offspring (each pair of tournaments breeds two children), and
    # one Individual per fitness-cache lookup.
    def counter(fn, key):
        def counted(*args, **kwargs):
            c[key] += 1
            return fn(*args, **kwargs)
        return counted

    t.replace(dse._tournament, counter(dse._tournament, "dse.offspring"))
    t.replace(dse.Individual, counter(dse.Individual, "dse.lookups"))

    for factory in ("_estimator_fitness", "_proxy_fitness"):
        make = getattr(cli, factory)

        def traced_factory(*args, _make=make, **kwargs):
            return t.wrap("dse.fitness", _make(*args, **kwargs))

        t.replace(make, traced_factory)

    for sub in ("characterize", "analyze", "match", "train", "supersample", "dse", "report"):
        t.patch(cli, f"cmd_{sub}", f"cli.{sub}")


# Per-layer metric -> (unit, better).  The README maps each to the
# end-to-end metric and workload it should move.
PER_LAYER = {
    "simcore.evaluate_batch.calls": ("count", "lower"),
    "simcore.lanes": ("count", "lower"),
    "simcore.pairs_per_s": ("1/s", "higher"),
    "simcore.pack.s": ("s", "lower"),
    "simpy.run_program.s": ("s", "lower"),
    "simcore.unpack.s": ("s", "lower"),
    "simcore.toggles.s": ("s", "lower"),
    "characterize.configs": ("count", "lower"),
    "characterize.behav.s": ("s", "lower"),
    "characterize.behav_metrics.s": ("s", "lower"),
    "characterize.ppa.s": ("s", "lower"),
    "characterize.cpd_proxy.s": ("s", "lower"),
    "characterize.csv.s": ("s", "lower"),
    "stats.s": ("s", "lower"),
    "matching.match.s": ("s", "lower"),
    "matching.augment.s": ("s", "lower"),
    "matching.rows": ("count", "lower"),
    "conss.supersample.s": ("s", "lower"),
    "conss.candidates": ("count", "lower"),
    "conss.pool": ("count", "lower"),
    "conss.evaluate_pool.s": ("s", "lower"),
    "forest.build_tree.s": ("s", "lower"),
    "forest.trees": ("count", "lower"),
    "forest.nodes": ("count", "lower"),
    "forest.predict.s": ("s", "lower"),
    "forest.predict.calls": ("count", "lower"),
    "forest.predict.rows": ("count", "lower"),
    "forest.model_io.s": ("s", "lower"),
    "dse.run_ga.s": ("s", "lower"),
    "dse.offspring": ("count", "lower"),
    "dse.fitness.calls": ("count", "lower"),
    "dse.cache_hit_ratio": ("ratio", "higher"),
    "dse.fitness.s": ("s", "lower"),
    "dse.rank.s": ("s", "lower"),
    "dse.crowding.s": ("s", "lower"),
    "dse.archive.s": ("s", "lower"),
    "dse.archive_len": ("count", "lower"),
    "dse.feasible_unique": ("count", "higher"),
    "dse.validate.s": ("s", "lower"),
    "dse.validated": ("count", "lower"),
    "cli.characterize.s": ("s", "lower"),
    "cli.analyze.s": ("s", "lower"),
    "cli.match.s": ("s", "lower"),
    "cli.train.s": ("s", "lower"),
    "cli.supersample.s": ("s", "lower"),
    "cli.dse.s": ("s", "lower"),
    "cli.report.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer(t: Tracer, n_ops: int, overhead_s: float) -> dict[str, float]:
    """Per-operation values of every per-layer metric from ``n_ops`` traced
    operations.  Times are self times, except ``cli.*.s`` (whole stages)
    and ``dse.validate.s`` (the whole validation, characterization
    included)."""
    s, calls, c = t.self_s, t.calls, t.counts
    totals = {
        "simcore.evaluate_batch.calls": calls["simcore.evaluate_batch"],
        "simcore.lanes": c["simcore.lanes"],
        "simcore.pack.s": s["simcore.pack"],
        "simpy.run_program.s": s["simpy.run_program"],
        "simcore.unpack.s": s["simcore.unpack"],
        "simcore.toggles.s": s["simcore.toggles"],
        "characterize.configs": c["characterize.configs"],
        "characterize.behav.s": s["characterize.behav"],
        "characterize.behav_metrics.s": s["characterize.behav_metrics"],
        "characterize.ppa.s": s["characterize.ppa"],
        "characterize.cpd_proxy.s": s["characterize.cpd_proxy"],
        "characterize.csv.s": s["characterize.csv"],
        "stats.s": s["stats"],
        "matching.match.s": s["matching.match"],
        "matching.augment.s": s["matching.augment"],
        "matching.rows": c["matching.rows"],
        "conss.supersample.s": s["conss.supersample"],
        "conss.candidates": c["conss.candidates"],
        "conss.pool": c["conss.pool"],
        "conss.evaluate_pool.s": s["conss.evaluate_pool"],
        "forest.build_tree.s": s["forest.build_tree"],
        "forest.trees": calls["forest.build_tree"],
        "forest.nodes": c["forest.nodes"],
        "forest.predict.s": s["forest.predict"],
        "forest.predict.calls": calls["forest.predict"],
        "forest.predict.rows": c["forest.predict.rows"],
        "forest.model_io.s": s["forest.model_io"],
        "dse.run_ga.s": s["dse.run_ga"],
        "dse.offspring": c["dse.offspring"],
        "dse.fitness.calls": calls["dse.fitness"],
        "dse.fitness.s": s["dse.fitness"],
        "dse.rank.s": s["dse.rank"],
        "dse.crowding.s": s["dse.crowding"],
        "dse.archive.s": s["dse.archive"],
        "dse.feasible_unique": c["dse.feasible_unique"],
        "dse.validate.s": t.total_s["dse.validate"],
        "dse.validated": c["dse.validated"],
    }
    for sub in ("characterize", "analyze", "match", "train", "supersample", "dse", "report"):
        totals[f"cli.{sub}.s"] = t.total_s[f"cli.{sub}"]
    out = {k: float(x) / n_ops for k, x in totals.items()}
    batch_s = t.total_s["simcore.evaluate_batch"]
    out["simcore.pairs_per_s"] = c["simcore.lanes"] / batch_s if batch_s > 0 else 0.0
    lookups = c["dse.lookups"]
    out["dse.cache_hit_ratio"] = 1.0 - calls["dse.fitness"] / lookups if lookups else 0.0
    out["dse.archive_len"] = float(c["dse.archive_len.max"])
    out["trace.overhead_s"] = float(overhead_s)
    return {k: out[k] for k in PER_LAYER}
