"""Command-line pipeline: characterize, analyze, match, train, supersample,
dse, report.

Every subcommand is deterministic given its --seed, records that seed in
its output preambles, never mutates inputs, and is idempotent.  Exit codes:
0 success, 2 usage (including refusing to overwrite without --force),
3 schema or format errors, 4 capacity guards.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .artifacts import fmt, preamble, read_artifact, read_manifest, write_lines
from .characterize import (
    METRICS,
    ActivityPolicy,
    Exhaustive,
    Sampled,
    characterize_dataset,
    export_csv,
    import_csv,
    sample_configs,
)
from .errors import (
    CapacityError,
    DuplicateConfigError,
    InvalidOperatorError,
    ModelFormatError,
    SchemaError,
    WidthMismatchError,
)
from .operators import AxoConfig, config_length, enumerate_configs, parse_kind
from .runconfig import load_runconfig

# The stage modules (conss, dse, forest, matching, stats) are imported by
# the commands that use them, so that ``characterize`` loads none of them.
if TYPE_CHECKING:
    from .dse import ParetoFront

EXHAUSTIVE_DEFAULT_BITS = 16
FRONT_HEADER = "config_bits,config_uint,behav,ppa"


class UsageError(Exception):
    pass


def _prepare_out(path: str, force: bool) -> str:
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def _check_metric(flag: str, name: str) -> None:
    if name not in METRICS:
        raise UsageError(f"unknown {flag} metric {name!r} "
                         f"(valid: {', '.join(METRICS)})")


def _num(x, spec: str) -> str:
    """``x`` formatted by ``spec``, or ``n/a`` when there is no value."""
    return "n/a" if x is None else format(x, spec)


def _default_input_policy(kind, args, cfg):
    if args.exhaustive:
        return Exhaustive()
    if args.behav_samples is not None:
        return Sampled(args.behav_samples)
    if 2 * kind.width <= EXHAUSTIVE_DEFAULT_BITS:
        return Exhaustive()
    return Sampled(cfg.behav_samples)


# -- characterize -----------------------------------------------------

def cmd_characterize(args) -> int:
    cfg = load_runconfig(args.config, {"seed": args.seed,
                                       "activity_cycles": args.activity_cycles})
    kind = parse_kind(args.op)
    if args.sample is not None:
        configs = sample_configs(kind, args.sample, seed=cfg.seed)
        configs_desc = f"sampled:n={args.sample}"
    else:
        configs = list(enumerate_configs(kind, include_all_zeros=not args.exclude_all_zeros))
        configs_desc = "enumerate:nonzero" if args.exclude_all_zeros else "enumerate:all"
    policy = _default_input_policy(kind, args, cfg)
    t0 = time.perf_counter()
    ds = characterize_dataset(
        kind, configs, policy, ActivityPolicy(cfg.activity_cycles),
        seed=cfg.seed, weights=cfg.proxy_weights(),
    )
    ds.meta["configs"] = configs_desc
    export_csv(ds, _prepare_out(args.out, args.force))
    print(f"characterize: {len(ds)} records ({kind.token}, {policy.describe()}) "
          f"in {time.perf_counter() - t0:.2f}s -> {args.out}")
    return 0


# -- analyze ----------------------------------------------------------

def cmd_analyze(args) -> int:
    from .stats import (DistanceKind, distance_histogram, elbow_pick, kmeans,
                        minmax_scale, sse_curve, windowed_trend)

    cfg = load_runconfig(args.config, {"seed": args.seed,
                                       "behav_metric": args.behav_metric,
                                       "ppa_metric": args.ppa_metric})
    if args.trend_metric:
        _check_metric("--trend-metric", args.trend_metric)
    ds = import_csv(args.dataset)
    os.makedirs(args.out_dir, exist_ok=True)
    bm, pm = cfg.behav_metric, cfg.ppa_metric
    points = minmax_scale(ds, bm, pm)
    pre = preamble({"dataset": os.path.basename(args.dataset), "behav": bm, "ppa": pm,
                    "seed": cfg.seed})

    def out(name):
        return _prepare_out(os.path.join(args.out_dir, name), args.force)

    write_lines(out("scaled_points.csv"),
                [pre, "config_uint,behav_scaled,ppa_scaled"]
                + [f"{p.source_uint},{fmt(p.behav_scaled)},{fmt(p.ppa_scaled)}"
                   for p in points])

    sse = sse_curve(points, args.kmax, seed=cfg.seed)
    k = elbow_pick(sse)
    write_lines(out("elbow.csv"), [pre + f" chosen_k={k}", "k,sse"]
                + [f"{kk},{fmt(v)}" for kk, v in enumerate(sse, start=1)])

    clusters = kmeans(points, k, seed=cfg.seed)
    member_rows = []
    centroid_rows = []
    hull_rows = []
    for ci, cl in enumerate(clusters):
        centroid_rows.append(f"{ci},{fmt(cl.centroid[0])},{fmt(cl.centroid[1])},{len(cl.member_uints)}")
        for u in cl.member_uints:
            member_rows.append(f"{u},{ci}")
        for vi, (x, y) in enumerate(cl.hull):
            hull_rows.append(f"{ci},{vi},{fmt(x)},{fmt(y)}")
    write_lines(out("clusters.csv"), [pre + f" k={k}", "config_uint,cluster"] + member_rows)
    write_lines(out("centroids.csv"), [pre + f" k={k}", "cluster,behav,ppa,size"] + centroid_rows)
    write_lines(out("hulls.csv"), [pre + f" k={k}", "cluster,vertex,behav,ppa"] + hull_rows)

    trend_metric = args.trend_metric or bm
    trend = windowed_trend(ds, trend_metric, args.window)
    write_lines(out("trend.csv"),
                [pre + f" metric={trend_metric} window={args.window}", "window,mean_scaled"]
                + [f"{i},{fmt(v)}" for i, v in trend])

    if args.low:
        low = import_csv(args.low)
        for kd in DistanceKind:
            counts, edges = distance_histogram(low, ds, kd, bins=args.bins,
                                               behav_metric=bm, ppa_metric=pm)
            rows = [f"{fmt(edges[i])},{fmt(edges[i + 1])},{int(counts[i])}"
                    for i in range(len(counts))]
            write_lines(out(f"hist_{kd.value}.csv"),
                        [pre + f" low={os.path.basename(args.low)} kind={kd.value}",
                         "bin_lo,bin_hi,count"] + rows)
    print(f"analyze: {len(points)} points, elbow k={k} -> {args.out_dir}")
    return 0


# -- match ------------------------------------------------------------

def cmd_match(args) -> int:
    from .matching import (EnumerateAll, SamplePatterns, augment_with_noise,
                           export_training_csv, match_datasets)
    from .stats import DistanceKind

    cfg = load_runconfig(args.config, {"seed": args.seed, "n_noise": args.n_noise,
                                       "behav_metric": args.behav_metric,
                                       "ppa_metric": args.ppa_metric})
    low = import_csv(args.low)
    high = import_csv(args.high)
    try:
        kind = DistanceKind(args.distance)
    except ValueError:
        raise UsageError(f"unknown --distance {args.distance!r} "
                         f"(valid: {', '.join(k.value for k in DistanceKind)})") from None
    m = match_datasets(low, high, cfg.behav_metric, cfg.ppa_metric, kind)
    if args.noise_mode.startswith("sample:"):
        mode = SamplePatterns(int(args.noise_mode.split(":", 1)[1]), seed=cfg.seed)
    elif args.noise_mode == "enumerate":
        mode = EnumerateAll()
    else:
        raise UsageError(f"unknown noise mode {args.noise_mode!r}")
    ts = augment_with_noise(m, cfg.n_noise, mode)
    ts.meta["seed"] = str(cfg.seed)
    ts.meta["behav_metric"] = cfg.behav_metric
    ts.meta["ppa_metric"] = cfg.ppa_metric
    export_training_csv(ts, _prepare_out(args.out, args.force))
    mult = m.multiplicity()
    print(f"match: {len(m.pairs)} pairs over {len(mult)} low configs "
          f"(max multiplicity {max(mult.values())}), {len(ts)} training rows -> {args.out}")
    return 0


# -- train ------------------------------------------------------------

def cmd_train(args) -> int:
    from .forest import regressor_grid, save_model, train_classifier, train_regressor
    from .matching import import_training_csv

    cfg = load_runconfig(args.config, {
        "seed": args.seed, "n_trees": args.n_trees,
        "max_depth": args.max_depth, "features_per_split": args.features,
    })
    if bool(args.training) == bool(args.dataset):
        raise UsageError("exactly one of --training (classifier) or "
                         "--dataset with --target (regressor) is required")
    if args.training:
        ts = import_training_csv(args.training)
        model, rep = train_classifier(ts, cfg.forest_params())
        save_model(model, _prepare_out(args.out, args.force))
        acc = float(np.mean(rep.per_bit_accuracy))
        print(f"train: classifier {model.input_width}->{model.output_width} bits, "
              f"{len(model.trees)} trees; training per-bit acc {acc:.4f}, "
              f"mean Hamming {rep.hamming_mean:.3f} -> {args.out}")
        return 0
    if not args.target:
        raise UsageError("--target METRIC is required with --dataset")
    _check_metric("--target", args.target)
    ds = import_csv(args.dataset)
    if args.grid:
        params, model, rep = regressor_grid(ds, args.target, seed=cfg.seed,
                                            split_seed=args.split_seed)
        picked = f" grid pick: trees={params.n_trees} depth={params.max_depth};"
    else:
        model, rep = train_regressor(ds, args.target, cfg.forest_params(),
                                     split_seed=args.split_seed)
        picked = ""
    save_model(model, _prepare_out(args.out, args.force))
    print(f"train: regressor target={args.target};{picked} "
          f"test RMSE {_num(rep.rmse_test, '.6g')} "
          f"(scaled {_num(rep.rmse_test_scaled, '.4f')}), "
          f"R2 {_num(rep.r2_test, '.4f')} -> {args.out}")
    return 0


# -- supersample ------------------------------------------------------

def cmd_supersample(args) -> int:
    from .conss import (Estimators, derive_constraints, evaluate_pool, export_pool_csv,
                        select_seeds, supersample)
    from .forest import load_model
    from .matching import EnumerateAll, parse_noise_mode

    cfg = load_runconfig(args.config, {"seed": args.seed,
                                       "behav_metric": args.behav_metric,
                                       "ppa_metric": args.ppa_metric})
    model = load_model(args.model)
    low = import_csv(args.low)
    high_kind = parse_kind(args.high_op or model.meta.get("high_kind", ""))
    n_noise = int(model.meta.get("n_noise", cfg.n_noise))
    spec = derive_constraints(low, args.factor, cfg.behav_metric, cfg.ppa_metric)
    seeds = select_seeds(low, spec, mode=args.seed_mode)
    # the noise patterns the classifier was trained on; older models enumerate
    mode = parse_noise_mode(model.meta.get("mode", EnumerateAll().describe()))
    pool = supersample(model, high_kind, seeds, n_noise, mode)
    pool.meta["factor"] = fmt(args.factor)
    pool.meta["seed"] = str(cfg.seed)
    pool.meta["seed_mode"] = args.seed_mode
    if args.estimators:
        b_path, p_path = args.estimators.split(",", 1)
        est = Estimators(load_model(b_path), load_model(p_path),
                         cfg.behav_metric, cfg.ppa_metric)
        if len(pool):
            pool = evaluate_pool(pool, est)
    export_pool_csv(pool, _prepare_out(args.out, args.force),
                    cfg.behav_metric, cfg.ppa_metric)
    print(f"supersample: {len(seeds)} seeds (factor {args.factor}, {args.seed_mode}) "
          f"-> {len(pool)} unique candidates -> {args.out}")
    return 0


# -- dse --------------------------------------------------------------

def _proxy_fitness(kind, cfg, policy, activity):
    """Batch GA fitness: ground-truth proxy characterization of each row."""
    weights = cfg.proxy_weights()
    bm, pm = cfg.behav_metric, cfg.ppa_metric

    def fitness(bits: np.ndarray):
        configs = [AxoConfig(tuple(row)) for row in bits.tolist()]
        ds = characterize_dataset(kind, configs, policy, activity,
                                  seed=cfg.seed, weights=weights)
        return ds.metric_values(bm), ds.metric_values(pm)

    return fitness


def _estimator_fitness(cfg, behav_model, ppa_model):
    """Batch GA fitness: one prediction per estimator for all rows."""
    from .forest import predict_metric

    def fitness(bits: np.ndarray):
        return predict_metric(behav_model, bits), predict_metric(ppa_model, bits)

    return fitness


def cmd_dse(args) -> int:
    from .conss import derive_constraints, import_pool_csv
    from .dse import hypervolume_2d, run_ga, validate_front
    from .forest import load_model

    cfg = load_runconfig(args.config, {
        "seed": args.seed,
        "population_size": args.pop, "max_generations": args.generations,
        "behav_metric": args.behav_metric, "ppa_metric": args.ppa_metric,
    })
    train_ds = import_csv(args.train)
    kind = parse_kind(args.op) if args.op else train_ds.kind
    constraints = derive_constraints(train_ds, args.factor, cfg.behav_metric, cfg.ppa_metric)
    policy = _default_input_policy(kind, args, cfg)
    activity = ActivityPolicy(cfg.activity_cycles)
    if args.estimators:
        b_path, p_path = args.estimators.split(",", 1)
        fitness = _estimator_fitness(cfg, load_model(b_path), load_model(p_path))
        fitness_desc = f"estimators:{os.path.basename(b_path)},{os.path.basename(p_path)}"
    else:
        fitness = _proxy_fitness(kind, cfg, policy, activity)
        fitness_desc = f"proxy:{policy.describe()}"
    pool = import_pool_csv(args.init) if args.init else None
    if pool is not None and pool.kind != kind:
        raise WidthMismatchError("initial pool kind does not match dse operator")
    params = cfg.ga_params()
    t0 = time.perf_counter()
    ppf, progress, feas_counts = run_ga(kind, fitness, constraints, params,
                                        initial_pool=pool, batch=True)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out_dir, exist_ok=True)

    def out(name):
        return _prepare_out(os.path.join(args.out_dir, name), args.force)

    method = args.method or ("conss_ga" if args.init else "ga")
    manifest = [
        f"method={method}",
        f"factor={fmt(args.factor)}",
        f"seed={cfg.seed}",
        f"population_size={params.population_size}",
        f"max_generations={params.max_generations}",
        f"behav_metric={cfg.behav_metric}",
        f"ppa_metric={cfg.ppa_metric}",
        f"b_max={fmt(constraints.b_max)}",
        f"p_max={fmt(constraints.p_max)}",
        f"kind={kind.token}",
        f"train={os.path.basename(args.train)}",
        f"fitness={fitness_desc}",
        f"init={os.path.basename(args.init) if args.init else 'random'}",
        f"final_hypervolume={fmt(progress[-1].value)}",
        f"front_size={len(ppf)}",
    ]
    write_lines(out("manifest.txt"), manifest)
    write_lines(out("progress.csv"),
                ["generation,hypervolume,feasible_count"]
                + [f"{g},{fmt(hv.value)},{n}" for g, (hv, n)
                   in enumerate(zip(progress, feas_counts))])
    pre = preamble({"kind": kind.token, "behav_metric": cfg.behav_metric,
                    "ppa_metric": cfg.ppa_metric, "factor": fmt(args.factor),
                    "seed": cfg.seed})
    write_lines(out("ppf.csv"),
                [pre, FRONT_HEADER]
                + [f"{AxoConfig.from_uint(u, config_length(kind)).bitstring()},{u},"
                   f"{fmt(b)},{fmt(p)}" for b, p, u in ppf.points])
    if args.validate:
        known = import_csv(args.known) if args.known else None
        vpf, count, char_ds = validate_front(
            ppf, kind, constraints, policy, activity, seed=cfg.seed,
            weights=cfg.proxy_weights(), known=known,
        )
        export_csv(char_ds, out("vpf.csv"))
        vhv = hypervolume_2d(vpf, (constraints.b_max, constraints.p_max)).value
        print(f"dse[{method}]: PPF {len(ppf)} pts, hv {fmt(progress[-1].value)}; "
              f"VPF {len(vpf)} pts, hv {fmt(vhv)}, {count} newly characterized "
              f"({elapsed:.1f}s) -> {args.out_dir}")
    else:
        print(f"dse[{method}]: PPF {len(ppf)} pts, hv {fmt(progress[-1].value)} "
              f"({elapsed:.1f}s, {len(progress) - 1} generations) -> {args.out_dir}")
    return 0


# -- report -----------------------------------------------------------

def _read_front_csv(path: str) -> ParetoFront:
    from .dse import pareto_front

    _, raw, i = read_artifact(path)
    if i >= len(raw) or raw[i] != FRONT_HEADER:
        raise SchemaError(f"{path}: bad front header")
    pts = []
    for rowno, ln in enumerate(raw[i + 1:], start=i + 2):
        if not ln:
            continue
        parts = ln.split(",")
        try:
            if len(parts) != 4 or AxoConfig.from_bitstring(parts[0]).uint != int(parts[1]):
                raise ValueError(f"expected {FRONT_HEADER} with matching bits and uint")
            b, p = float(parts[2]), float(parts[3])
            if not (math.isfinite(b) and math.isfinite(p)):
                raise ValueError(f"non-finite behav or ppa {b!r},{p!r}")
            pts.append((b, p, int(parts[1])))
        except ValueError as e:
            raise SchemaError(f"{path}:{rowno}: {e}") from e
    return pareto_front(pts)


def cmd_report(args) -> int:
    from .conss import ConstraintSpec, derive_constraints
    from .dse import feasible_front, hypervolume_2d

    cfg = load_runconfig(args.config, {"behav_metric": args.behav_metric,
                                       "ppa_metric": args.ppa_metric})
    train_ds = import_csv(args.train)
    bm, pm = cfg.behav_metric, cfg.ppa_metric
    runs = []
    for spec in args.run or []:
        if "=" not in spec:
            raise UsageError(f"--run expects name=dir, got {spec!r}")
        name, d = spec.split("=", 1)
        man_path = os.path.join(d, "manifest.txt")
        man = read_manifest(man_path, ("factor", "b_max", "p_max"))
        try:
            factor, b_max, p_max = (float(man[k]) for k in ("factor", "b_max", "p_max"))
        except ValueError as e:
            raise SchemaError(f"{man_path}: {e}") from e
        vpf_path = os.path.join(d, "vpf.csv")
        validated = None
        if os.path.exists(vpf_path):
            ds = import_csv(vpf_path)
            try:
                validated = int(ds.meta.get("validated", len(ds)))
            except ValueError as e:
                raise SchemaError(f"{vpf_path}: {e}") from e
            constraints = ConstraintSpec(b_max, p_max, factor, bm, pm, man.get("train", ""))
            front = feasible_front(ds, constraints)
        else:
            front = _read_front_csv(os.path.join(d, "ppf.csv"))
        runs.append((name, factor, front, validated))
    factors = cfg.factors if args.factors is None else \
        [float(x) for x in args.factors.split(",")]
    lines = ["factor,method,hypervolume,ratio_to_train,validated"]
    for factor in factors:
        constraints = derive_constraints(train_ds, factor, bm, pm)
        ref = (constraints.b_max, constraints.p_max)
        base = hypervolume_2d(feasible_front(train_ds, constraints), ref).value
        lines.append(f"{fmt(factor)},train,{fmt(base)},1,")
        for name, f, front, validated in runs:
            if abs(f - factor) > 1e-12:
                continue
            hv = hypervolume_2d(front, ref).value
            ratio = hv / base if base > 0 else float("nan")
            lines.append(f"{fmt(factor)},{name},{fmt(hv)},{fmt(ratio)},"
                         f"{'' if validated is None else validated}")
    write_lines(_prepare_out(args.out, args.force), lines)
    print(f"report: {len(lines) - 1} rows -> {args.out}")
    return 0


# -- parser -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="axokit",
        description="Approximate-operator characterization, learning-based "
                    "configuration supersampling, and constrained design-space "
                    "exploration.",
    )
    ap.add_argument("--version", action="version", version=f"axokit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run-config file (key=value lines)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; axokit runs single-threaded")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    p = sub.add_parser("characterize", help="simulate and cost a config set")
    common(p)
    p.add_argument("--op", required=True, help="operator token, e.g. adder:u4, mul:s8")
    p.add_argument("--sample", type=int, default=None,
                   help="sample N distinct non-zero configs instead of enumerating")
    p.add_argument("--exclude-all-zeros", action="store_true")
    p.add_argument("--exhaustive", action="store_true",
                   help="force exhaustive operand sweep")
    p.add_argument("--behav-samples", type=int, default=None,
                   help="force sampled operand pairs per config")
    p.add_argument("--activity-cycles", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("analyze", help="scaling, clustering, trends, histograms")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--low", help="second dataset for cross-width distance histograms")
    p.add_argument("--behav-metric", default=None)
    p.add_argument("--ppa-metric", default=None)
    p.add_argument("--trend-metric", default=None)
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("match", help="nearest-neighbor matching + noise augmentation")
    common(p)
    p.add_argument("--low", required=True)
    p.add_argument("--high", required=True)
    p.add_argument("--distance", default="euclidean",
                   help="euclidean | manhattan | pareto")
    p.add_argument("--behav-metric", default=None)
    p.add_argument("--ppa-metric", default=None)
    p.add_argument("--n-noise", type=int, default=None)
    p.add_argument("--noise-mode", default="enumerate",
                   help="enumerate | sample:K")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("train", help="train the bit classifier or a metric regressor")
    common(p)
    p.add_argument("--training", help="training CSV (classifier mode)")
    p.add_argument("--dataset", help="characterization CSV (regressor mode)")
    p.add_argument("--target", help="metric name for regressor mode")
    p.add_argument("--grid", action="store_true",
                   help="search the built-in params grid (regressor mode)")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--n-trees", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--features", default=None, help="sqrt | all | fixed count")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("supersample", help="generate high-width candidates from seeds")
    common(p)
    p.add_argument("--model", required=True, help="classifier model file")
    p.add_argument("--low", required=True, help="low-width characterization CSV")
    p.add_argument("--high-op", default=None,
                   help="high operator token (default: model metadata)")
    p.add_argument("--factor", type=float, required=True)
    p.add_argument("--seed-mode", default="all", choices=["all", "pareto"])
    p.add_argument("--behav-metric", default=None)
    p.add_argument("--ppa-metric", default=None)
    p.add_argument("--estimators", default=None,
                   help="behav_model,ppa_model to fill predicted metrics")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_supersample)

    p = sub.add_parser("dse", help="constrained genetic search")
    common(p)
    p.add_argument("--train", required=True,
                   help="training characterization CSV (defines constraints)")
    p.add_argument("--op", default=None, help="operator token (default: train kind)")
    p.add_argument("--factor", type=float, required=True)
    p.add_argument("--pop", type=int, default=None)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--init", default=None, help="ConSS pool CSV seeding generation 0")
    p.add_argument("--estimators", default=None,
                   help="behav_model,ppa_model fitness instead of proxy simulation")
    p.add_argument("--behav-metric", default=None)
    p.add_argument("--ppa-metric", default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--behav-samples", type=int, default=None)
    p.add_argument("--validate", action="store_true",
                   help="re-characterize the PPF into a VPF")
    p.add_argument("--known", default=None,
                   help="dataset of already-characterized configs (counts validation work)")
    p.add_argument("--method", default=None, help="method label for the manifest")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("report", help="hypervolume comparison across runs/factors")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--run", action="append", help="name=run_dir (repeatable)")
    p.add_argument("--factors", default=None)
    p.add_argument("--behav-metric", default=None)
    p.add_argument("--ppa-metric", default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ModelFormatError, DuplicateConfigError, WidthMismatchError) as e:
        print(f"axokit: schema error: {e}", file=sys.stderr)
        return 3
    except CapacityError as e:
        print(f"axokit: capacity error: {e}", file=sys.stderr)
        return 4
    except (UsageError, InvalidOperatorError, ValueError, OSError) as e:
        print(f"axokit: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
