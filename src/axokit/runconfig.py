"""Flat key=value run configuration shared by all CLI subcommands.

One value per line, ``#`` comments allowed, unknown keys and unknown
metric names rejected.  Flags given on the command line override file
values; file values override the built-in defaults below.
"""

from __future__ import annotations

from .characterize import METRICS, ProxyWeights
from .dse import GaParams
from .errors import SchemaError
from .forest import ForestParams


def _parse_bool(s: str) -> bool:
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_opt_int(s: str):
    return None if s == "none" else int(s)


def _parse_opt_float(s: str):
    return None if s == "none" else float(s)


def _parse_features(s: str):
    return s if s in ("sqrt", "all") else int(s)


def _parse_factors(s: str):
    vals = [float(x) for x in s.split(",") if x]
    if not vals:
        raise ValueError("empty factor list")
    return vals


# key -> (parser, default)
SCHEMA = {
    "low_op": (str, "adder:u4"),
    "high_op": (str, "adder:u8"),
    "behav_metric": (str, "avg_abs_rel_err"),
    "ppa_metric": (str, "pdplut"),
    "lut_delay": (float, 1.0),
    "carry_delay": (float, 0.1),
    "unit_energy": (float, 1.0),
    "n_trees": (int, 128),
    "max_depth": (_parse_opt_int, 16),
    "min_samples_leaf": (int, 1),
    "features_per_split": (_parse_features, "sqrt"),
    "bootstrap": (_parse_bool, True),
    "population_size": (int, 100),
    "max_generations": (int, 250),
    "tournament_k": (int, 2),
    "crossover_prob": (float, 0.9),
    "mutation_prob_per_bit": (_parse_opt_float, None),
    "n_noise": (int, 4),
    "factors": (_parse_factors, [0.2, 0.5, 0.75, 1.0]),
    "seed": (int, 0),
    "threads": (int, 1),  # accepted for compatibility; nothing reads it
    "activity_cycles": (int, 2048),
    "behav_samples": (int, 65536),
}


class RunConfig:
    def __init__(self, values: dict):
        for key in values:
            if key not in SCHEMA:
                raise SchemaError(f"unknown run-config key {key!r}")
        self._v = {k: values.get(k, d) for k, (_, d) in SCHEMA.items()}
        for key in ("behav_metric", "ppa_metric"):
            if self._v[key] not in METRICS:
                raise ValueError(f"unknown {key} {self._v[key]!r} "
                                 f"(valid: {', '.join(METRICS)})")

    def __getattr__(self, key):
        try:
            return self._v[key]
        except KeyError:
            raise AttributeError(key) from None

    def proxy_weights(self) -> ProxyWeights:
        return ProxyWeights(self.lut_delay, self.carry_delay, self.unit_energy)

    def forest_params(self, seed: int | None = None) -> ForestParams:
        return ForestParams(
            n_trees=self.n_trees,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            features_per_split=self.features_per_split,
            bootstrap=self.bootstrap,
            seed=self.seed if seed is None else seed,
        )

    def ga_params(self, seed: int | None = None) -> GaParams:
        return GaParams(
            population_size=self.population_size,
            max_generations=self.max_generations,
            tournament_k=self.tournament_k,
            crossover_prob=self.crossover_prob,
            mutation_prob_per_bit=self.mutation_prob_per_bit,
            seed=self.seed if seed is None else seed,
        )


def load_runconfig(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- file values <- explicit overrides (None means unset)."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SchemaError(f"{path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in SCHEMA:
                    raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = SCHEMA[key][0](val)
                except ValueError as e:
                    raise SchemaError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in SCHEMA:
            raise SchemaError(f"unknown run-config key {key!r}")
        values[key] = val
    return RunConfig(values)
