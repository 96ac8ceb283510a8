"""The benchmark's tracer finds every package name it wraps, and puts the
originals back.

``axobench/tracer.py`` patches module attributes by name, so renaming or
deleting one breaks every traced benchmark run; this keeps that visible in
the test suite.
"""

import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "axobench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("axobench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def package_state():
    """Every attribute of every loaded axokit module, and of its classes."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "axokit" or name.startswith("axokit."):
            for key, val in vars(mod).items():
                state[(name, key)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for attr, member in vars(val).items():
                        state[(name, key, attr)] = member
    return state


def test_tracer_installs_on_every_name_and_restores():
    tracing = load_tracer()
    from axokit import _simpy, characterize, cli, dse, forest, simcore  # noqa: F401

    before = package_state()
    tracer = tracing.Tracer()
    tracing.install(tracer)  # getattr on a missing name raises here
    try:
        for mod, attr in ((_simpy, "run_program"), (simcore, "_simulate_chunk"),
                          (simcore, "_collect_outputs"), (simcore, "_count_toggles"),
                          (characterize, "_behav_from_outputs"),
                          (characterize, "cpd_proxy"),
                          (characterize, "behav_characterize"),
                          (characterize, "ppa_characterize"),
                          (forest, "_build_tree"), (dse, "run_ga"), (cli, "cmd_dse")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        assert hasattr(forest.ForestModel.__dict__["predict_values"], "__wrapped__")
        changed = [k for k, v in package_state().items() if before.get(k) is not v]
        assert changed
    finally:
        tracer.restore()
    after = package_state()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
