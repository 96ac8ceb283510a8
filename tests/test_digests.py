"""Golden digests of the exact artifacts of a tiny seeded ConSS flow.

The training CSV, the classifier model and the estimator-free pool CSV are
made of 0/1 arithmetic (bit rows, vote fractions of 0/1 targets), so their
bytes do not depend on the BLAS build.  Any change to the forest builder,
the noise rows or the text codecs that moves a byte fails here; a change
that means to move them must say so and record new digests.  Regressor
models are left out: their leaf sums are float BLAS products.

The two characterization CSVs (``l.csv`` exhaustive mul:s4, ``h.csv``
sampled mul:s6) pin the simulation, the per-record operand streams and
the toggle counts.  Their error means are numpy float reductions (no
BLAS), recorded with numpy 2.4.6; a numpy whose summation order differs
may move them.
"""

import hashlib

import pytest

from axokit.cli import main

GOLDEN = {
    "l.csv": "57fe47b0384564f2fe0630de8a339dd892274c97a19a8022a88c9815a1d6b6c2",
    "h.csv": "5368cecf29b1e105e475b7c787e472fbecf84c3e8cd208a2bf0a97f2fbb83ef6",
    "train.csv": "ed7f9ccde302a3d76f0e6de252683ed2334e9560bc6405311ea54f6ecaeda6bc",
    "clf.fmodel": "ec599edb7a70ad95ad329d0a04b1d0a5535e357c87b8585ba69c5404571c9bd7",
    "pool.csv": "0cab393db3d405499a2389c53613f91253d05b44ad9becbcf2d53f740ff34d77",
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """mul:s4 -> mul:s6: match, train a small classifier, supersample."""
    d = tmp_path_factory.mktemp("digests")
    run("characterize", "--op", "mul:s4", "--exclude-all-zeros", "--seed", 3,
        "-o", d / "l.csv")
    run("characterize", "--op", "mul:s6", "--sample", 64, "--behav-samples", 1024,
        "--activity-cycles", 256, "--seed", 3, "-o", d / "h.csv")
    run("match", "--low", d / "l.csv", "--high", d / "h.csv", "--n-noise", 3,
        "--seed", 3, "-o", d / "train.csv")
    run("train", "--training", d / "train.csv", "--n-trees", 6, "--max-depth", 9,
        "--seed", 3, "-o", d / "clf.fmodel")
    run("supersample", "--model", d / "clf.fmodel", "--low", d / "l.csv",
        "--factor", 0.6, "--seed", 3, "-o", d / "pool.csv")
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_flow_artifact_digest(flow, name):
    digest = hashlib.sha256((flow / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} changed: {digest}"
