"""End-to-end CLI pipeline plus exit-code and determinism contracts."""

import re
import shutil

import numpy as np
import pytest

from axokit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """Full adder:u4 -> adder:u8 pipeline in one directory."""
    d = tmp_path_factory.mktemp("pipeline")
    l_csv, h_csv = d / "l.csv", d / "h.csv"
    assert run("characterize", "--op", "adder:u4", "-o", l_csv) == 0
    assert run("characterize", "--op", "adder:u8", "--sample", 100,
               "--threads", 4, "-o", h_csv) == 0

    assert run("analyze", "--dataset", h_csv, "--low", l_csv,
               "--out-dir", d / "analysis") == 0

    train_csv = d / "train.csv"
    assert run("match", "--low", l_csv, "--high", h_csv, "--n-noise", 2,
               "-o", train_csv) == 0

    clf = d / "clf.fmodel"
    assert run("train", "--training", train_csv, "--n-trees", 16,
               "--max-depth", 10, "-o", clf) == 0
    be, pe = d / "be.fmodel", d / "pe.fmodel"
    assert run("train", "--dataset", h_csv, "--target", "avg_abs_rel_err",
               "--n-trees", 16, "-o", be) == 0
    assert run("train", "--dataset", h_csv, "--target", "pdplut",
               "--n-trees", 16, "-o", pe) == 0

    pool_csv = d / "pool.csv"
    assert run("supersample", "--model", clf, "--low", l_csv, "--factor", 0.6,
               "--estimators", f"{be},{pe}", "-o", pool_csv) == 0

    assert run("dse", "--train", h_csv, "--factor", 0.7, "--pop", 12,
               "--generations", 5, "--behav-samples", 4096, "--threads", 4,
               "--validate", "--known", h_csv, "--method", "ga",
               "--out-dir", d / "run_ga") == 0
    assert run("dse", "--train", h_csv, "--factor", 0.7, "--pop", 12,
               "--generations", 5, "--init", pool_csv,
               "--estimators", f"{be},{pe}", "--method", "conss_ga",
               "--out-dir", d / "run_conss") == 0

    report = d / "report.csv"
    assert run("report", "--train", h_csv, "--run", f"ga={d / 'run_ga'}",
               "--run", f"conss={d / 'run_conss'}", "--factors", "0.7",
               "-o", report) == 0
    return d


def test_characterize_outputs(pipe):
    lines = (pipe / "l.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert "kind=adder:u4" in lines[0]
    assert len(lines) == 2 + 16
    h = (pipe / "h.csv").read_text().splitlines()
    assert len(h) == 2 + 100


def test_analyze_outputs(pipe):
    names = ["scaled_points.csv", "elbow.csv", "clusters.csv", "centroids.csv",
             "hulls.csv", "trend.csv", "hist_euclidean.csv", "hist_manhattan.csv",
             "hist_pareto.csv"]
    for name in names:
        assert (pipe / "analysis" / name).exists(), name
    scaled = (pipe / "analysis" / "scaled_points.csv").read_text().splitlines()
    assert len(scaled) == 2 + 100
    hist = (pipe / "analysis" / "hist_euclidean.csv").read_text().splitlines()
    counts = [int(ln.split(",")[2]) for ln in hist[2:]]
    assert sum(counts) == 16 * 100
    clusters = (pipe / "analysis" / "clusters.csv").read_text().splitlines()
    assert len(clusters) == 2 + 100


def test_match_output(pipe):
    lines = (pipe / "train.csv").read_text().splitlines()
    assert lines[1] == "input_bits,output_bits"
    rows = lines[2:]
    assert len(rows) == 100 * 4
    xi, yi = rows[0].split(",")
    assert len(xi) == 6 and len(yi) == 8


def test_supersample_output(pipe):
    lines = (pipe / "pool.csv").read_text().splitlines()
    assert lines[1].endswith(",pred_behav,pred_ppa")
    assert len(lines) > 2
    uints = [int(ln.split(",")[1]) for ln in lines[2:]]
    assert len(set(uints)) == len(uints)
    assert 0 not in uints


def test_dse_outputs(pipe):
    for run_dir, has_vpf in (("run_ga", True), ("run_conss", False)):
        base = pipe / run_dir
        man = dict(ln.split("=", 1) for ln in (base / "manifest.txt").read_text().splitlines())
        assert man["kind"] == "adder:u8"
        assert float(man["final_hypervolume"]) > 0
        prog = (base / "progress.csv").read_text().splitlines()
        assert prog[0] == "generation,hypervolume,feasible_count"
        assert len(prog) == 1 + 6
        hv = [float(ln.split(",")[1]) for ln in prog[1:]]
        assert all(b >= a for a, b in zip(hv, hv[1:]))
        assert (base / "vpf.csv").exists() == has_vpf
    assert dict(
        ln.split("=", 1)
        for ln in (pipe / "run_conss" / "manifest.txt").read_text().splitlines()
    )["method"] == "conss_ga"


def test_report_table(pipe):
    lines = (pipe / "report.csv").read_text().splitlines()
    assert lines[0] == "factor,method,hypervolume,ratio_to_train,validated"
    assert len(lines) == 4  # train + ga + conss at factor 0.7
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["train", "ga", "conss"]
    assert all(len(r) == 5 for r in rows)
    assert float(rows[0][3]) == 1.0
    assert rows[1][4] != ""  # validated count from vpf.csv


def test_refuses_overwrite(pipe, capsys):
    assert run("characterize", "--op", "adder:u4", "-o", pipe / "l.csv") == 2
    assert "--force" in capsys.readouterr().err
    assert run("characterize", "--op", "adder:u4", "--force",
               "-o", pipe / "l.csv") == 0


def test_exit_code_usage(tmp_path, pipe):
    assert run("characterize", "--op", "nonsense", "-o", tmp_path / "x.csv") == 2
    assert run("characterize", "--op", "mul:s5", "-o", tmp_path / "x.csv") == 2
    assert run("train", "--training", pipe / "train.csv", "--dataset",
               pipe / "h.csv", "-o", tmp_path / "m.fmodel") == 2
    assert run("report", "--train", pipe / "h.csv", "--run", "noequals",
               "-o", tmp_path / "r.csv") == 2
    assert run("analyze", "--dataset", pipe / "h.csv", "--behav-metric", "nope",
               "--out-dir", tmp_path / "a") == 2
    assert run("match", "--low", pipe / "l.csv", "--high", pipe / "h.csv",
               "--ppa-metric", "bogus", "-o", tmp_path / "t.csv") == 2
    assert run("analyze", "--dataset", pipe / "h.csv", "--trend-metric", "nope",
               "--out-dir", tmp_path / "a") == 2
    assert not (tmp_path / "a").exists()
    assert run("train", "--dataset", pipe / "h.csv", "--target", "bogus",
               "-o", tmp_path / "m.fmodel") == 2


def test_train_regressor_without_test_rows(tmp_path, capsys):
    # two records leave the 80/20 split no test rows
    ds, model = tmp_path / "two.csv", tmp_path / "m.fmodel"
    assert run("characterize", "--op", "mul:s4", "--sample", 2, "-o", ds) == 0
    assert run("train", "--dataset", ds, "--target", "pdplut", "--n-trees", 2,
               "-o", model) == 0
    assert "test RMSE n/a (scaled n/a), R2 n/a" in capsys.readouterr().out
    assert model.exists()


def test_exit_code_schema(tmp_path, pipe):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dataset\n1,2,3\n")
    assert run("analyze", "--dataset", bad, "--out-dir", tmp_path / "a") == 3
    assert run("match", "--low", bad, "--high", pipe / "h.csv",
               "-o", tmp_path / "t.csv") == 3
    # initial pool kind must match the searched operator
    assert run("dse", "--train", pipe / "l.csv", "--factor", 0.5,
               "--init", pipe / "pool.csv", "--pop", 8, "--generations", 1,
               "--out-dir", tmp_path / "d") == 3


@pytest.mark.parametrize("run_dir,name,pattern,repl", [
    ("run_ga", "manifest.txt", r"^factor=.*\n", ""),
    ("run_ga", "manifest.txt", r"^b_max=.*\n", ""),
    ("run_ga", "manifest.txt", r"^p_max=.*\n", ""),
    ("run_ga", "manifest.txt", r"^factor=", "factor=x"),
    ("run_ga", "vpf.csv", r"validated=", "validated=x"),
    ("run_conss", "ppf.csv", r"^([01]+,\d+,)[^,]+", r"\1abc"),
    ("run_conss", "ppf.csv", r"^config_bits,config_uint,behav,ppa$",
     "config_bits,config_uint,ppa,behav"),
    ("run_conss", "ppf.csv", r"^([01]+),\d+,", r"\1,12345,"),
    ("run_conss", "ppf.csv", r"^([01]+,\d+,)[^,]+", r"\1-inf"),
], ids=["no-factor", "no-b_max", "no-p_max", "bad-factor", "bad-validated",
        "bad-behav", "bad-header", "uint-mismatch", "non-finite-behav"])
def test_report_bad_run_dir_is_schema_error(pipe, tmp_path, capsys, run_dir, name,
                                            pattern, repl):
    d = tmp_path / run_dir
    shutil.copytree(pipe / run_dir, d)
    text = (d / name).read_text()
    edited = re.sub(pattern, repl, text, count=1, flags=re.M)
    assert edited != text
    (d / name).write_text(edited)
    assert run("report", "--train", pipe / "h.csv", "--run", f"x={d}",
               "--factors", "0.7", "-o", tmp_path / "r.csv") == 3
    assert name in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_exit_code_capacity(tmp_path):
    assert run("characterize", "--op", "mul:s8", "-o", tmp_path / "x.csv") == 4


def test_supersample_enumerate_guard(tmp_path, capsys):
    # a classifier trained on sampled patterns still refuses to enumerate
    # 2^13 noise patterns per seed at supersampling time
    l, h, t, clf = (tmp_path / n for n in ("l.csv", "h.csv", "t.csv", "clf.fmodel"))
    assert run("characterize", "--op", "adder:u4", "-o", l) == 0
    assert run("characterize", "--op", "adder:u6", "-o", h) == 0
    assert run("match", "--low", l, "--high", h, "--n-noise", 13,
               "--noise-mode", "sample:2", "-o", t) == 0
    assert run("train", "--training", t, "--n-trees", 4, "-o", clf) == 0
    assert run("supersample", "--model", clf, "--low", l, "--factor", 1.0,
               "-o", tmp_path / "pool.csv") == 4
    assert "2^13" in capsys.readouterr().err
    assert not (tmp_path / "pool.csv").exists()


def test_configs_wider_than_int64_run_every_stage(tmp_path):
    # mul:s12 configs are 78 bits wide
    d = tmp_path
    small = ("--sample", 12, "--behav-samples", 256, "--activity-cycles", 64)
    assert run("characterize", "--op", "mul:s10", *small, "-o", d / "l.csv") == 0
    assert run("characterize", "--op", "mul:s12", *small, "-o", d / "h.csv") == 0
    assert run("analyze", "--dataset", d / "h.csv", "--low", d / "l.csv",
               "--out-dir", d / "analysis") == 0
    assert run("match", "--low", d / "l.csv", "--high", d / "h.csv", "-o", d / "t.csv") == 0
    assert run("train", "--training", d / "t.csv", "--n-trees", 4, "-o", d / "clf.fmodel") == 0
    assert run("supersample", "--model", d / "clf.fmodel", "--low", d / "l.csv",
               "--factor", 1.0, "-o", d / "pool.csv") == 0
    assert run("dse", "--train", d / "h.csv", "--factor", 1.0, "--init", d / "pool.csv",
               "--pop", 4, "--generations", 2, "--behav-samples", 256, "--validate",
               "--out-dir", d / "run") == 0
    assert run("report", "--train", d / "h.csv", "--run", f"conss={d / 'run'}",
               "--factors", 1.0, "-o", d / "report.csv") == 0
    ppf = (d / "run" / "ppf.csv").read_text().splitlines()[2:]
    assert ppf and max(int(ln.split(",")[1]) for ln in ppf) >= 2**63


def test_characterize_thread_invariance(pipe, tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert run("characterize", "--op", "adder:u8", "--sample", 40,
               "--threads", 1, "-o", a) == 0
    assert run("characterize", "--op", "adder:u8", "--sample", 40,
               "--threads", 4, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dse_rerun_byte_identical(pipe, tmp_path):
    args = ("dse", "--train", pipe / "h.csv", "--factor", 0.7, "--pop", 10,
            "--generations", 3, "--estimators",
            f"{pipe / 'be.fmodel'},{pipe / 'pe.fmodel'}")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(*args, "--threads", 1, "--out-dir", d1) == 0
    assert run(*args, "--threads", 4, "--out-dir", d2) == 0
    for name in ("manifest.txt", "progress.csv", "ppf.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_version_and_help():
    with pytest.raises(SystemExit) as e:
        run("--version")
    assert e.value.code == 0


def test_dse_proxy_fitness_batches_like_single_configs(pipe, tmp_path, monkeypatch):
    from axokit import cli

    args = ("dse", "--train", pipe / "h.csv", "--factor", 0.7, "--pop", 10,
            "--generations", 3, "--behav-samples", 2048, "--validate",
            "--known", pipe / "h.csv")
    batched, single = tmp_path / "batched", tmp_path / "single"
    assert run(*args, "--out-dir", batched) == 0
    make = cli._proxy_fitness

    def one_config_per_call(*a, **k):
        fitness = make(*a, **k)

        def per_row(bits):
            parts = [fitness(bits[i:i + 1]) for i in range(len(bits))]
            return (np.concatenate([b for b, _ in parts]),
                    np.concatenate([p for _, p in parts]))

        return per_row

    monkeypatch.setattr(cli, "_proxy_fitness", one_config_per_call)
    assert run(*args, "--out-dir", single) == 0
    names = sorted(p.name for p in batched.iterdir())
    assert names == sorted(p.name for p in single.iterdir())
    assert "vpf.csv" in names
    for name in names:
        assert (batched / name).read_bytes() == (single / name).read_bytes(), name


def test_dse_pool_predictions_follow_the_search_metrics(pipe, tmp_path):
    est = f"{pipe / 'be.fmodel'},{pipe / 'pe.fmodel'}"
    same = ("--behav-metric", "pdplut", "--ppa-metric", "pdplut")
    pool = tmp_path / "pool.csv"
    assert run("supersample", "--model", pipe / "clf.fmodel", "--low", pipe / "l.csv",
               "--factor", 0.6, "--estimators", est, *same, "-o", pool) == 0
    dse = ("dse", "--train", pipe / "h.csv", "--factor", 0.7, "--pop", 2,
           "--generations", 1, "--init", pool, "--estimators", est)
    # a pool predicted for one metric seeds a search on that metric twice
    assert run(*dse, *same, "--out-dir", tmp_path / "same") == 0
    # and cannot seed a search on a metric it has no predictions for
    assert run(*dse, "--out-dir", tmp_path / "other") == 3
