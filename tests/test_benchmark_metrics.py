"""The per-layer metrics that the benchmark expects of a workload fire on a small run.

This test reads benchmark code, ``perfbench/spans.py`` (the tracer) and
``perfbench/workloads.py`` (the table of metrics each workload must move),
and changes neither.  A traced benchmark run fails a workload when one of
its metrics never fires; a change that, say, makes the posterior's cadence
refactor unreachable at the workload's horizon, or builds covers without
calling ``greedy_cover`` by name, fails here first.  Each workload's job
runs as the benchmark runs it, on small inputs.
"""

import pathlib
import sys

import numpy as np

from chainopt import ExperimentConfig, harness, make_grid

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_replicates_workload_metrics_all_fire(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    import workloads

    # t_max=70 passes the refactor cadence of 64 updates once
    out = tmp_path / "out"
    cfg = ExperimentConfig(space="grid:dim=1,per_dim=16", kernel="se:ls=0.2", t_max=70,
                           replicates=2, out_dir=str(out))
    tracer = spans.Tracer()
    with tracer.active():
        harness.run_experiment(cfg)
    fired = tracer.fired()
    if any(out.iterdir()):                  # as the benchmark's run.py counts written files
        fired |= {"harness.files_written", "harness.bytes_written"}
    expected = {m for moved in workloads.MOVES["replicates-grid64"].values() for m in moved}
    assert sorted(expected - fired) == []


def _fired(monkeypatch, tmp_path, workload, inputs, **constants):
    """The metrics that fire when the workload's job runs traced on ``inputs``, and its result.

    ``constants`` shrinks the job through the workload module's own settings.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    import workloads

    for name, value in constants.items():
        monkeypatch.setattr(workloads, name, value)
    out = tmp_path / "out"
    out.mkdir()
    tracer = spans.Tracer()
    res = workloads.run_job(workload, inputs, str(out), tracer.active)
    fired = tracer.fired()
    if any(out.iterdir()):
        fired |= {"harness.files_written", "harness.bytes_written"}
    expected = {m for moved in workloads.MOVES[workload].values() for m in moved}
    return sorted(expected - fired), res, tracer


def test_optimize_workload_metrics_all_fire(tmp_path, monkeypatch):
    # a 16 x 16 grid; t_max=70 passes the refactor cadence of 64 updates once
    missing, res, _ = _fired(monkeypatch, tmp_path, "optimize-grid4096",
                             {"coords": make_grid(2, 16), "prior_seed": [1, 0],
                              "loop_seed": [1, 1]}, OPT_T=70)
    assert missing == []
    assert res.errors == []


def test_tree_cloud_workload_metrics_all_fire(tmp_path, monkeypatch):
    # 400 distinct sites of a 64 x 64 lattice, as the workload draws its 4096
    rng = np.random.default_rng(3)
    sites = rng.choice(64 * 64, size=400, replace=False)
    coords = np.stack([sites // 64, sites % 64], axis=1) / 63.0
    missing, res, tracer = _fired(monkeypatch, tmp_path, "tree-cloud4096", {"coords": coords})
    assert missing == []
    assert res.errors == []
    assert tracer.tree == res.counts


def test_validate_mix_workload_metrics_all_fire(tmp_path, monkeypatch):
    missing, _, _ = _fired(monkeypatch, tmp_path, "validate-mix",
                           {"upper_seed": 1, "lower_seed": 2, "lemma_seed": 3},
                           UPPER_TRIALS=200, LOWER_TRIALS=20, LEMMA_DRAWS=2000,
                           SETUP_SAMPLE_S=0.0)
    assert missing == []
