"""The per-layer metrics that the benchmark expects of a workload fire on a small run.

This test reads benchmark code, ``perfbench/spans.py`` (the tracer) and
``perfbench/workloads.py`` (the table of metrics each workload must move),
and changes neither.  A traced benchmark run fails a workload when one of
its metrics never fires; a change that, say, makes the posterior's cadence
refactor unreachable at the workload's horizon fails here first.
"""

import pathlib
import sys

from chainopt import ExperimentConfig, harness

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
