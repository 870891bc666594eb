"""Self-tests of the benchmark: exact work counts, legal updates, refusal.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_counts.py

``test_counts_repeat_across_hash_seeds`` runs every workload twice with a
fixed number of operations under different ``PYTHONHASHSEED`` values and
requires the client thread's per-layer counts (completions, rule
applications, checks, lattice walks, cache gets, replica round trips,
WAL appends and bytes, ...) to be identical.  Counts recorded on
background threads -- the primary's flush worker, whose epoch coalescing
depends on thread timing -- are printed with their spread instead.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Operations per workload: enough to reach every layer the workload uses.
OPS = {"match-fresh": 40, "fleet-read": 400, "commit-catchup": 64}


def _traced_run(workload: str, hash_seed: str, cwd: str = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--ops",
            str(OPS[workload]),
            "--trace",
            "1",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=600,
    )


#: How each check was resolved is not a work count: the first check of a
#: query that needs its memoized profile pays the completion, and which
#: check comes first follows the lattice frontier, whose nodes sit in
#: identity-hashed sets.  The totals (checks, completions) must repeat.
ATTRIBUTIONS = {"checker.memo", "checker.shortcut", "checker.completion", "checker.remote"}


def _counts(output: str):
    for line in output.splitlines():
        if line.strip().startswith("counts: "):
            counts = json.loads(line.strip()[len("counts: ") :])
            return {name: value for name, value in counts.items() if name not in ATTRIBUTIONS}
    raise AssertionError("no counts line in the report")


@pytest.mark.parametrize("workload", sorted(OPS))
def test_counts_repeat_across_hash_seeds(workload):
    first = _traced_run(workload, "0")
    second = _traced_run(workload, "1")
    for result in (first, second):
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        assert json.loads(result.stdout.strip().splitlines()[-1])["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]}
    reported = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]
    assert {name: metric["unit"] for name, metric in reported.items()} == declared
    counts_first, counts_second = _counts(first.stdout), _counts(second.stdout)
    assert counts_first, "the traced run recorded no client-thread counts"
    assert counts_first == counts_second
    background = {}
    for result in (first, second):
        metrics = json.loads(result.stdout.strip().splitlines()[-1])["metrics"]
        for name in ("maintenance.coalesced_share", "query_eval.calls", "store.export_calls"):
            background.setdefault(name, []).append(metrics[name]["value"])
    print(f"{workload}: threaded counts under hash seeds 0/1: {background}")


def test_legal_epochs_keep_every_state_legal():
    from repro.database.store import DatabaseState
    from repro.dl.abstraction import schema_to_sl
    from repro.workloads import generate_trading_state, trading_dl_schema
    from repro.workloads.driver import apply_update
    from updates import legal_epochs

    schema = schema_to_sl(trading_dl_schema())
    snapshot = generate_trading_state(seed=3).snapshot()
    epochs = legal_epochs(schema, snapshot, 120, 8, seed=3)
    assert all(len(epoch) == 8 for epoch in epochs)
    assert {op[0] for epoch in epochs for op in epoch} == {
        "add",
        "assert",
        "retract",
        "set",
        "unset",
        "remove",
    }
    state = DatabaseState.from_snapshot(snapshot)
    for epoch in epochs:
        with state.batch():
            for op in epoch:
                apply_update(state, op)
        assert not state.integrity_violations()
    assert epochs == legal_epochs(schema, snapshot, 120, 8, seed=3)


def _recorded(tracer, body, primary=None):
    """Run ``body`` inside one traced query operation of the timed phase."""
    tracer.install()
    try:
        tracer.begin_phase({"primary": primary})
        tracer.begin_operation(0, True)
        with tracer.operation("query"):
            body()
        tracer.end_operation()
        tracer.end_phase({})
    finally:
        tracer.uninstall()
    aggregates, _ = tracer._merged()
    return {name: aggregate for (phase, name, _), aggregate in aggregates.items() if phase == "run"}


def test_nested_normalization_is_counted_once():
    from repro.concepts import normalize
    from repro.workloads import trading_concepts
    from tracer import Tracer

    concepts = list(trading_concepts().values())

    def body():
        normalize.clear_normalize_memo()
        for concept in concepts:
            normalize.normalize_concept(concept)

    spans = _recorded(Tracer(), body)
    # A memo miss recurses through the wrapped module attribute; only the
    # outermost calls count, and their time lies within the calling span.
    assert spans["concepts.normalize"].count == len(concepts)
    assert spans["concepts.normalize"].total_ns <= spans["operation.query"].total_ns
    assert spans["operation.query"].self_ns >= 0


def test_only_the_primary_commits_count_as_store_batches():
    from repro.database.store import DatabaseState
    from tracer import Tracer

    primary, replica = DatabaseState(), DatabaseState()

    def body():
        with primary.batch():
            primary.add_object("o1", "Customer")
        with replica.batch():
            replica.add_object("o1", "Customer")

    spans = _recorded(Tracer(), body, primary)
    assert spans["store.batch"].count == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
