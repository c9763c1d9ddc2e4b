"""The bench harness (`scripts/bench.py`): its entries against the committed
BENCH files, README's command line for each layer, merging a run into a
BENCH file, the import guard, the exit rule for commands, and one call per
call layer through a worker process."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("layer", list(bench.ENTRIES))
def test_entries_are_those_of_the_latest_committed_run(layer):
    doc = json.loads((ROOT / f"BENCH_{layer}.json").read_text())
    latest = list(doc["runs"].values())[-1]
    assert list(latest["timings_ms"]) == list(bench.ENTRIES[layer])


@pytest.mark.parametrize("layer", list(bench.ENTRIES))
def test_readme_names_every_layer(layer):
    assert f"--layer {layer} " in (ROOT / "README.md").read_text()


def test_merge_keeps_earlier_runs_and_refuses_a_reused_label(tmp_path):
    path = tmp_path / "BENCH_battery.json"
    shutil.copy(ROOT / "BENCH_battery.json", path)
    before = json.loads(path.read_text())["runs"]
    new = {"timings_ms": {"frequency": 0.1}, "spread_ms": {"frequency": 0.0}}
    bench.merge(path, "battery", {"new": new})

    doc = json.loads(path.read_text())
    assert list(doc["runs"]) == [*before, "new"]
    for label, run in before.items():
        assert json.dumps(doc["runs"][label]) == json.dumps(run)
    assert doc["runs"]["new"] == new
    assert doc["what"] == bench.HEADERS["battery"]["what"]

    text = path.read_text()
    for reused in ("new", next(iter(before))):
        with pytest.raises(ValueError, match="already has runs labelled"):
            bench.merge(path, "battery", {reused: new})
    assert path.read_text() == text


def test_import_guard_refuses_a_child_that_imports_another_tree(tmp_path):
    src = ROOT / "src"
    env = bench.tree_env(src)
    assert bench.check_import(src, env, tmp_path)  # numpy's version
    with pytest.raises(SystemExit, match="did not import ciprng from it"):
        bench.check_import(tmp_path / "src", env, tmp_path)


def test_only_ciprng_test_may_exit_1(tmp_path):
    # run_command in a bare interpreter, as in the harness: a child's peak
    # RSS would read no less than this test process's own
    run = "import sys, bench; print(*bench.run_command([(sys.argv[1:], '.')], bench.tree_env(bench.ROOT / 'src')))"
    env = bench.tree_env(ROOT / "src")

    def harness(*argv):
        return subprocess.run([sys.executable, "-c", run, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    failed = harness(sys.executable, "-c", "raise SystemExit(1)")
    assert failed.returncode == 1 and "exited with 1" in failed.stderr
    (tmp_path / "zeros.bin").write_bytes(bytes(16384))  # fails the battery: exit 1
    tested = harness(*bench.CIPRNG, "test", "zeros.bin", "--stream-format", "raw")
    assert tested.returncode == 0, tested.stderr
    ms, mib = map(float, tested.stdout.split())
    assert ms > 0 and mib > 0
    # `verify` exits 1 on a function that is not balanced or not chaotic,
    # a verdict like a failed battery test
    (tmp_path / "constant.fn").write_text("2\n3 3 3 3\n")
    verified = harness(*bench.CIPRNG, "verify", "constant.fn", "--porcelain")
    assert verified.returncode == 0, verified.stderr


def test_a_child_peak_rss_at_the_harness_own_is_refused(tmp_path):
    bare = [sys.executable, "-c", "pass"]
    with pytest.raises(SystemExit, match="no more peak RSS than the harness"):
        bench.run_command([(bare, tmp_path)], bench.tree_env(ROOT / "src"))


@pytest.mark.parametrize(
    "layer, name",
    [
        ("draws", "words(407)"),
        ("kernel", "negation(16)"),
        ("kernel", "bit_stream(N=4, variant)"),
        ("kernel", "byte_stream(N=12, variant)"),
        ("kernel", "states(N=16, dense)"),
        ("battery", "frequency"),
        ("battery", bench.RAGGED_BATTERY),
        ("verify", "is_strongly_connected(random(12))"),
        ("verify", "is_balanced(variant(16))"),
        ("search", "search_functions(4, 8, require_chaos=True)"),
    ],
)
def test_one_call_per_layer_through_the_worker(layer, name, tmp_path):
    ms, mib = bench.time_in_worker(bench.tree_env(ROOT / "src"), tmp_path, layer, name)
    assert ms > 0 and mib >= 0
