"""Tests of the benchmark itself: tracer, self-time arithmetic, digests.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from tracer import PACKAGE, Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bindings(pkg):
    """Every module-level name of the package, and ExactMatrix's attributes."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == PACKAGE or key.startswith(PACKAGE + "."):
            for name, value in vars(mod).items():
                out[(key, name)] = value
    for name, value in vars(pkg.exact_linalg.ExactMatrix).items():
        out[("ExactMatrix", name)] = value
    return out


def test_tracer_patches_every_import_site_and_restores_it():
    pkg = run.load_package()
    mods = {name: sys.modules["%s.%s" % (PACKAGE, name)]
            for name in ("classify", "moment", "orbit_model", "rep_theory", "exact_linalg")}
    before = _bindings(pkg)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        sites = [
            (mods["classify"], "inverse"), (mods["classify"], "rank"),
            (mods["moment"], "inverse"), (mods["moment"], "classify"),
            (mods["moment"], "stabilizer_dim"), (mods["orbit_model"], "jordan_structure"),
            (mods["rep_theory"], "symbolic_image"), (mods["rep_theory"], "dense_selection"),
            (mods["exact_linalg"], "rank"), (pkg, "oracle_image"),
        ]
        for mod, name in sites:
            assert getattr(mod, name) is not before[(mod.__name__, name)], (mod, name)
            assert getattr(mod, name).__wrapped__ is before[(mod.__name__, name)]
        assert pkg.exact_linalg.ExactMatrix.__mul__ is not before[("ExactMatrix", "__mul__")]
    finally:
        tracer.uninstall()
    after = _bindings(pkg)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_spans_nest_through_import_sites():
    pkg = run.load_package()
    orbit = pkg.orbit_from_json({"field": "R", "classes": [
        {"re": "1", "partition": [2, 1]}, {"re": "0", "im": "1", "partition": [1]}]})
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = 7
        for sel in pkg.enumerate_selections(orbit):
            assert pkg.oracle_image(orbit, sel) == pkg.symbolic_image(orbit, sel)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    for name in ("moment.oracle_image", "enumeration.selection_conjugator",
                 "orbit_model.realize_orbit", "exact_linalg.mul", "exact_linalg.inverse",
                 "classify.classify", "orbit_model.orbit_from_matrix",
                 "exact_linalg.jordan_structure", "exact_linalg.rank"):
        assert name in names, name
    for name, parent, item, start, end, tare in tracer.spans:
        assert item == 7 and start <= end and tare >= 0
        if name == "exact_linalg.jordan_structure":
            assert tracer.spans[parent][0] == "orbit_model.orbit_from_matrix"
    metrics = tracer.layer_metrics(1.0, 0.0)
    assert metrics["exact_linalg.jordan_structure.rank_calls"]["value"] > 0
    assert metrics["exact_linalg.rank.nonreal_calls"]["value"] > 0
    assert 0 < metrics["exact_linalg.jordan_structure.hit_ratio"]["value"] <= 1


def test_an_exception_counts_once_in_the_layer_that_raised_it():
    pkg = run.load_package()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            pkg.inverse(pkg.ExactMatrix.zeros(2, 2))
        with pytest.raises(pkg.SpectrumMismatch):  # raised in exact_linalg, passes orbit_model
            pkg.orbit_from_matrix(pkg.ExactMatrix.identity(2), "C", [0])
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1.0, 0.0)
    assert metrics["exact_linalg.errors"]["value"] == 2
    assert metrics["orbit_model.errors"]["value"] == 0
    assert metrics["orbit_model.orbit_from_matrix.calls"]["value"] == 1


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ("a", -1, 0, 0.0, 10.0, 0.0),
        ("b", 0, 0, 1.0, 4.0, 0.0),
        ("c", 0, 0, 3.0, 6.0, 0.5),   # overlaps b; its tare starts at 2.5
        ("d", 1, 0, 1.5, 2.0, 0.0),
        ("e", 2, 0, 5.0, 7.0, 0.0),   # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5, 3 - 0.5, 3 - 1, 0.5, 2])
    assert covered([(0, 1), (2, 3), (2.5, 4)], 0.5, 3.5) == pytest.approx(0.5 + 1.5)
    assert covered([], 0, 1) == 0


def test_unattributed_time_closes_the_account():
    tracer = Tracer()
    tracer.spans[:] = [("exact_linalg.rank", -1, 0, 1.0, 3.0, 0.25),
                       ("exact_linalg.mul", 0, 0, 1.5, 2.0, 0.5)]
    metrics = tracer.layer_metrics(5.0, 0.0)
    own = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert own == pytest.approx(2.0 - 0.5)
    assert own + metrics["unattributed_s"]["value"] == pytest.approx(5.0)


def _first_blocks(workload, tracer=None, blocks=3, seed=1):
    pkg = run.load_package()
    if tracer is not None:
        tracer.install()
    try:
        items = run.order(workload.build(pkg, seed))
        limit = blocks * run.block_size(len(items))
        return pkg, items, run.run_items(pkg, workload, items, None, 0, limit=limit,
                                         tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("name", sorted(set(WORKLOADS) - {"geometry_large"}))
def test_traced_and_untraced_runs_give_identical_digests(name):
    reference = json.loads(run.REFERENCE.read_text())[name]
    _, items, plain = _first_blocks(WORKLOADS[name])
    tracer = Tracer()
    _, _, traced = _first_blocks(WORKLOADS[name], tracer)
    assert len(items) == WORKLOADS[name].count == reference["items"]
    assert plain.failed == traced.failed == 0
    assert plain.blocks == traced.blocks
    assert [plain.blocks[b] for b in range(3)] == reference["blocks"][:3]
    assert tracer.spans


def test_conjugation_digests_do_not_depend_on_the_seed():
    _, _, one = _first_blocks(WORKLOADS["conjugation_sweep"], seed=1)
    _, _, two = _first_blocks(WORKLOADS["conjugation_sweep"], seed=2)
    assert one.blocks == two.blocks


def test_a_wrong_verdict_is_a_failure(monkeypatch):
    workload = WORKLOADS["oracle_corpus"]
    pkg = run.load_package()
    real = pkg.symbolic_image

    def off_by_one(orbit, sel):
        datum = real(orbit, sel)
        return type(datum)(datum.depth + 1, datum.a_part)

    monkeypatch.setattr(pkg, "symbolic_image", off_by_one)
    items = run.order(workload.build(pkg, 1))
    reference = json.loads(run.REFERENCE.read_text())["oracle_corpus"]
    result = run.run_items(pkg, workload, items, reference, 0, limit=run.block_size(len(items)))
    assert result.failed == result.attempted > 0
    assert result.failures


def test_a_perturbed_output_fails_its_block_digest():
    workload = WORKLOADS["restriction_corpus"]
    pkg = run.load_package()
    items = run.order(workload.build(pkg, 1))
    size = run.block_size(len(items))
    victim = items[size + 3].key

    def check(item, report):
        ok, out = workload.check(item, report)
        if item.key == victim:
            out = dict(out, restricted=out["attached"], omega=None)
        return ok, out

    reference = json.loads(run.REFERENCE.read_text())["restriction_corpus"]
    result = run.run_items(pkg, workload._replace(check=check), items, reference, 0,
                           limit=3 * size)
    assert result.attempted == 3 * size
    assert result.failed == size  # exactly the block holding the perturbed item


def test_tail_percentile_rule():
    assert run.tail_percentile(3) == 50
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(200) == 95
    assert run.percentile([1, 2, 3], 50) == 2


def test_benchmark_json_names_every_metric_the_runs_print():
    tracer_names = list(Tracer().layer_metrics(1.0, 0.0))
    assert [m["name"] for m in BENCH["per_layer"]] == tracer_names
    r = run.Run(2)
    r.add(0, 0.1, 1.0)
    r.add(1, 0.2, 1.0)
    items = WORKLOADS["geometry_large"].build(run.load_package(), 1)[:2]
    cal = Calibrator()
    cal.samples.append(REFERENCE_S)
    metrics, samples, detail = run.end_to_end(r, items, ([0.5], [0.5]), cal)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(metrics)
    assert {m["unit"] for m in BENCH["end_to_end"]} >= {m["unit"] for m in metrics.values()}
    assert set(samples) == set(metrics)
    assert metrics["items_per_s"]["value"] == pytest.approx(2 / 0.3)
    assert detail["item_ms_p99_percentile"] == 50
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)


def test_calibration_factor_uses_recent_kernel_samples():
    cal = Calibrator()
    cal.times[:] = [0.0, 0.1, 0.2, 0.3, 1.0]
    cal.samples[:] = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S,
                      REFERENCE_S]
    window = calibrate.WINDOW_S
    # samples from t0 - WINDOW_S up to t1, never later ones
    assert cal.factor(0.1 + window, 0.25) == pytest.approx(1 / 2)
    assert cal.factor(0.35 + window, 0.9) == pytest.approx(1 / 4)   # none inside: latest
    assert cal.factor(0.0, 0.05) == pytest.approx(1.0)
    inv = calibrate.kernel()
    m = calibrate._MATRIX
    assert [[sum(m[i][k] * inv[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)] == [[int(i == j) for j in range(6)] for i in range(6)]


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
