"""Tests for the benchmark's own code: workload generation, the correctness
gate, span arithmetic, exact counters and the compare verdicts.

    python3 -m pytest -q perfbench/tests
"""

import json
import itertools

import pytest

import compare
import gate
import run
import tracer
import workloads
from workloads import Point, Stratum, Workload


def _first_rounds(name, seed, k=3):
    return list(itertools.islice(workloads.rounds(workloads.WORKLOADS[name], seed), k))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _first_rounds(name, 11) == _first_rounds(name, 11)
    assert _first_rounds(name, 11) != _first_rounds(name, 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_draw_every_stratum_from_the_digest_universe(name):
    w = workloads.WORKLOADS[name]
    universe = set(workloads.universe())
    digests = gate.load_digests()
    for batch in _first_rounds(name, 3, 4):
        assert len(batch) == sum(s.per_round for s in w.strata)
        for p in batch:
            assert p in universe and p.key in digests


def test_point_expectations():
    assert Point(7, 20, 5).route == "column-conditions"
    assert Point(13, 13, 7).route == "mds-hamming"
    assert Point(13, 16, 9).route == "ec-algebraic"
    assert Point(13, 16, 9).dimension == 9
    assert Point(5, 9, 5).words == 5 ** 6


def test_gate_counts_a_flipped_matrix_entry_as_failed(tmp_path):
    cli = run.fresh_cli()
    digests = gate.load_digests()
    p = Point(7, 20, 5)
    path = tmp_path / "code.json"
    tally = run.Tally()
    run.construct(cli, p, path, digests, tally, timed=True)
    assert (tally.attempted, tally.failed) == (1, 0)

    doc = json.loads(path.read_text(encoding="ascii"))
    row = doc["parity_check"][1]
    row[4] = (row[4] + 1) % p.q
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="ascii")
    problems = gate.check_construct(p, 0, path, digests)
    assert any("sha256" in msg for msg in problems)
    tally.add(None, problems)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_gate_rejects_wrong_exit_and_oracle_disagreement():
    p = Point(5, 9, 5)
    assert gate.check_verify(p, 1, "verification FAILED: condition-1", oracle=False)
    assert gate.check_verify(p, 0, "verified (column-conditions); oracle agrees: pair distance 4", oracle=True)
    assert gate.check_verify(p, 0, "verified (column-conditions); oracle skipped: q^k above cap", oracle=True)
    assert not gate.check_verify(p, 0, "verified (column-conditions); oracle agrees: pair distance 5", oracle=True)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),   # overlaps a: the root's children cover [1, 6]
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 7.0, 12.0, 0, 0),  # runs past its parent: only [7, 10] counts
    ]
    out = tracer.self_times(spans)
    assert out["root"] == pytest.approx((10.0 - 5.0 - 3.0, 10.0, 1))
    assert out["a"] == pytest.approx((2.0, 3.0, 1))
    assert out["b"] == pytest.approx((3.0 + 5.0, 8.0, 2))
    assert out["leaf"] == pytest.approx((1.0, 1.0, 1))


def test_tracer_wraps_names_imported_into_other_modules_and_restores_them():
    run.fresh_cli()
    import sys

    pairmetric, linalg = sys.modules["pairmds.pairmetric"], sys.modules["pairmds.linalg"]
    original = linalg.rank_of_vectors
    assert pairmetric.rank_of_vectors is original
    tr = tracer.Tracer()
    tr.install()
    try:
        assert pairmetric.rank_of_vectors is linalg.rank_of_vectors is not original
        f = sys.modules["pairmds.gf"].field_of_order(7)
        pairmetric.rank_of_vectors(f, [[1, 2], [3, 4]])
        assert [s[0] for s in tr.spans] == ["linalg.rank_of_vectors"]
        assert tr.count("gf.inv") >= 1
    finally:
        tr.uninstall()
    assert pairmetric.rank_of_vectors is original and linalg.rank_of_vectors is original
    assert not tr.missing


def _small_workload(oracle=False):
    if oracle:
        strata = (Stratum("d5", (Point(5, 9, 5),), 1), Stratum("ec", (Point(7, 10, 7),), 1))
    else:
        strata = (
            Stratum("d5", (Point(7, 20, 5), Point(7, 30, 5)), 1),
            Stratum("d6", (Point(7, 30, 6),), 1),
            Stratum("ec", (Point(13, 16, 9), Point(13, 17, 8)), 1),
            Stratum("rs", (Point(13, 13, 7),), 1),
        )
    return Workload("small", "test", strata, (), (), oracle, 1)


@pytest.mark.parametrize("oracle", [False, True])
def test_exact_counters_repeat_across_two_runs_of_one_seed(tmp_path, oracle):
    w = _small_workload(oracle)
    digests = gate.load_digests()
    first = run.run_traced(w, 4, tmp_path, digests)
    second = run.run_traced(w, 4, tmp_path, digests)
    assert first["tally"].failed == 0 and second["tally"].failed == 0
    assert first["counters"] == second["counters"]
    assert first["counters"]["gf.add.calls"] > 0
    if oracle:
        assert first["counters"]["linalg.enumerate_codewords.words"] == Point(5, 9, 5).words + Point(7, 10, 7).words
    else:
        assert first["counters"]["d6._Budget.spend.calls"] > 0
        assert first["counters"]["linalg.rank_of_vectors.calls"] > 0
    assert set(first["metrics"]) == {name for name, _unit in tracer.PER_LAYER}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e == {name: run.METRICS[name] for name in run.GATED}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_speed_probe_scales_each_op_by_the_samples_around_it():
    probe = run.SpeedProbe()
    probe.at = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
    ref = run.SpeedProbe.REFERENCE_S
    probe.samples = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert probe.local_scale(0.05, 0.15) == pytest.approx(1.0)
    assert probe.local_scale(5.0, 5.05) == pytest.approx(0.5)
    # nothing within the window: the three nearest samples decide
    assert probe.local_scale(3.5, 3.6) == pytest.approx(0.5)
    assert probe.scale() == pytest.approx(ref / (1.5 * ref))


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [130.0, 131.0, 129.0], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [100.2, 100.8, 99.9], "lower", 0.1)[0] == "same"
    assert compare.verdict(base, [80.0, 81.0, 79.0], "lower", 0.1)[0] == "better"
    assert compare.verdict(base, [80.0, 81.0, 79.0], "higher", 0.1)[0] == "worse"
    assert compare.verdict([0.0, 0.0], [0.0, 0.1], "lower", 0.0)[0] == "worse"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0)[0] == "same"
