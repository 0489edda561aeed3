import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_wins_count_each_pair_in_the_metrics_direction_and_skip_missing_runs():
    base, other = [1.0, 1.0, 1.0, 1.0, None], [0.9, 1.1, 1.0, 0.8, 0.5]
    lower = ab.compare(base, other, "lower", 0.5)
    assert (lower["pairs"], lower["wins"], lower["losses"], lower["ties"]) == (4, 2, 1, 1)
    higher = ab.compare(base, other, "higher", 0.5)
    assert (higher["wins"], higher["losses"]) == (1, 2)


@pytest.mark.parametrize("base, other, verdict", [
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "within_bound"),
    # The base's own runs spread wider than the bound, so no median change can be read.
    ([0.5, 1.0, 1.0, 1.5], [1.1, 1.1, 1.1, 1.1], "unresolved"),
    # ... unless every run of the other side is better than every base run.
    ([0.8, 1.0, 1.0, 1.2], [0.5, 0.5, 0.5, 0.5], "within_bound"),
])
def test_verdict_under_the_bound(base, other, verdict):
    assert ab.compare(base, other, "lower", 0.25)["verdict"] == verdict


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_base_iqr():
    base = [1.0 + 0.01 * i for i in range(10)]
    assert ab.compare(base, [b - 0.2 for b in base], "lower", 0.25)["gain"]
    assert not ab.compare(base, [b - 0.02 for b in base], "lower", 0.25)["gain"]
    eight_of_ten = [b - 0.2 for b in base[:8]] + [b + 0.2 for b in base[8:]]
    assert not ab.compare(base, eight_of_ten, "lower", 0.25)["gain"]


def test_a_gain_must_also_clear_the_control():
    base = [1.0 + 0.01 * i for i in range(10)]
    faster = [b - 0.2 for b in base]
    # The control, a second copy of the base, reads as fast as the head: the gap
    # comes from the copy or the run order, not from the head's code.
    judged = ab.judge({"base": base, "head": faster, "control": faster}, "lower", 0.25)
    assert judged["head_vs_base"]["gain"] and judged["control_vs_base"]["gain"]
    assert not judged["gain"]
    judged = ab.judge({"base": base, "head": faster, "control": base[::-1]}, "lower", 0.25)
    assert judged["gain"]


def test_worse_must_also_hold_against_the_control():
    base = [1.0 + 0.01 * i for i in range(10)]
    slower = [b + 0.5 for b in base]
    # The control reads as slow as the head: the gap comes from the copy or the
    # run order, not from the head's code.
    judged = ab.judge({"base": base, "head": slower, "control": slower}, "lower", 0.25)
    assert judged["head_vs_base"]["verdict"] == "worse"
    assert not judged["worse"]
    judged = ab.judge({"base": base, "head": slower, "control": base[::-1]}, "lower", 0.25)
    assert judged["worse"] and not judged["gain"]


def test_the_seed_reaches_every_bench_run(monkeypatch, tmp_path):
    commands = []

    class Done:
        returncode, stdout, stderr = 0, '{"correct": true, "metrics": {}}', ""

    monkeypatch.setattr(ab.subprocess, "run", lambda command, **_: commands.append(command) or Done)
    ab.run_bench(tmp_path, "desk-dfedavg-labelskew", 0.0, 23)
    ab.run_bench(tmp_path, "desk-dfedavg-labelskew", 0.0, None)
    assert commands[0][-2:] == ["--seed", "23"] and "--seed" not in commands[1]


def test_a_gain_reads_in_the_metrics_direction():
    base = [1.0 + 0.01 * i for i in range(10)]
    higher = [b + 0.2 for b in base]
    assert not ab.compare(base, higher, "lower", 0.25)["gain"]
    assert ab.compare(base, higher, "higher", 0.25)["gain"]


def test_every_side_runs_first_second_and_last_equally_often_over_six_pairs():
    for side in ab.SIDES:
        slots = sorted(order.index(side) for order in ab.ORDERS)
        assert slots == [0, 0, 1, 1, 2, 2]
    assert len(set(ab.ORDERS)) == 6


def test_the_benchmark_digest_covers_bench_and_benchmark_json_only(tmp_path):
    def tree(name, bench_text="print()", benchmark_text="{}"):
        (tmp_path / name / "bench" / "reference").mkdir(parents=True)
        (tmp_path / name / "bench" / "reference" / "run.py").write_text(bench_text)
        (tmp_path / name / "BENCHMARK.json").write_text(benchmark_text)
        (tmp_path / name / "README.md").write_text(name)
        return tmp_path / name

    digest = ab.benchmark_digest(tree("a"))
    assert ab.benchmark_digest(tree("b")) == digest
    assert ab.benchmark_digest(tree("c", bench_text="print(1)")) != digest
    assert ab.benchmark_digest(tree("d", benchmark_text="[]")) != digest
    moved = tree("e")
    (moved / "bench" / "reference" / "run.py").rename(moved / "bench" / "run.py")
    assert ab.benchmark_digest(moved) != digest


def test_no_gain_reads_when_the_head_runs_other_benchmark_code(monkeypatch, tmp_path, capsys):
    # The head reads faster in every pair, by far more than the base's spread, but
    # it runs its own bench/: its numbers cannot be set against the base's.
    def export(rev, dest):
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text(f"# {rev}")
        (dest / "BENCHMARK.json").write_text("{}")
        return rev

    def run_bench(tree, workload, seconds, seed):
        value = 0.5 if tree.name == "head" else 1.0
        return {"exit": 0, "correct": True, "notes": [],
                "metrics": {"run_s": value, "setup_s": value, "peak_rss_mb": value,
                            "mean_acc": 0.5, "acc_var_points": value}}

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "fingerprint", lambda tree: "f")
    monkeypatch.setattr(ab, "run_bench", run_bench)
    out = tmp_path / "ab.json"
    args = ["--base", "base-rev", "--head", "head-rev", "--pairs", "10", "--seconds", "0",
            "--workload", "desk-dfedavg-labelskew", "--out", str(out)]
    assert ab.main(args) == 0
    doc = json.loads(out.read_text())
    sides = doc["sides"]
    assert sides["base"]["benchmark_sha256"] == sides["control"]["benchmark_sha256"]
    assert sides["base"]["benchmark_sha256"] != sides["head"]["benchmark_sha256"]
    assert doc["same_benchmark"] is False
    run_s = doc["workloads"]["desk-dfedavg-labelskew"]["metrics"]["run_s"]
    assert run_s["head_vs_base"]["gain"] and run_s["head_vs_control"]["gain"]
    assert not any(m["gain"] for m in doc["workloads"]["desk-dfedavg-labelskew"]["metrics"].values())
    assert "a gain must be measured by identical benchmark code" in capsys.readouterr().out

    # The same runs on one benchmark read the gain.
    monkeypatch.setattr(ab, "export", lambda rev, dest: export("same", dest))
    assert ab.main(args) == 0
    doc = json.loads(out.read_text())
    assert doc["same_benchmark"] is True
    assert doc["workloads"]["desk-dfedavg-labelskew"]["metrics"]["run_s"]["gain"]
    assert "identical benchmark code" not in capsys.readouterr().out
