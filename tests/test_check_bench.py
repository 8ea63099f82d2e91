"""The benchmark trajectory gate (tools/check_bench.py).

The same check runs in CI's ``bench-smoke`` job; keeping it in the
tier-1 suite means a ``BENCH_<pr>.json`` whose sides did different work,
or whose numbers regress past a bound, fails locally too -- and the
checker itself is shown able to fail.
"""

import copy
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

BENCHMARK = {
    "workloads": [{"name": "fast"}, {"name": "heavy"}],
    "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "exec.pool_us_per_unit", "better": "lower"}],
}


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, work_per_s, setup_s=0.3, ledger=None):
    return {
        "workload": workload,
        "ledger": ledger if ledger is not None else {"bytes": 7},
        "metrics": {
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def paired(parent=(90.0, 100.0, 110.0), change=(480.0, 500.0, 520.0),
           pairs=10, wins=10, better="higher"):
    """One ``paired_summary`` entry: quartiles of each side, the count
    of pairs and how many the change won."""
    quartiles = lambda q: dict(zip(("q1", "median", "q3"), q))
    return {
        "pairs": pairs, f"change_{better}": wins,
        "parent": quartiles(parent), "change": quartiles(change),
    }


def bench():
    return {
        "claim": {"workload": "fast", "metric": "work_per_s"},
        "paired_summary": {"fast seed 1": paired()},
        "parent": {"runs": [run("fast", 100.0), run("heavy", 40.0)]},
        "change": {"runs": [run("fast", 500.0), run("heavy", 38.0)]},
    }


class TestProblems:
    def test_a_sound_file_has_none(self):
        assert load_checker().problems(bench(), BENCHMARK) == []

    def test_a_per_layer_metric_may_be_claimed(self):
        data = bench()
        data["claim"]["metric"] = "exec.pool_us_per_unit"
        data["paired_summary"]["fast seed 1"] = paired(
            parent=(9.0, 10.0, 11.0), change=(4.0, 5.0, 6.0), better="lower",
        )
        assert load_checker().problems(data, BENCHMARK) == []

    def test_the_claim_must_name_declared_things(self):
        data = bench()
        data["claim"] = {"workload": "nope", "metric": "speed"}
        found = load_checker().problems(data, BENCHMARK)
        assert len(found) == 2
        assert "'nope'" in found[0] and "'speed'" in found[1]
        del data["claim"]
        assert len(load_checker().problems(data, BENCHMARK)) == 2

    def test_ledgers_must_be_equal(self):
        data = bench()
        data["change"]["runs"][1]["ledger"] = {"bytes": 8}
        (line,) = load_checker().problems(data, BENCHMARK)
        assert line.startswith("heavy: ledger differs")

    def test_a_ledger_entry_named_as_moved_may_differ(self):
        data = bench()
        data["change"]["runs"][1]["ledger"] = {"bytes": 8, "crc": 1}
        data["parent"]["runs"][1]["ledger"] = {"bytes": 7, "crc": 1}
        data["ledger_moves"] = {"heavy": ["bytes"]}
        assert load_checker().problems(data, BENCHMARK) == []
        # Only the named entry, and only on the named workload.
        data["change"]["runs"][1]["ledger"]["crc"] = 2
        (line,) = load_checker().problems(data, BENCHMARK)
        assert line.startswith("heavy: ledger differs")
        data["change"]["runs"][1]["ledger"]["crc"] = 1
        data["ledger_moves"] = {"fast": ["bytes"]}
        (line,) = load_checker().problems(data, BENCHMARK)
        assert line.startswith("heavy: ledger differs")

    def test_a_regression_past_the_bound_fails_either_direction(self):
        data = bench()
        data["change"]["runs"][1] = run("heavy", 29.0, setup_s=0.5)
        found = load_checker().problems(data, BENCHMARK)
        assert [line.split(":")[1].split()[0] for line in found] == [
            "work_per_s", "setup_s",
        ]
        # Inside the bound is not a finding, whichever side of it.
        data["change"]["runs"][1] = run("heavy", 31.0, setup_s=0.37)
        assert load_checker().problems(data, BENCHMARK) == []

    def test_a_workload_missing_on_one_side_fails(self):
        data = bench()
        del data["change"]["runs"][0]
        (line,) = load_checker().problems(data, BENCHMARK)
        assert line == "fast: not measured on both sides"


class TestPairedRule:
    """The claim must hold by the README's paired rule on some seed."""

    def found(self, *entries, metric="work_per_s"):
        data = bench()
        data["claim"]["metric"] = metric
        data["paired_summary"] = {
            f"fast seed {seed}": entry for seed, entry in enumerate(entries)
        }
        data["paired_summary"]["heavy seed 1"] = paired()  # not claimed
        return load_checker().problems(data, BENCHMARK)

    def test_a_claim_without_pairs_fails(self):
        data = bench()
        del data["paired_summary"]
        (line,) = load_checker().problems(data, BENCHMARK)
        assert line == (
            "fast: the claim has no paired_summary entry 'fast seed S'"
        )

    def test_ten_pairs_nine_won_is_the_floor(self):
        assert self.found(paired(pairs=10, wins=9)) == []
        assert self.found(paired(pairs=20, wins=18)) == []
        (line,) = self.found(paired(pairs=9, wins=9))
        assert line.endswith("9 pairs, fewer than 10")
        (line,) = self.found(paired(pairs=10, wins=8))
        assert line.endswith(
            "change higher in 8 of 10 pairs, fewer than 9 in 10"
        )

    def test_the_medians_must_clear_the_parents_spread(self):
        # Parent q3 - q1 = 20: a gap of exactly 20 is not enough.
        (line,) = self.found(paired(change=(115.0, 120.0, 125.0)))
        assert "not apart by more than the parent's q3 - q1 (20)" in line
        assert self.found(paired(change=(115.0, 120.5, 125.0))) == []

    def test_the_better_direction_is_the_metrics(self):
        faster = paired(parent=(9.0, 10.0, 11.0), change=(4.0, 5.0, 6.0),
                        better="lower")
        assert self.found(faster, metric="exec.pool_us_per_unit") == []
        # Counted the other way round, the same numbers are a loss.
        slower = paired(parent=(4.0, 5.0, 6.0), change=(9.0, 10.0, 11.0),
                        better="lower")
        (line,) = self.found(slower, metric="exec.pool_us_per_unit")
        assert "in the better direction" in line
        # Wins are read under the key of that direction.
        (line,) = self.found(paired(), metric="exec.pool_us_per_unit")
        assert "malformed" in line and "change_lower" in line

    def test_one_seed_that_holds_is_enough(self):
        assert self.found(paired(pairs=4, wins=4), paired()) == []
        found = self.found(paired(pairs=4, wins=4), paired(wins=7))
        assert [line.split(":")[0] for line in found] == [
            "fast seed 0", "fast seed 1",
        ]

    def test_the_committed_claims_pass(self):
        """BENCH_20 to BENCH_23 were made by this rule before it was
        checked here; each passes it."""
        checker = load_checker()
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for number in (20, 21, 22, 23):
            path = REPO_ROOT / f"BENCH_{number}.json"
            assert checker.problems(
                json.loads(path.read_text()), benchmark
            ) == [], path.name


class TestNewest:
    def test_the_highest_pr_number_wins(self, tmp_path):
        for number in (9, 16, 100):
            (tmp_path / f"BENCH_{number}.json").write_text("{}")
        (tmp_path / "BENCH_notes.json").write_text("{}")
        checker = load_checker()
        assert checker.newest_bench(tmp_path).name == "BENCH_100.json"
        assert checker.newest_bench(tmp_path / "nowhere") is None

    def test_the_committed_trajectory_passes(self, capsys):
        checker = load_checker()
        assert checker.main([]) == 0
        assert "bench ok" in capsys.readouterr().out

    def test_the_cli_fails_on_a_bad_file(self, tmp_path, capsys):
        newest = json.loads(load_checker().newest_bench().read_text())
        bad = copy.deepcopy(newest)
        bad["change"]["runs"][0]["ledger"] = {"tampered": 1}
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps(bad))
        assert load_checker().main([str(path)]) == 1
        assert "ledger differs" in capsys.readouterr().out
