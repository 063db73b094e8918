import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindalign import (
    build_schedule,
    check_feasible,
    closed_form_solution,
    feasible_region,
    group_profile,
    p_upper_3,
    probability_exact,
    schedule_to_dict,
)
from blindalign import counting, scheduler, signaling
from blindalign.cli import main
from helpers import (
    TAMPERINGS,
    compositions,
    enumeration_count,
    frozen_user_draw,
    huge_n_small_slots_doc,
    random_feasible_config,
    tamper_schedule,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_feasible_instance(self, capsys):
        code, out, _ = run(capsys, "check", "--N", "4", "--offsets", "0,1,2")
        assert code == 0
        assert "feasible: true" in out
        assert "lambda" in out

    def test_infeasible_duplicate_offsets(self, capsys):
        code, out, _ = run(capsys, "check", "--N", "8", "--offsets", "0,3,3")
        assert code == 0
        assert "feasible: false" in out

    def test_fail_on_infeasible_flag(self, capsys):
        code, _, _ = run(capsys, "check", "--N", "8", "--offsets", "0,3,3",
                         "--fail-on-infeasible")
        assert code == 1

    def test_two_user_gap(self, capsys):
        code, out, _ = run(capsys, "check", "--N", "4", "--offsets", "0,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["lambda"] is None
        assert doc["min_gap"] == 1 and doc["min_gap_required"] == 2

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "check", "--N", "4", "--offsets", "0,1,2", "--json")
        doc = json.loads(out)
        assert doc["s"] == [1, 1, 2]
        assert doc["lambda"] == [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_malformed_offsets(self, capsys):
        code, _, err = run(capsys, "check", "--N", "4", "--offsets", "0,x,2")
        assert code == 2 and "offsets" in err

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--N", "4"])
        assert exc.value.code == 2


class TestRegion:
    def test_summary_counts(self, capsys):
        code, out, err = run(capsys, "region", "--N", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 42 and doc["ratio"] == pytest.approx(0.105)
        assert "count=42" in err
        code, out, _ = run(capsys, "region", "--N", "21", "--format", "json")
        assert json.loads(out)["count"] == 20

    def test_degenerate(self, capsys):
        code, out, _ = run(capsys, "region", "--N", "1", "--format", "json")
        assert code == 0 and json.loads(out)["count"] == 0

    @pytest.mark.parametrize("N", [1, 2, 7, 20])
    def test_json_streams_the_bytes_of_one_document(self, capsys, N):
        # cells are written one at a time, in the bytes json.dumps gives the whole grid
        code, out, _ = run(capsys, "region", "--N", str(N), "--format", "json")
        region = feasible_region(N)
        doc = {"N": N, "count": region.count, "ratio": region.ratio,
               "points": [{"n2": n2, "n3": n3, "feasible": (n2, n3) in region}
                          for n2 in range(N) for n3 in range(N)]}
        assert code == 0 and out == json.dumps(doc) + "\n"

    def test_huge_grid_exits_2(self, capsys):
        # refused before numpy is asked for the 10^10-point grid
        code, out, err = run(capsys, "region", "--N", "100000")
        assert code == 2 and out == ""
        assert "N^2 = 10000000000 points exceeds 1048576" in err

    def test_csv_shape(self, capsys):
        code, out, err = run(capsys, "region", "--N", "6")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n2", "n3", "feasible"]
        assert len(rows) == 1 + 36
        count = sum(r[2] == "true" for r in rows[1:])
        assert f"count={count}" in err


class TestDecomposeVerify:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        code, _, _ = run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2",
                         "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["version"] == 1 and len(doc["tuples"]) == 4
        code, out, _ = run(capsys, "verify", "--schedule", str(path),
                           "--seed", "3", "--trials", "50")
        assert code == 0
        assert "verification: PASS" in out
        assert "symbols per slot: 3/2" in out

    def test_verify_validates_once(self, tmp_path, capsys, monkeypatch):
        # the CLI's check and the verifier's share one validation report and
        # one slot map
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "60", "--offsets", "0,15,30,45", "--out", str(path))
        calls = []
        for module, name in ((scheduler, "_validate"), (scheduler, "slot_map")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
        code, out, _ = run(capsys, "verify", "--schedule", str(path), "--trials", "2")
        assert code == 0 and "verification: PASS" in out
        assert calls == ["_validate", "slot_map"]

    def test_verify_deterministic(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "12", "--offsets", "0,4,8", "--out", str(path))
        _, out1, _ = run(capsys, "verify", "--schedule", str(path), "--seed", "9")
        _, out2, _ = run(capsys, "verify", "--schedule", str(path), "--seed", "9")
        assert out1 == out2

    def test_huge_trials_exit_2(self, tmp_path, capsys):
        # K * trials * T * (K+1) = 4 * 10^12 * 4 * 5 coefficient cells (petabytes
        # of draws) for the 4 distinct threads: refused before anything is drawn
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "60", "--offsets", "0,15,30,45", "--out", str(path))
        code, out, err = run(capsys, "verify", "--schedule", str(path),
                             "--trials", "1000000000000")
        assert code == 2 and out == ""
        assert "80000000000000 coefficient cells" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, tmp_path, capsys, trials):
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "60", "--offsets", "0,15,30,45", "--out", str(path))
        code, out, err = run(capsys, "verify", "--schedule", str(path), "--trials", trials)
        assert (code, out, err) == (2, "", "error: trials must be >= 1\n")

    def test_infeasible_exit_1(self, capsys):
        code, _, err = run(capsys, "decompose", "--N", "8", "--offsets", "0,1,2")
        assert code == 1
        assert "infeasible" in err and "min(s)" in err

    def test_huge_n_exit_2(self, capsys):
        # feasible, but the slots do not fit int64: refused before any allocation
        N = 10**20
        code, out, err = run(capsys, "decompose", "--N", str(N), "--offsets", f"0,{N // 2}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "int64" in err

    def test_all_solutions(self, capsys):
        code, out, _ = run(capsys, "decompose", "--N", "11", "--offsets", "0,3,6")
        assert code == 0
        code, out, _ = run(capsys, "decompose", "--N", "11", "--offsets", "0,3,6",
                           "--all-solutions")
        assert code == 0
        docs = json.loads(out)
        assert isinstance(docs, list) and len(docs) >= 2

    def test_all_solutions_bytes_pinned(self, tmp_path, capsys):
        # every feasible gap vector with sum <= 20 and K 2..4 (321 of them):
        # the digest pins the bytes of json.dumps(list, sort_keys=True) per
        # vector, and the file holds the same bytes as stdout
        digest = hashlib.sha256()
        path = tmp_path / "all.json"
        for K in range(2, 5):
            for N in range(1, 21):
                for s in filter(check_feasible, compositions(N, K)):
                    args = ("decompose", "--N", str(N), "--all-solutions",
                            "--offsets", ",".join(str(sum(s[:i])) for i in range(K)))
                    code, out, _ = run(capsys, *args)
                    assert code == 0
                    digest.update(out.encode())
                    assert run(capsys, *args, "--out", str(path))[0] == 0
                    assert path.read_text() == out
        assert digest.hexdigest() == \
            "3a9542da7a47cb21ee566d8f161dc67da1823664be7655871fbd9491061507db"

    def test_all_solutions_tight_instance(self, capsys):
        # s = (300, 300, 600) meets the gap condition with equality: one certificate
        args = ("decompose", "--N", "1200", "--offsets", "0,300,600")
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, out_all, err = run(capsys, *args, "--all-solutions")
        assert code == 0 and err == ""
        assert json.loads(out_all) == [json.loads(out)]

    def test_all_solutions_guard_counts_certificates(self, capsys):
        # s = (1000, 1100, 1200, 1150, 1300): C(255, 5) certificates, refused unbuilt
        code, out, err = run(capsys, "decompose", "--N", "5750",
                             "--offsets", "0,1000,2100,3300,4450", "--all-solutions")
        assert code == 2 and out == ""
        assert "8637487551 certificates" in err and "limit 2000000" in err

    def test_all_solutions_guard_counts_threads(self, capsys):
        # s = (300, 300, 572): 4,495 certificates of 1,172 threads each, more
        # threads than the default limit, refused before any is built
        code, out, err = run(capsys, "decompose", "--N", "1172", "--offsets", "0,300,600",
                             "--all-solutions")
        assert code == 2 and out == ""
        assert "4495 certificates" in err and "5268140 threads" in err
        assert "limit 2000000" in err
        # the tight instance emits one certificate of N = 1200 threads
        args = ("decompose", "--N", "1200", "--offsets", "0,300,600", "--all-solutions")
        code, out, _ = run(capsys, *args, "--max-nodes", "1200")
        assert code == 0 and len(json.loads(out)[0]["tuples"]) == 1200
        code, out, err = run(capsys, *args, "--max-nodes", "1199")
        assert code == 2 and out == "" and "1200 threads" in err

    def test_tampered_schedule_exit_1(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["tuples"][0]["slots"][0] = doc["tuples"][1]["slots"][0]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--schedule", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_undecodable_draw_exit_1(self, tmp_path, capsys, monkeypatch):
        # a valid schedule on a draw that freezes user 1's channel passes the
        # structural check and fails the numerical one
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2", "--out", str(path))
        monkeypatch.setattr(signaling, "_grid", [None] * len(signaling._grid))
        monkeypatch.setattr(signaling, "_draw", frozen_user_draw(0))
        code, out, err = run(capsys, "verify", "--schedule", str(path))
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[0] == "verification: FAIL"
        assert lines[-1].startswith("worst singular value at ") and lines[-1].endswith(
            ", receiver 1")

    def _verify_edited(self, tmp_path, capsys, edit):
        path = tmp_path / "sched.json"
        run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2", "--out", str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return run(capsys, "verify", "--schedule", str(path))

    @pytest.mark.parametrize("lam", [[9] * 12, [0, 0, 1, 0, 0]])
    def test_forged_lambda_exit_1(self, tmp_path, capsys, lam):
        code, out, err = self._verify_edited(tmp_path, capsys,
                                             lambda doc: doc.update({"lambda": lam}))
        assert code == 1
        assert "FAIL (structure)" in out and "certificate" in err

    def test_thread_without_slots_exit_1(self, tmp_path, capsys):
        # named for its old exit code: a thread without K+1 slots is malformed input
        code, out, err = self._verify_edited(
            tmp_path, capsys, lambda doc: doc["tuples"][0].update({"slots": []}))
        assert code == 2 and out == ""
        assert err == "error: thread 0 has 0 slots, expected K+1 = 4\n"

    @pytest.mark.parametrize("n_slots", [3, 5])
    def test_wrong_length_thread_exit_2(self, tmp_path, capsys, n_slots):
        # K and K+2 slots, in increasing order
        def edit(doc):
            doc["tuples"][2]["slots"] = list(range(11, 11 + n_slots))
        code, out, err = self._verify_edited(tmp_path, capsys, edit)
        assert code == 2 and out == ""
        assert err == f"error: thread 2 has {n_slots} slots, expected K+1 = 4\n"

    def test_thread_shifted_by_periods_exit_1(self, tmp_path, capsys):
        # slots past int64 used to pass validation and crash the verifier
        def shift(doc):
            doc["tuples"][0]["slots"] = [n + 16 * 10**18 for n in doc["tuples"][0]["slots"]]
        code, out, err = self._verify_edited(tmp_path, capsys, shift)
        assert code == 1
        assert "FAIL (structure)" in out and "consecutiveness" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("slots", [[3.7, 4.7, 5.7, 6.7], ["3", 4, 5, 6], [True, 4, 5, 6]])
    def test_non_integer_slots_exit_2(self, tmp_path, capsys, slots):
        code, out, err = self._verify_edited(
            tmp_path, capsys, lambda doc: doc["tuples"][0].update({"slots": slots}))
        assert code == 2
        assert out == "" and "integer" in err

    def test_unreadable_schedule_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--schedule", str(tmp_path / "nope.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "verify", "--schedule", str(bad))
        assert code == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 7}))
        code, _, _ = run(capsys, "verify", "--schedule", str(wrong))
        assert code == 2

    def test_deeply_nested_schedule_exit_2(self, tmp_path, capsys):
        # the JSON parser runs out of recursion: unreadable, not a failed verification
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "verify", "--schedule", str(path))
        assert code == 2 and out == ""
        assert err.startswith("cannot read schedule: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/sched.json", "."])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, target):
        # a missing directory, and a directory in place of the file
        code, out, err = run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2",
                             "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("cannot write schedule: ") and err.count("\n") == 1


def verify_in_subprocess(tmp_path, doc):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-m", "blindalign.cli", "verify", "--schedule",
                           str(path), "--trials", "2"], capture_output=True, text=True)


def tampered_doc(seed, K, kind, a, b):
    cfg = random_feasible_config(np.random.default_rng(seed), K, 40)
    sched = build_schedule(cfg, closed_form_solution(group_profile(cfg)))
    return schedule_to_dict(tamper_schedule(sched, kind, a, b))


class TestHostileSchedules:
    """Outside documents fail with exit 1 or 2, never with a traceback."""

    def test_huge_n_exit_1(self, tmp_path):
        # N, offsets and slots past int64
        N = 10**20
        doc = {"version": 1, "N": N, "K": 3, "offsets": [0, 3 * 10**19, 6 * 10**19],
               "period": 4 * N, "lambda": [0, 0, 1] * 4,
               "tuples": [{"start_group": 1, "slots": [6 * 10**19 - 1, 6 * 10**19,
                                                       10**20, 13 * 10**19]}]}
        proc = verify_in_subprocess(tmp_path, doc)
        assert proc.returncode == 1, proc.stderr
        assert "FAIL (structure)" in proc.stdout and "coverage" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_n_int64_slots_exit_1(self, tmp_path, capsys):
        # int64 slots whose group starts are not: a structural failure, not an OverflowError
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(huge_n_small_slots_doc()))
        code, out, err = run(capsys, "verify", "--schedule", str(path))
        assert code == 1 and out == "verification: FAIL (structure)\n"
        assert err.splitlines() == [
            f"invalid schedule: coverage: 1 tuples, expected {10**20}",
            "invalid schedule: consecutiveness: thread at group 0, slots (0, 1, 2)",
            "invalid schedule: certificate: lambda does not solve the window equations "
            "or does not match the threads' start groups"]

    @pytest.mark.parametrize("kind", TAMPERINGS)
    def test_tampered_exit_1_or_2(self, tmp_path, kind):
        proc = verify_in_subprocess(tmp_path, tampered_doc(5, 4, kind, 7, 11))
        assert proc.returncode in (1, 2)
        assert "Traceback" not in proc.stderr

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 5),
           kind=st.sampled_from(TAMPERINGS), a=st.integers(0, 10**6),
           b=st.integers(0, 10**6))
    def test_tampered_in_process(self, seed, K, kind, a, b):
        # an exception escaping main() would be the traceback
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sched.json"
            path.write_text(json.dumps(tampered_doc(seed, K, kind, a, b)))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--schedule", str(path), "--trials", "2"])
        assert code in (1, 2)


class TestProb:
    def test_exact_matches_library(self, capsys):
        code, out, _ = run(capsys, "prob", "--N", "8", "--K", "3",
                           "--k-target", "3", "--method", "exact", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["p"] == probability_exact(8, 3, 3).p
        assert row["half_width"] is None

    def test_bound_matches_library(self, capsys):
        code, out, _ = run(capsys, "prob", "--N", "8", "--K", "4",
                           "--k-target", "3", "--method", "bound", "--format", "json")
        assert json.loads(out)[0]["p"] == p_upper_3(8, 4).p

    def test_k_range_rows(self, capsys):
        code, out, _ = run(capsys, "prob", "--N", "8", "--K-range", "3:5",
                           "--k-target", "3", "--method", "exact")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "K", "k_target", "method", "p", "half_width"]
        assert [r[1] for r in rows[1:]] == ["3", "4", "5"]

    @pytest.mark.parametrize("k_args, message", [
        (("--K", "3", "--K-range", "3:5"), "give either --K or --K-range, not both"),
        ((), "one of --K or --K-range is required"),
        (("--K-range", "5:3"), "--K-range must be increasing"),
        (("--K-range", "a:b"), "--K-range must be a:b, got 'a:b'"),
    ], ids=["both", "neither", "decreasing", "not-integers"])
    def test_k_selection_errors_exit_2(self, capsys, k_args, message):
        code, out, err = run(capsys, "prob", "--N", "8", *k_args,
                             "--k-target", "3", "--method", "exact")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_mc_seeded(self, capsys):
        args = ("prob", "--N", "12", "--K", "4", "--k-target", "3",
                "--method", "mc", "--trials", "20000", "--seed", "5",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        row = json.loads(out1)[0]
        assert row["half_width"] > 0

    def test_bound_dominates_mc(self, capsys):
        _, out_b, _ = run(capsys, "prob", "--N", "8", "--K", "4", "--k-target", "3",
                          "--method", "bound", "--format", "json")
        _, out_m, _ = run(capsys, "prob", "--N", "8", "--K", "4", "--k-target", "3",
                          "--method", "mc", "--trials", "50000", "--seed", "2",
                          "--format", "json")
        bound = json.loads(out_b)[0]
        mc = json.loads(out_m)[0]
        sigma = mc["half_width"] / 1.959963984540054
        assert bound["p"] >= mc["p"] - 4 * sigma

    def test_bound_divisibility_exit_2(self, capsys):
        code, _, err = run(capsys, "prob", "--N", "9", "--K", "3",
                           "--k-target", "3", "--method", "bound")
        assert code == 2 and "divisible by 4" in err

    def test_bound_2user_any_n(self, capsys):
        # the 2-user closed form is exact for every N, multiple of 3 or not
        for N in (8, 10, 11):
            code, out, _ = run(capsys, "prob", "--N", str(N), "--K", "4",
                               "--k-target", "2", "--method", "bound", "--format", "json")
            assert code == 0
            bad = enumeration_count(N, 4, 2)
            assert json.loads(out)[0]["p"] == float(1 - Fraction(bad, N**3))

    def test_exact_2user_past_guard(self, capsys):
        # pairs never reach the DP or its guard: the closed form answers
        # exactly, and --method bound gives the same value
        rows = []
        for method in ("exact", "bound"):
            code, out, _ = run(capsys, "prob", "--N", "100", "--K", "8", "--k-target", "2",
                               "--method", method, "--format", "json")
            assert code == 0
            rows.append(json.loads(out)[0])
        assert rows[0]["p"] == rows[1]["p"] == probability_exact(100, 8, 2).p
        assert rows[0]["p"] == pytest.approx(0.996206147, abs=1e-9)

    def test_mc_past_int64_offsets_exit_2(self, capsys):
        # N = 2^63 still answers; one more is refused by monte_carlo_p's own
        # message, not numpy's int64 error
        code, out, _ = run(capsys, "prob", "--N", str(2**63), "--K", "5", "--k-target", "3",
                           "--method", "mc", "--trials", "1000")
        assert code == 0 and out.startswith(f"N,K,k_target,method,p,half_width\n{2**63},5,3,mc,")
        code, out, err = run(capsys, "prob", "--N", str(2**63 + 1), "--K", "5", "--k-target", "3",
                             "--method", "mc")
        assert code == 2 and out == ""
        assert "2^63" in err and "--method exact" in err and "int64" not in err

    def test_exact_guard_exit_2(self, capsys, monkeypatch):
        # a smaller front bound keeps this quick; TestExactCount checks that the
        # real bound stops the DP within seconds
        monkeypatch.setattr(counting, "_DP_FRONTS", 10**4)
        code, _, err = run(capsys, "prob", "--N", "100", "--K", "13",
                           "--k-target", "3", "--method", "exact")
        assert code == 2 and "monte_carlo" in err

    @pytest.mark.parametrize("argv", [
        ("--N", "-4", "--k-target", "3", "--method", "exact"),
        ("--N", "0", "--k-target", "3", "--method", "bound"),
        ("--N", "0", "--k-target", "2", "--method", "bound"),
        ("--N", "0", "--k-target", "3", "--method", "mc"),
        ("--N", "8", "--k-target", "3", "--method", "exact", "--threads", "0"),
        ("--N", "8", "--k-target", "3", "--method", "mc", "--threads", "0"),
        ("--N", "8", "--k-target", "3", "--method", "bound", "--threads", "0"),
    ])
    def test_nonpositive_sizes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "prob", "--K", "3", *argv)
        assert code == 2 and out == ""
        assert "must be >= 1" in err

    def test_k_flags_validation(self, capsys):
        code, _, err = run(capsys, "prob", "--N", "8", "--k-target", "3",
                           "--method", "exact")
        assert code == 2
        code, _, err = run(capsys, "prob", "--N", "8", "--K", "3",
                           "--K-range", "3:4", "--k-target", "3", "--method", "exact")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("decompose", "--N", "1190", "--offsets", "0,300,600", "--all-solutions"),
    ("region", "--N", "200"),
])
def test_closed_stdout_exits_2(argv):
    # a reader that stops early (`| head`) ends the command quietly with exit 2
    with subprocess.Popen([sys.executable, "-m", "blindalign.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv, message", [
    ("check --N 12 --offsets 5", "need at least 2 offsets"),
    ("check --N 0 --offsets 0,1", "coherence time must be >= 1, got 0"),
    ("verify --schedule {schedule}", "K does not match the number of offsets"),
    ("prob --N 12 --K 2 --k-target 3 --method exact", "k_target must be in 2..2"),
    ("prob --N 12 --K 2 --k-target 3 --method mc", "k_target must be in 2..2"),
    ("prob --N 12 --K 2 --k-target 3 --method bound", "defined for K >= 3"),
])
def test_outside_input_rejected_exit_2(tmp_path, capsys, argv, message):
    # one offset, N = 0 (a modulus of 0 below), a schedule whose K is not its
    # number of offsets (it would verify as PASS) and a k_target above K
    path = tmp_path / "sched.json"
    run(capsys, "decompose", "--N", "4", "--offsets", "0,1,2", "--out", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "K": 2}))
    code, out, err = run(capsys, *argv.format(schedule=path).split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_csv_rows_end_in_newline(capsys):
    for argv in (("region", "--N", "6"),
                 ("prob", "--N", "8", "--K-range", "3:4", "--k-target", "3", "--method", "exact")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") > 2
        assert "\r" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blindalign.cli", "check", "--N", "4",
         "--offsets", "0,1,2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["feasible"] is True
