import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import svageval
from svageval import cli
from svageval.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main


def _synth(tmp_path, **extra):
    args = ["synth", "--out", str(tmp_path / "data"), "--seed", "3",
            "--queries", "4"]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(args) == EXIT_OK
    return tmp_path / "data"


class TestEvaluate:
    def test_identity_scores_hundred(self, tmp_path, capsys):
        data = _synth(tmp_path)
        out = tmp_path / "report.json"
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "m-HIoU: 100.000" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["m_hiou"] == 1.0
        assert doc["datasets"]["ovis"]["spatial"]["hota"] == 1.0

    def test_nms_off(self, tmp_path):
        data = _synth(tmp_path, segment_noise=1)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["evaluate", "--gt", str(data / "gt"),
                "--pred", str(data / "pred"), "--datasets", "ovis"]
        assert main(base + ["--out", str(out_a)]) == EXIT_OK
        assert main(base + ["--out", str(out_b), "--nms", "off"]) == EXIT_OK
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        # r1/miou are NMS-invariant by construction
        assert a["datasets"]["ovis"]["temporal"]["r1"] == \
            b["datasets"]["ovis"]["temporal"]["r1"]
        assert a["datasets"]["ovis"]["temporal"]["miou"] == \
            b["datasets"]["ovis"]["temporal"]["miou"]

    def test_jobs_do_not_change_report_bytes(self, tmp_path):
        data = _synth(tmp_path, queries=6, id_switch_prob=0.2, box_jitter=1.0)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["evaluate", "--gt", str(data / "gt"),
                "--pred", str(data / "pred"), "--datasets", "ovis"]
        assert main(base + ["--out", str(out_a), "--jobs", "1"]) == EXIT_OK
        assert main(base + ["--out", str(out_b), "--jobs", "4"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_gt_root(self, tmp_path):
        code = main(["evaluate", "--gt", str(tmp_path / "nope"),
                     "--pred", str(tmp_path / "nope"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO

    def test_parse_error_exits_one(self, tmp_path):
        data = _synth(tmp_path)
        gt_txt = data / "gt" / "ovis" / "video0001" / "gt.txt"
        gt_txt.write_text("1,1,0,0,not-a-number,5\n")
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO

    def test_validation_error_exits_two(self, tmp_path, capsys):
        data = _synth(tmp_path)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(queries.read_text())
        doc["queries"][0]["referents"][0]["track_id"] = 999
        queries.write_text(json.dumps(doc))
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_VALIDATION
        assert "unresolved referent" in capsys.readouterr().err

    def test_relabelled_prediction_directory_exits_one(self, tmp_path,
                                                       capsys):
        data = _synth(tmp_path, id_switch_prob=0.2, box_jitter=1.5)
        video = data / "pred" / "ovis" / "video0001"
        copy = video / "zz_copy"
        shutil.copytree(video / "q002", copy)
        temporal = copy / "pred_temporal.json"
        doc = json.loads(temporal.read_text())
        doc["query_id"] = "q001"
        temporal.write_text(json.dumps(doc))
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO
        assert "$.query_id" in capsys.readouterr().err

    def test_segment_ends_past_len_limit_are_scored(self, tmp_path):
        """A GT segment ending at 2**63 and a predicted one at 2**70 are
        scored: exit 0, a report, and no traceback."""
        data = _synth(tmp_path, queries=6)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(queries.read_text())
        doc["queries"][0]["referents"][0]["segments"] = [[1, 2**63]]
        queries.write_text(json.dumps(doc))
        temporal = (data / "pred" / "ovis" / "video0001" / "q001"
                    / "pred_temporal.json")
        doc = json.loads(temporal.read_text())
        doc["tracks"][0]["segments"][0]["end"] = 2**70
        temporal.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        env = {**os.environ,
               "PYTHONPATH": str(Path(svageval.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "svageval.cli", "evaluate", "--gt",
             str(data / "gt"), "--pred", str(data / "pred"), "--datasets",
             "ovis", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(out.read_text())["datasets"]["ovis"]

    def test_loader_diagnostics_printed(self, tmp_path, capsys):
        data = _synth(tmp_path)
        (data / "pred" / "ovis" / "video0001" / "q009").mkdir()
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        assert ("incomplete prediction directory skipped"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["evaluate", "validate"])
    @pytest.mark.parametrize("name", ["gt/ovis/video0001/gt.txt",
                                      "gt/ovis/video0001/queries.json",
                                      "pred/ovis/video0001/q001/pred.txt",
                                      "pred/ovis/video0001/q001/"
                                      "pred_temporal.json"])
    def test_invalid_utf8_exits_one_naming_the_file(self, tmp_path, capsys,
                                                   command, name):
        data = _synth(tmp_path)
        path = data / name
        path.write_bytes(path.read_bytes() + b"\xff")
        args = [command, "--gt", str(data / "gt"), "--pred",
                str(data / "pred"), "--datasets", "ovis"]
        if command == "evaluate":
            args += ["--out", str(tmp_path / "r.json")]
        assert main(args) == EXIT_IO
        assert f"{path}:byte " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gt/ovis/video0001/queries.json",
                                      "pred/ovis/video0001/q001/"
                                      "pred_temporal.json"])
    def test_duplicate_key_exits_one_naming_the_file(self, tmp_path, capsys,
                                                     name):
        """A JSON key given twice is refused, not read as its last value."""
        data = _synth(tmp_path)
        path = data / name
        text = json.dumps(json.loads(path.read_text()))
        path.write_text(text.replace('"segments": ',
                                     '"segments": [], "segments": ', 1))
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO
        assert (f"error: {path}: invalid JSON: duplicate key 'segments'"
                in capsys.readouterr().err)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_overlong_integer_exits_one_naming_the_file(self, tmp_path,
                                                       capsys):
        data = _synth(tmp_path)
        path = data / "pred" / "ovis" / "video0001" / "q001" / \
            "pred_temporal.json"
        doc = json.loads(path.read_text())
        text = json.dumps(doc).replace(
            f'"track_id": {doc["tracks"][0]["track_id"]}',
            '"track_id": ' + "9" * 5001, 1)
        path.write_text(text)
        code = main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO
        assert f"error: {path}: invalid JSON" in capsys.readouterr().err

    def test_deeply_nested_json_exits_one_naming_the_file(self, tmp_path,
                                                          capsys):
        data = _synth(tmp_path)
        path = data / "gt" / "ovis" / "video0001" / "queries.json"
        path.write_text("[" * 100_000)
        code = main(["validate", "--gt", str(data / "gt"),
                     "--datasets", "ovis"])
        assert code == EXIT_IO
        assert f"error: {path}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "validate", "stats"])
    def test_repeated_dataset_exits_one(self, tmp_path, capsys, command):
        """A dataset named twice is refused, not scored and weighted
        twice."""
        root = tmp_path / "data"
        for seed, name in ((3, "ovis"), (8, "mot17")):
            assert main(["synth", "--out", str(root), "--dataset", name,
                         "--seed", str(seed), "--queries", "4"]) == EXIT_OK
        args = [command, "--gt", str(root / "gt"),
                "--datasets", "ovis,mot17,ovis"]
        if command == "evaluate":
            args += ["--pred", str(root / "pred"),
                     "--out", str(tmp_path / "r.json")]
        assert main(args) == EXIT_IO
        assert "'ovis' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "validate"])
    def test_missing_prediction_root_exits_one(self, tmp_path, capsys,
                                               command):
        data = _synth(tmp_path)
        missing = tmp_path / "no-such-dir"
        args = [command, "--gt", str(data / "gt"), "--pred", str(missing),
                "--datasets", "ovis"]
        if command == "evaluate":
            args += ["--out", str(tmp_path / "r.json")]
        assert main(args) == EXIT_IO
        assert (f"error: {missing}: prediction root not found"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    def test_missing_dataset_under_prediction_root_scores_zero(
            self, tmp_path, capsys):
        data = _synth(tmp_path)
        shutil.rmtree(data / "pred" / "ovis")
        assert main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert "m-HIoU: 0.000" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["missing/r.json", "file/r.json", "data"])
    def test_unwritable_out_exits_one_before_scoring(self, tmp_path, capsys,
                                                     monkeypatch, out):
        """A report path that cannot be written is refused before any
        query is scored."""
        data = _synth(tmp_path)
        (tmp_path / "file").write_text("")

        def fail(*args, **kwargs):
            raise AssertionError("scored before --out was checked")
        monkeypatch.setattr(cli, "evaluate_datasets", fail)
        target = str(tmp_path / out)
        assert main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", target]) == EXIT_IO
        assert f"error: {target}: " in capsys.readouterr().err

    def test_bad_nms_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--gt", "x", "--pred", "y", "--out", "z",
                  "--nms", "nope"])

    @pytest.mark.parametrize("value,expected", [("0.5", 0.5), ("0", 0.0),
                                                ("1", 1.0), ("off", None)])
    def test_nms_values_parsed(self, value, expected):
        args = cli.build_parser().parse_args(
            ["evaluate", "--gt", "x", "--pred", "y", "--out", "z",
             "--nms", value])
        assert args.nms == expected

    @pytest.mark.parametrize("option,value", [
        ("--nms", "1.5"), ("--nms", "-0.1"),
        ("--jobs", "0"), ("--jobs", "-1"), ("--jobs", "abc"),
        ("--jobs", "1.5")])
    def test_bad_option_exits_two_before_loading(self, tmp_path, capsys,
                                                 monkeypatch, option, value):
        """A bad --nms or --jobs is refused by name before any file is
        read."""
        def fail(*args, **kwargs):
            raise AssertionError(f"split loaded before {option} was checked")
        monkeypatch.setattr(cli, "load_split", fail)
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--gt", str(tmp_path), "--pred", str(tmp_path),
                  "--out", str(tmp_path / "r.json"), option, value])
        assert info.value.code == EXIT_VALIDATION
        assert f"argument {option}: " in capsys.readouterr().err

    def test_jobs_auto_uses_the_cpu_count(self, tmp_path, monkeypatch):
        data = _synth(tmp_path)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        seen = []
        evaluate = cli.evaluate_datasets

        def recording(splits, nms_threshold, jobs):
            seen.append(jobs)
            return evaluate(splits, nms_threshold, jobs=jobs)
        monkeypatch.setattr(cli, "evaluate_datasets", recording)
        base = ["evaluate", "--gt", str(data / "gt"),
                "--pred", str(data / "pred"), "--datasets", "ovis"]
        for jobs in ("auto", "1"):
            assert main(base + ["--out", str(tmp_path / f"{jobs}.json"),
                                "--jobs", jobs]) == EXIT_OK
        assert seen == [2, 1]
        assert (tmp_path / "auto.json").read_bytes() == \
            (tmp_path / "1.json").read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "validate", "stats"])
    @pytest.mark.parametrize("datasets,message", [
        (" , ", "--datasets must name at least one dataset"),
        ("empty", "empty: no video directories found")])
    def test_no_video_to_load_exits_one(self, tmp_path, capsys, command,
                                        datasets, message):
        data = _synth(tmp_path)
        (data / "gt" / "empty").mkdir()
        args = [command, "--gt", str(data / "gt"), "--datasets", datasets]
        if command == "evaluate":
            args += ["--pred", str(data / "pred"),
                     "--out", str(tmp_path / "r.json")]
        assert main(args) == EXIT_IO
        assert message in capsys.readouterr().err

    def test_dataset_without_queries_exits_two(self, tmp_path, capsys):
        """Videos without queries are a warning each, and a dataset with
        no query at all is refused, not scored as an empty mean."""
        data = _synth(tmp_path)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(queries.read_text())
        doc["queries"] = []
        queries.write_text(json.dumps(doc))
        shutil.rmtree(data / "pred" / "ovis")
        assert main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[warning] ovis/video0001: video has no queries" in err
        assert "error: dataset 'ovis' has no queries" in err
        assert not (tmp_path / "r.json").exists()


class TestWarningsOnce:
    @pytest.mark.parametrize("command,expected", [("evaluate", EXIT_OK),
                                                  ("validate",
                                                   EXIT_VALIDATION)])
    def test_unknown_temporal_track_warned_once(self, tmp_path, command,
                                                expected):
        """A loader warning is printed once, as a diagnostic line, and not
        also through logging."""
        data = _synth(tmp_path)
        path = data / "pred" / "ovis" / "video0001" / "q001" / \
            "pred_temporal.json"
        doc = json.loads(path.read_text())
        doc["tracks"].append({"track_id": 999, "segments": []})
        path.write_text(json.dumps(doc))
        args = [command, "--gt", str(data / "gt"), "--pred",
                str(data / "pred"), "--datasets", "ovis"]
        if command == "evaluate":
            args += ["--out", str(tmp_path / "r.json")]
        env = {**os.environ, "SVAGEVAL_LOG": "warn",
               "PYTHONPATH": str(Path(svageval.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "svageval.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == expected
        assert proc.stderr.count("unknown predicted track 999") == 1
        assert (f"[warning] {path}: temporal entry for unknown predicted "
                f"track 999 dropped\n") in proc.stderr


class TestDuplicateWinners:
    def test_named_per_query_and_same_at_any_job_count(self, tmp_path):
        """A predicted id that wins the vote of two referents, and a query
        without predictions, are logged by the parent, naming their
        dataset, video and query, so stderr does not depend on the worker
        count. With two videos, --jobs 2 scores through a pool wherever
        two CPUs are usable."""
        data = tmp_path / "data"
        for dataset, seed in (("ovis", "3"), ("mot17", "8")):
            assert main(["synth", "--out", str(data), "--dataset", dataset,
                         "--seed", seed, "--queries", "6",
                         "--id-switch-prob", "0.2",
                         "--box-jitter", "1.5"]) == EXIT_OK
        shutil.rmtree(data / "pred" / "ovis" / "video0001" / "q003")
        env = {**os.environ, "SVAGEVAL_LOG": "warn",
               "PYTHONPATH": str(Path(svageval.__file__).parents[1])}
        stderr = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "svageval.cli", "evaluate",
                 "--gt", str(data / "gt"), "--pred", str(data / "pred"),
                 "--datasets", "ovis,mot17", "--out", str(tmp_path / "r.json"),
                 "--jobs", jobs],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == EXIT_OK
            stderr.append(proc.stderr)
        prefix = "WARNING svageval.pipeline: "
        assert stderr[0] == "".join(prefix + line + "\n" for line in (
            "no predictions for ovis/video0001/q003; query scores 0",
            "ovis/video0001/q001: predicted id 3 won the vote for GT ids "
            "[2, 3]",
            "ovis/video0001/q006: predicted id 2 won the vote for GT ids "
            "[1, 3]",
            "mot17/video0001/q002: predicted id 2 won the vote for GT ids "
            "[2, 3]"))
        assert stderr[0] == stderr[1]


class TestLineEndsAndEmptyFiles:
    @staticmethod
    def _evaluate(data, out):
        return main(["evaluate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis",
                     "--out", str(out)])

    def test_mixed_line_ends_in_gt_give_the_same_report(self, tmp_path):
        data = _synth(tmp_path, id_switch_prob=0.2, box_jitter=1.5)
        assert self._evaluate(data, tmp_path / "lf.json") == EXIT_OK
        path = data / "gt" / "ovis" / "video0001" / "gt.txt"
        lines = path.read_bytes().split(b"\n")[:-1]
        ends = (b"\r\n", b"\n", b"\r")
        path.write_bytes(b"".join(line + ends[i % 3]
                                  for i, line in enumerate(lines)))
        assert self._evaluate(data, tmp_path / "mixed.json") == EXIT_OK
        assert (tmp_path / "lf.json").read_bytes() == \
            (tmp_path / "mixed.json").read_bytes()

    def test_empty_pred_txt_is_a_prediction_without_detections(
            self, tmp_path, capsys):
        data = _synth(tmp_path)
        (data / "pred" / "ovis" / "video0001" / "q001" / "pred.txt"
         ).write_bytes(b"")
        assert self._evaluate(data, tmp_path / "r.json") == EXIT_OK
        captured = capsys.readouterr()
        assert "incomplete prediction directory" not in captured.err
        assert "m-HIoU: 100.000" not in captured.out

    @pytest.mark.parametrize("name", ["gt/ovis/video0001/queries.json",
                                      "pred/ovis/video0001/q001/"
                                      "pred_temporal.json"])
    def test_empty_json_exits_one_located(self, tmp_path, capsys, name):
        data = _synth(tmp_path)
        path = data / name
        path.write_bytes(b"")
        assert self._evaluate(data, tmp_path / "r.json") == EXIT_IO
        assert f"error: {path}:line 1: " in capsys.readouterr().err

    def test_empty_gt_txt_leaves_referents_unresolved(self, tmp_path, capsys):
        data = _synth(tmp_path)
        (data / "gt" / "ovis" / "video0001" / "gt.txt").write_bytes(b"")
        assert self._evaluate(data, tmp_path / "r.json") == EXIT_VALIDATION
        assert "unresolved referent" in capsys.readouterr().err


class TestValidate:
    def test_clean_split(self, tmp_path):
        data = _synth(tmp_path)
        assert main(["validate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"),
                     "--datasets", "ovis"]) == EXIT_OK

    def test_gt_only(self, tmp_path):
        data = _synth(tmp_path)
        assert main(["validate", "--gt", str(data / "gt"),
                     "--datasets", "ovis"]) == EXIT_OK

    def test_diagnostics_exit_two(self, tmp_path, capsys):
        data = _synth(tmp_path)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(queries.read_text())
        doc["queries"][0]["referents"][0]["track_id"] = 999
        queries.write_text(json.dumps(doc))
        code = main(["validate", "--gt", str(data / "gt"),
                     "--datasets", "ovis"])
        assert code == EXIT_VALIDATION
        assert "unresolved referent" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    def test_duplicate_query_id_exits_two(self, tmp_path, capsys, command):
        """A query id repeated in queries.json is one located error, not a
        query scored twice against one prediction set."""
        data = _synth(tmp_path, queries=6, id_switch_prob=0.2,
                      box_jitter=1.5)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(queries.read_text())
        doc["queries"][1]["query_id"] = "q001"
        queries.write_text(json.dumps(doc))
        shutil.rmtree(data / "pred" / "ovis" / "video0001" / "q002")
        args = [command, "--gt", str(data / "gt"),
                "--pred", str(data / "pred"), "--datasets", "ovis"]
        if command == "evaluate":
            args += ["--out", str(tmp_path / "r.json")]
        assert main(args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[error] ovis/video0001/q001: duplicate query id" in err
        assert err.count("duplicate query id") == 1
        assert not (tmp_path / "r.json").exists()

    def test_wrong_video_id_without_queries_exits_one(self, tmp_path,
                                                      capsys):
        data = _synth(tmp_path, queries=6)
        queries = data / "gt" / "ovis" / "video0001" / "queries.json"
        queries.write_text(json.dumps({"video_id": "wrong", "queries": []}))
        shutil.rmtree(data / "pred" / "ovis" / "video0001")
        code = main(["validate", "--gt", str(data / "gt"),
                     "--pred", str(data / "pred"), "--datasets", "ovis"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert ("queries.json:$.video_id: video_id 'wrong' does not match "
                "directory 'video0001'") in err
        assert err.count("does not match directory") == 1


class TestStats:
    def test_table(self, tmp_path, capsys):
        data = _synth(tmp_path)
        assert main(["stats", "--gt", str(data / "gt"),
                     "--datasets", "ovis"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dataset" in out and "queries/video" in out
        assert "ovis" in out

    def test_overall_row_for_multiple_datasets(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        for name in ("ovis", "mot17"):
            assert main(["synth", "--out", str(data_dir), "--seed", "1",
                         "--dataset", name]) == EXIT_OK
        assert main(["stats", "--gt", str(data_dir / "gt"),
                     "--datasets", "ovis,mot17"]) == EXIT_OK
        assert "overall" in capsys.readouterr().out


class TestSynth:
    def test_writes_expected_layout(self, tmp_path):
        data = _synth(tmp_path, distractors=1)
        video = data / "gt" / "ovis" / "video0001"
        assert (video / "gt.txt").is_file()
        assert (video / "queries.json").is_file()
        pred = data / "pred" / "ovis" / "video0001" / "q001"
        assert (pred / "pred.txt").is_file()
        assert (pred / "pred_temporal.json").is_file()

    def test_invalid_spec_exits_two(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--frames", "0"])
        assert code == EXIT_VALIDATION

    def test_seed_reproducible_bytes(self, tmp_path):
        a = _synth(tmp_path / "a", box_jitter=0.5)
        b = _synth(tmp_path / "b", box_jitter=0.5)
        rel = ("gt", "ovis", "video0001", "gt.txt")
        path_a = a.joinpath(*rel)
        path_b = b.joinpath(*rel)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestGoldenReport:
    def test_report_bytes_at_one_and_two_jobs(self, tmp_path):
        """Three synth datasets scored together give the committed report
        bytes, whatever the worker count."""
        root = tmp_path / "data"
        for seed, name in ((3, "ovis"), (8, "mot17"), (11, "mot20")):
            assert main(["synth", "--out", str(root), "--dataset", name,
                         "--seed", str(seed), "--queries", "6",
                         "--id-switch-prob", "0.2", "--box-jitter", "1.5",
                         "--drop-prob", "0.1", "--segment-noise", "2",
                         "--distractors", "2"]) == EXIT_OK
        golden = (Path(__file__).parent / "golden" / "report.json"
                  ).read_bytes()
        for jobs in ("1", "2"):
            out = tmp_path / f"report{jobs}.json"
            assert main(["evaluate", "--gt", str(root / "gt"),
                         "--pred", str(root / "pred"),
                         "--datasets", "ovis,mot17,mot20",
                         "--out", str(out), "--jobs", jobs]) == EXIT_OK
            assert out.read_bytes() == golden


@pytest.fixture(scope="module")
def clean_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean") / "data"
    assert main(["synth", "--out", str(root), "--seed", "3",
                 "--queries", "2"]) == EXIT_OK
    return root


MALFORMED_TOKENS = ["nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity",
                    "", "1_0", "0_5", "\u0663", "\u096b", "\uff11",
                    "1\u0660"]
WRONG_TYPES = ["7", 7.5, True, None]
NON_OBJECTS = [7, "x", [], None]


def _evaluate_broken(root, path, text):
    """``evaluate``'s exit code and standard error on ``root`` while
    ``path`` holds ``text``; the file is restored afterwards."""
    original = path.read_bytes()
    err = io.StringIO()
    try:
        path.write_bytes(text.encode("utf-8"))
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", "--gt", str(root / "gt"),
                         "--pred", str(root / "pred"), "--datasets", "ovis",
                         "--out", str(root / "r.json")])
    finally:
        path.write_bytes(original)
    return code, err.getvalue()


def _break_csv(data, path):
    """The CSV at ``path`` with one field replaced by a malformed token, or
    with a byte-order mark in front, and the number of the broken line."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    if data.draw(st.booleans()):
        lineno = 1
        lines[0] = "\ufeff" + lines[0]
    else:
        lineno = data.draw(st.integers(1, len(lines)))
        fields = lines[lineno - 1].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = \
            data.draw(st.sampled_from(MALFORMED_TOKENS))
        lines[lineno - 1] = ",".join(fields)
    return "".join(line + "\n" for line in lines), lineno


def _segment_faults(segment, start, end):
    """Bad values for a segment's frames: wrong types, start > end and
    negative frames."""
    return [(segment, start,
             WRONG_TYPES + [segment[end] + 1, -segment[start]]),
            (segment, end,
             WRONG_TYPES + [segment[start] - 1, -segment[end]])]


def _query_faults(doc):
    """``(container, key, bad values)`` for each field of a queries.json
    document that a single bad value must make unparseable."""
    faults = []
    for i, query in enumerate(doc["queries"]):
        faults += [(doc["queries"], i, NON_OBJECTS),
                   (query, "referents", [[]])]
        for j, referent in enumerate(query["referents"]):
            faults += [(query["referents"], j, NON_OBJECTS),
                       (referent, "track_id", WRONG_TYPES)]
            for k, segment in enumerate(referent["segments"]):
                faults += [(referent["segments"], k, NON_OBJECTS)]
                faults += _segment_faults(segment, 0, 1)
    return faults


def _temporal_faults(doc):
    """As :func:`_query_faults`, for a pred_temporal.json document."""
    faults = []
    for i, track in enumerate(doc["tracks"]):
        faults += [(doc["tracks"], i, NON_OBJECTS),
                   (track, "track_id", WRONG_TYPES)]
        for k, segment in enumerate(track["segments"]):
            faults += [(track["segments"], k, NON_OBJECTS)]
            faults += _segment_faults(segment, "start", "end")
    return faults


def _break_json(data, path, faults_of):
    """The JSON document at ``path`` with one field replaced by a bad
    value."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    container, key, values = data.draw(st.sampled_from(faults_of(doc)))
    container[key] = data.draw(st.sampled_from(values))
    return json.dumps(doc)


class TestMalformedPredictions:
    """Any malformed number in a prediction CSV, and any bad field in a
    pred_temporal.json, stops ``evaluate`` with exit code 1 and names the
    file and the line or JSON path."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_field_exits_one_naming_file_and_line(self, clean_split,
                                                            data):
        paths = sorted((clean_split / "pred").rglob("pred.txt"))
        path = data.draw(st.sampled_from(paths))
        text, lineno = _break_csv(data, path)
        code, err = _evaluate_broken(clean_split, path, text)
        assert code == EXIT_IO
        assert f"error: {path}:line {lineno}: " in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_temporal_field_exits_one_naming_file_and_path(
            self, clean_split, data):
        paths = sorted((clean_split / "pred").rglob("pred_temporal.json"))
        path = data.draw(st.sampled_from(paths))
        code, err = _evaluate_broken(
            clean_split, path, _break_json(data, path, _temporal_faults))
        assert code == EXIT_IO
        assert f"error: {path}:$." in err


class TestMalformedGroundTruth:
    """The same for gt.txt and queries.json."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_field_exits_one_naming_file_and_line(self, clean_split,
                                                            data):
        path = clean_split / "gt" / "ovis" / "video0001" / "gt.txt"
        text, lineno = _break_csv(data, path)
        code, err = _evaluate_broken(clean_split, path, text)
        assert code == EXIT_IO
        assert f"error: {path}:line {lineno}: " in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bad_query_field_exits_one_naming_file_and_path(self, clean_split,
                                                            data):
        path = clean_split / "gt" / "ovis" / "video0001" / "queries.json"
        code, err = _evaluate_broken(
            clean_split, path, _break_json(data, path, _query_faults))
        assert code == EXIT_IO
        assert f"error: {path}:$." in err
