import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_bad_nms_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--gt", "x", "--pred", "y", "--out", "z",
                  "--nms", "nope"])


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


class TestMalformedPredictions:
    """Any malformed number in a prediction CSV stops ``evaluate`` with
    exit code 1 and names the file and the line."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_field_exits_one_naming_file_and_line(self, clean_split,
                                                            data):
        paths = sorted((clean_split / "pred").rglob("pred.txt"))
        path = data.draw(st.sampled_from(paths))
        original = path.read_bytes()
        lines = original.decode("utf-8").split("\n")[:-1]
        if data.draw(st.booleans()):
            lineno = 1
            lines[0] = "\ufeff" + lines[0]
        else:
            lineno = data.draw(st.integers(1, len(lines)))
            fields = lines[lineno - 1].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = \
                data.draw(st.sampled_from(MALFORMED_TOKENS))
            lines[lineno - 1] = ",".join(fields)
        err = io.StringIO()
        try:
            path.write_bytes("".join(line + "\n" for line in lines)
                             .encode("utf-8"))
            with contextlib.redirect_stderr(err):
                code = main(["evaluate", "--gt", str(clean_split / "gt"),
                             "--pred", str(clean_split / "pred"),
                             "--datasets", "ovis",
                             "--out", str(clean_split / "r.json")])
        finally:
            path.write_bytes(original)
        assert code == EXIT_IO
        assert f"error: {path}:line {lineno}: " in err.getvalue()
