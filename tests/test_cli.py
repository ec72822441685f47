import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nextday.cli
import nextday.corpus
from nextday.cli import main
from nextday.config import ALL_SCHEMES

from util import child_env, write_golden_config

REPO = Path(__file__).parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def example_config_args(monkeypatch, tmp_path):
    """`--config config.example.json`, writing under tmp_path/out."""
    monkeypatch.chdir(REPO)  # the example config names the corpus relative to the root
    out = json.dumps(str(tmp_path / "out"))
    return ["--config", "config.example.json", "--set", f"paths.output_dir={out}"]


def reference_digests():
    """The golden-26 artifact digests the benchmark's reference records."""
    return json.loads((REPO / "perfbench" / "reference.json").read_text())["golden-26"]["artifacts"]


def assert_one_error_line(err, message):
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


class TestIngestCheck:
    def test_summary_and_diagnostics(self, capsys, golden_config):
        cfg = golden_config()
        code, out, err = run(capsys, "ingest-check", "--config", str(cfg))
        assert code == 0
        assert "articles=26 tweets=200 users=24 unresolved_users=2" in out
        lines = [json.loads(l) for l in err.strip().splitlines()]
        assert {"kind": "unresolved_user", "user_id": "ghost1"} in lines
        assert {"kind": "unresolved_user", "user_id": "ghost2"} in lines

    def test_missing_articles_is_config_error(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        code, out, err = run(
            capsys, "ingest-check", "--config", str(cfg),
            "--set", f"paths.articles={tmp_path / 'absent.jsonl'}",
        )
        assert code == 2
        assert "absent.jsonl" in err


    def test_supplied_hashtag_with_newline_exit_three(self, capsys, golden_config, golden_dir, tmp_path):
        lines = (golden_dir / "tweets.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[6])
        record["hashtags"] = ["#tag\n"]
        lines[6] = json.dumps(record)
        bad = tmp_path / "tweets.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys, "ingest-check", "--config", str(golden_config()),
            "--set", f"paths.tweets={bad}",
        )
        assert code == 3
        assert_one_error_line(err, "invalid hashtag '#tag\\n' at line 7")


class TestAssociate:
    def test_golden_associations(self, capsys, golden_config, golden_dir, tmp_path):
        cfg = golden_config()
        code, out, _ = run(capsys, "associate", "--config", str(cfg))
        assert code == 0
        assert "articles=26" in out
        assert "mean_iterations=" in out
        produced = {
            json.loads(l)["article_id"]: json.loads(l)
            for l in (tmp_path / "out" / "associations.jsonl").read_text().splitlines()
        }
        for line in (golden_dir / "expected_associations.jsonl").read_text().splitlines():
            expected = json.loads(line)
            assert produced[expected["article_id"]] == expected

    def test_empty_tweets_file(self, capsys, golden_config, tmp_path):
        empty = tmp_path / "tweets_empty.jsonl"
        empty.write_text("")
        cfg = golden_config()
        code, out, _ = run(
            capsys, "associate", "--config", str(cfg), "--set", f"paths.tweets={empty}"
        )
        assert code == 0
        assert "associated_tweets=0" in out

    def test_missing_articles_exit_two(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        missing = tmp_path / "gone.jsonl"
        code, _, err = run(
            capsys, "associate", "--config", str(cfg), "--set", f"paths.articles={missing}"
        )
        assert code == 2
        assert str(missing) in err

    def test_jobs_flag_gives_identical_output(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        serial = (tmp_path / "out" / "associations.jsonl").read_bytes()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        assert (tmp_path / "out" / "associations.jsonl").read_bytes() == serial

    def test_stopword_only_article_gets_empty_association(
        self, capsys, golden_config, golden_dir, tmp_path
    ):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        golden_lines = (tmp_path / "out" / "associations.jsonl").read_text().splitlines()
        stop = {
            "id": "zz-stop", "title": "the and of", "body": "the and of",
            "published_at": "2016-08-01T06:00:00Z", "label": 0,
        }
        articles = tmp_path / "articles.jsonl"
        articles.write_text(
            (golden_dir / "articles.jsonl").read_text() + json.dumps(stop) + "\n"
        )
        code, out, err = run(
            capsys, "associate", "--config", str(cfg), "--set", f"paths.articles={articles}"
        )
        assert code == 0
        assert "articles=27" in out
        lines = (tmp_path / "out" / "associations.jsonl").read_text().splitlines()
        assert lines[:-1] == golden_lines
        assert json.loads(lines[-1]) == {
            "article_id": "zz-stop",
            "seed_tweet_ids": [],
            "expanded_tweet_ids": [],
            "article_specific_hashtags": [],
            "generic_hashtags": [],
            "iterations_run": 0,
        }
        events = [json.loads(l) for l in err.splitlines() if l.startswith("{")]
        assert {"kind": "unindexable_article", "article_id": "zz-stop"} in events


class TestFeatures:
    def test_proposed_matches_golden_csv(self, capsys, golden_config, golden_dir, tmp_path):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        code, out, _ = run(capsys, "features", "--config", str(cfg), "--scheme", "proposed")
        assert code == 0
        produced = (tmp_path / "out" / "features_proposed.csv").read_bytes()
        assert produced == (golden_dir / "expected_features_proposed.csv").read_bytes()

    def test_title_scheme_needs_no_tweets(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        code, out, _ = run(
            capsys, "features", "--config", str(cfg),
            "--scheme", "title_polarity",
            "--set", f"paths.tweets={tmp_path / 'no_tweets_here.jsonl'}",
        )
        assert code == 0
        assert (tmp_path / "out" / "features_title_polarity.csv").exists()

    def test_unknown_scheme_exit_two(self, capsys, golden_config):
        cfg = golden_config()
        code, _, err = run(capsys, "features", "--config", str(cfg), "--scheme", "bogus")
        assert code == 2
        assert "unknown scheme 'bogus'" in err
        assert "title_polarity" in err  # lists the valid names

    def test_proposed_requires_associations(self, capsys, golden_config):
        cfg = golden_config()
        code, _, err = run(capsys, "features", "--config", str(cfg), "--scheme", "proposed")
        assert code == 2
        assert "associate" in err

    @pytest.mark.parametrize(
        "cut, message",
        [
            ("mid-line", "associations.jsonl:2: truncated or invalid JSON line"),
            ("three-lines", "missing association for article 'a004'"),
            ("repeated-article", "associations.jsonl:27: article id 'a001' repeats line 1"),
            (
                "unknown-article",
                "association for article 'a999' not in the corpus; re-run 'nextday associate'",
            ),
            (
                "unknown-tweet",
                "association for article 'a001' names tweet 't_gone' not in the corpus; "
                "re-run 'nextday associate'",
            ),
        ],
        ids=["mid-line", "three-lines", "repeated-article", "unknown-article", "unknown-tweet"],
    )
    def test_bad_associations_exit_three(self, capsys, golden_config, tmp_path, cut, message):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        path = tmp_path / "out" / "associations.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        first = json.loads(lines[0])
        assert first["article_id"] == "a001" and len(lines) == 26
        if cut == "mid-line":
            path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        elif cut == "three-lines":
            path.write_bytes(b"".join(lines[:3]))
        elif cut == "repeated-article":
            path.write_bytes(b"".join(lines) + lines[0])
        elif cut == "unknown-article":
            extra = json.dumps({**first, "article_id": "a999"}).encode() + b"\n"
            path.write_bytes(b"".join(lines) + extra)
        else:
            stale = {**first, "expanded_tweet_ids": first["expanded_tweet_ids"] + ["t_gone"]}
            path.write_bytes(json.dumps(stale).encode() + b"\n" + b"".join(lines[1:]))
        code, _, err = run(capsys, "features", "--config", str(cfg), "--scheme", "proposed")
        assert code == 3
        assert_one_error_line(err, message)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_one_scheme_matches_benchmark_reference(self, capsys, monkeypatch, tmp_path, scheme):
        """`features --scheme <s>` alone writes the bytes `--scheme all` writes, so
        one run's shared text memo never lets a scheme depend on those before it."""
        common = example_config_args(monkeypatch, tmp_path)
        if scheme == "proposed":
            assert main(["associate", *common]) == 0
        assert main(["features", *common, "--scheme", scheme]) == 0
        capsys.readouterr()
        name = f"features_{scheme}.csv"
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert digest == reference_digests()[name]

    def test_event_scheme_loads_no_lexicon(self, capsys, monkeypatch, tmp_path):
        common = example_config_args(monkeypatch, tmp_path)
        missing = ["--set", f"paths.emotion_lexicon={json.dumps(str(tmp_path / 'absent.tsv'))}"]
        assert main(["features", *common, *missing, "--scheme", "event_importance"]) == 0
        name = "features_event_importance.csv"
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert digest == reference_digests()[name]
        capsys.readouterr()
        assert main(["features", *common, *missing, "--scheme", "all"]) == 2
        assert_one_error_line(capsys.readouterr().err, "'paths.emotion_lexicon'")

    def test_scheme_all_emits_six(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        code, out, _ = run(capsys, "features", "--config", str(cfg), "--scheme", "all")
        assert code == 0
        csvs = sorted(p.name for p in (tmp_path / "out").glob("features_*.csv"))
        assert csvs == [
            "features_article_content_polarity.csv",
            "features_article_polarity.csv",
            "features_event_importance.csv",
            "features_proposed.csv",
            "features_title_content_polarity.csv",
            "features_title_polarity.csv",
        ]


# Runs `main()` on this process's command line, as the `nextday` script
# does, then reports whether it made a process pool.
POOL_PROBE = """
import json, sys
from nextday.cli import main
code = main()
print(json.dumps({"pool": "multiprocessing.pool" in sys.modules}))
sys.exit(code)
"""


# POOL_PROBE with every SVM fit raising a data error. The patch is made
# before `main()` runs, so forked pool workers inherit it.
FAILING_FIT_PROBE = """
import nextday.learn.cv
from nextday.corpus import DatasetError

def train_svm(*args, **kwargs):
    raise DatasetError("fit failed")

nextday.learn.cv.train_svm = train_svm
""" + POOL_PROBE


class TestEvaluate:
    @pytest.fixture()
    def prepared(self, capsys, golden_config):
        cfg = golden_config()
        assert main(["associate", "--config", str(cfg)]) == 0
        assert main(["features", "--config", str(cfg), "--scheme", "all"]) == 0
        capsys.readouterr()
        return cfg

    def test_byte_identical_reruns(self, capsys, prepared, tmp_path):
        code, out, _ = run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")
        assert code == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_repeats_recorded(self, capsys, prepared, tmp_path):
        code, _, _ = run(
            capsys, "evaluate", "--config", str(prepared),
            "--scheme", "proposed", "--repeats", "3",
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seeds"] == [2016, 2017, 2018]
        assert report["repeats"] == 3
        assert report["config"]["learn"]["repeats"] == 3
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["effective_config"]["learn"]["repeats"] == 3
        stats = report["schemes"]["proposed"]["classifiers"]["cart"]["f_score"]
        assert len(stats["values"]) == 3
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_run_meta_records_the_svm_epoch_path(self, capsys, prepared, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        assert json.loads((out / "run_meta.json").read_text())["svm_epochs"] == {"path": "compiled"}
        report = (out / "report.json").read_bytes()
        fallback = {"path": "python", "reason": "no C compiler 'cc' on PATH"}
        monkeypatch.setattr("nextday.learn.native.HELPER", None)
        monkeypatch.setattr("nextday.learn.native.EPOCH_PATH", fallback)
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        assert json.loads((out / "run_meta.json").read_text())["svm_epochs"] == fallback
        assert (out / "report.json").read_bytes() == report

    def test_report_markdown_layout(self, capsys, prepared, tmp_path):
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        text = (tmp_path / "out" / "report.md").read_text()
        assert "| | RFC | SVM | CART |" in text
        assert "| Precision |" in text
        assert "| Recall |" in text
        assert "| F-score |" in text

    def test_insufficient_class_support_exit_three(self, capsys, prepared):
        code, _, err = run(
            capsys, "evaluate", "--config", str(prepared),
            "--scheme", "proposed", "--set", "learn.k=20",
        )
        assert code == 3
        assert "insufficient class support" in err

    def test_missing_features_exit_two(self, capsys, golden_config):
        cfg = golden_config()
        code, _, err = run(capsys, "evaluate", "--config", str(cfg), "--scheme", "proposed")
        assert code == 2
        assert "features" in err

    def test_pool_gives_the_same_bytes(self, capsys, prepared, tmp_path):
        argv = ["evaluate", "--config", str(prepared), "--scheme", "all", "--repeats", "2"]
        assert run(capsys, *argv)[0] == 0
        out = tmp_path / "out"
        serial = {name: (out / name).read_bytes() for name in ("report.json", "report.md")}
        result = subprocess.run(
            [sys.executable, "-c", POOL_PROBE, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        pooled = json.loads(result.stdout.splitlines()[-1])["pool"]
        assert pooled is (len(os.sched_getaffinity(0)) > 1)
        for name, expected in serial.items():
            assert (out / name).read_bytes() == expected, name

    def test_worker_error_keeps_exit_code(self, prepared):
        result = subprocess.run(
            [
                sys.executable, "-c", FAILING_FIT_PROBE, "evaluate", "--config", str(prepared),
                "--scheme", "all",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 3
        assert_one_error_line(result.stderr, "fit failed")
        assert json.loads(result.stdout.splitlines()[-1])["pool"] is (
            len(os.sched_getaffinity(0)) > 1
        )

    def test_class_support_error_comes_before_the_pool(self, prepared):
        result = subprocess.run(
            [
                sys.executable, "-c", POOL_PROBE, "evaluate", "--config", str(prepared),
                "--scheme", "all", "--set", "learn.k=20",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 3
        assert_one_error_line(result.stderr, "insufficient class support")
        assert json.loads(result.stdout.splitlines()[-1])["pool"] is False

    @pytest.mark.parametrize(
        "scheme, cpus, pooled",
        [("proposed", {0, 1}, False), ("all", {0}, False), ("all", {0, 1}, True)],
        ids=["one-job", "one-cpu", "pooled"],
    )
    def test_pool_only_for_several_jobs_and_cpus(self, monkeypatch, prepared, scheme, cpus, pooled):
        class PoolMade(Exception):
            pass

        def no_pool(method):
            raise PoolMade(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(
            sys, "argv", ["nextday", "evaluate", "--config", str(prepared), "--scheme", scheme]
        )
        if pooled:
            with pytest.raises(PoolMade, match="fork"):
                main()
        else:
            assert main() == 0

    def test_in_process_caller_runs_every_fit(self, capsys, monkeypatch, prepared):
        import nextday.learn.cv

        fits = []
        original = nextday.learn.cv.train_svm

        def counted(*args, **kwargs):
            fits.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(nextday.learn.cv, "train_svm", counted)
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "all")[0] == 0
        # 6 schemes x 5 folds, all in this process
        assert fits == [os.getpid()] * 30

    @pytest.mark.parametrize(
        "scheme, edit, message",
        [
            # header and 20 of 26 articles
            ("proposed", lambda rows: rows[:21], "article ids differ from those of"),
            (
                "event_importance",
                lambda rows: [rows[0], "renamed" + rows[1], *rows[2:]],
                "article ids differ from those of",
            ),
            (
                "event_importance",
                lambda rows: [rows[0], rows[1][:-1] + str(1 - int(rows[1][-1])), *rows[2:]],
                "labels differ from those of",
            ),
        ],
        ids=["first-file-cut", "later-file-renamed", "later-file-label-flipped"],
    )
    def test_feature_files_disagree_exit_three(
        self, capsys, prepared, tmp_path, scheme, edit, message
    ):
        path = tmp_path / "out" / f"features_{scheme}.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code, _, err = run(capsys, "evaluate", "--config", str(prepared), "--scheme", "all")
        assert code == 3
        assert_one_error_line(err, message)
        assert str(path) in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_repeated_article_id_exit_three(self, capsys, prepared, tmp_path):
        path = tmp_path / "out" / "features_title_polarity.csv"
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows + rows[1:2]) + "\n")  # header, 26 rows, row 1 again
        code, _, err = run(
            capsys, "evaluate", "--config", str(prepared), "--scheme", "title_polarity"
        )
        assert code == 3
        assert_one_error_line(err, f"{path}:28: article id 'a001' repeats line 2")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_command_rerenders(self, capsys, prepared, tmp_path):
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        md = tmp_path / "out" / "report.md"
        md.unlink()
        code, out, _ = run(capsys, "report", "--config", str(prepared))
        assert code == 0
        assert md.exists()
        assert "RFC" in out


def test_golden_artifacts_match_benchmark_reference(capsys, monkeypatch, tmp_path):
    """All five stages on the golden corpus with `config.example.json` write
    the bytes whose sha256 digests the benchmark's reference records."""
    expected = reference_digests()
    common = example_config_args(monkeypatch, tmp_path)
    for stage in ("ingest-check", "associate", "features", "evaluate", "report"):
        schemes = ["--scheme", "all"] if stage in ("features", "evaluate") else []
        assert main([stage, *common, *schemes]) == 0, stage
    capsys.readouterr()
    out = tmp_path / "out"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


class TestConfigPlumbing:
    def test_run_meta_echoes_effective_config(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        code, _, _ = run(
            capsys, "ingest-check", "--config", str(cfg),
            "--set", "relevance.min_overlap=2",
        )
        assert code == 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["command"] == "ingest-check"
        assert meta["effective_config"]["relevance"]["min_overlap"] == 2
        assert meta["effective_config"]["learn"]["k"] == 5

    def test_bad_set_value_rejected(self, capsys, golden_config):
        cfg = golden_config()
        code, _, err = run(
            capsys, "ingest-check", "--config", str(cfg), "--set", "relevance.min_overlap=0"
        )
        assert code == 2
        assert "min_overlap" in err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("learn.svm.epochs=1.5", "'learn.svm.epochs' must be an integer, got 1.5"),
            ("learn.k=2.5", "'learn.k' must be an integer, got 2.5"),
            (
                'features.similarity_threshold="0.3"',
                "'features.similarity_threshold' must be a number, got \"0.3\"",
            ),
            ("relevance.history_days=1.5", "'relevance.history_days' must be an integer, got 1.5"),
            ("learn.forest.n_trees=true", "'learn.forest.n_trees' must be an integer, got true"),
            ("learn.cart=5", "'learn.cart' must be an object, got 5"),
            ("learn.forest.seed=7", "unknown config key 'learn.forest.seed'"),
            ("learn.svm.seed=99", "unknown config key 'learn.svm.seed'"),
            ("learn.forest.max_features=-3", "learn.forest.max_features must be null or >= 1"),
            ("learn.forest.max_features=0", "learn.forest.max_features must be null or >= 1"),
            ("learn.forest.max_depth=-1", "learn.forest.max_depth must be >= 0"),
            ("learn.forest.min_samples_leaf=0", "learn.forest.min_samples_leaf must be >= 1"),
            ("bogus.key=1", "unknown config section(s): bogus"),
        ],
        ids=[
            "float-epochs", "float-k", "string-threshold", "float-history", "bool-trees",
            "number-section", "forest-seed", "svm-seed",
            "negative-max-features", "zero-max-features", "negative-forest-depth",
            "zero-forest-leaf", "unknown-section",
        ],
    )
    def test_wrong_value_type_rejected(self, capsys, golden_config, setting, message):
        cfg = golden_config()
        code, _, err = run(capsys, "ingest-check", "--config", str(cfg), "--set", setting)
        assert code == 2
        assert_one_error_line(err, message)

    def test_int_for_float_kept_as_given(self, capsys, golden_config, tmp_path):
        cfg = golden_config()
        code, _, _ = run(capsys, "ingest-check", "--config", str(cfg), "--set", "learn.svm.c=2")
        assert code == 0
        meta = (tmp_path / "out" / "run_meta.json").read_text()
        assert '"c": 2,' in meta

    def test_unknown_config_key_rejected(self, capsys, golden_config):
        cfg = golden_config()
        code, _, err = run(
            capsys, "ingest-check", "--config", str(cfg), "--set", "relevance.typo=1"
        )
        assert code == 2
        assert "unknown config key" in err

    def test_module_entry_point(self, golden_config):
        cfg = golden_config()
        result = subprocess.run(
            [sys.executable, "-m", "nextday.cli", "ingest-check", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert "articles=26" in result.stdout


def with_bad_byte(source: Path, target: Path, line: int) -> Path:
    """Copy of `source` with a 0xff byte, never valid UTF-8, in line `line`."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    target.write_bytes(b"".join(lines))
    return target


BUNDLED_DATA = Path(nextday.cli.__file__).parent / "data"


class TestBadInputs:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "key", ["sentiment_lexicon", "emotion_lexicon", "negators", "boosters"]
    )
    def test_lexicon_path_exit_two(self, capsys, golden_config, tmp_path, key, kind):
        cfg = golden_config()
        path = tmp_path / "absent.tsv" if kind == "missing" else tmp_path
        code, _, err = run(
            capsys, "features", "--config", str(cfg), "--scheme", "title_polarity",
            "--set", f"paths.{key}={path}",
        )
        assert code == 2
        assert_one_error_line(err, f"'paths.{key}'")
        assert repr(str(path)) in err

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_booster_exit_three(self, capsys, golden_config, tmp_path, value):
        cfg = golden_config()
        boosters = tmp_path / "boosters.tsv"
        boosters.write_text(f"very\t0.293\nso\t{value}\n")
        code, _, err = run(
            capsys, "features", "--config", str(cfg), "--scheme", "proposed",
            "--set", f"paths.boosters={boosters}",
        )
        assert code == 3
        assert_one_error_line(err, f"{boosters}:2: bad increment '{value}'")
        assert not (tmp_path / "out" / "features_proposed.csv").exists()

    @pytest.mark.parametrize(
        "key, bundled, line",
        [
            ("sentiment_lexicon", "sentiment.tsv", "give up\t1.5"),
            ("emotion_lexicon", "emotions.tsv", "can't\tanger\t1"),
            ("negators", "negators.txt", "no way"),
            ("boosters", "boosters.tsv", "naïve\t0.293"),
        ],
        ids=["sentiment", "emotion", "negators", "boosters"],
    )
    def test_lexicon_entry_of_two_tokens_exit_three(
        self, capsys, golden_config, tmp_path, key, bundled, line
    ):
        cfg = golden_config()
        path = tmp_path / bundled
        text = (BUNDLED_DATA / bundled).read_text(encoding="utf-8")
        path.write_text(text + line + "\n", encoding="utf-8")
        code, _, err = run(
            capsys, "features", "--config", str(cfg), "--scheme", "title_polarity",
            "--set", f"paths.{key}={json.dumps(str(path))}",
        )
        assert code == 3
        entry = line.split("\t")[0]
        assert_one_error_line(err, f"{path}:{len(text.splitlines()) + 1}: entry {entry!r} is not one token")
        assert not (tmp_path / "out" / "features_title_polarity.csv").exists()

    @pytest.mark.parametrize(
        "target, line, code",
        [
            ("articles", 3, 3),
            ("tweets", 7, 3),
            ("users", 2, 3),
            ("sentiment_lexicon", 4, 3),
            ("feature_csv", 5, 3),
            ("config", 3, 2),
        ],
        ids=["articles", "tweets", "users", "lexicon", "feature-csv", "config"],
    )
    def test_invalid_utf8(self, capsys, golden_config, golden_dir, tmp_path, target, line, code):
        cfg = golden_config()
        argv = ["ingest-check", "--config", str(cfg)]
        if target in ("articles", "tweets", "users"):
            bad = with_bad_byte(golden_dir / f"{target}.jsonl", tmp_path / "bad.jsonl", line)
            argv += ["--set", f"paths.{target}={bad}"]
            message = f"invalid UTF-8 at line {line} of {bad}"
        elif target == "sentiment_lexicon":
            bad = with_bad_byte(BUNDLED_DATA / "sentiment.tsv", tmp_path / "bad.tsv", line)
            argv = ["features", "--config", str(cfg), "--scheme", "title_polarity",
                    "--set", f"paths.sentiment_lexicon={bad}"]
            message = f"{bad}:{line}: invalid UTF-8"
        elif target == "feature_csv":
            features = ["features", "--config", str(cfg), "--scheme", "title_polarity"]
            assert run(capsys, *features)[0] == 0
            bad = tmp_path / "out" / "features_title_polarity.csv"
            with_bad_byte(bad, bad, line)
            argv = ["evaluate", "--config", str(cfg), "--scheme", "title_polarity"]
            message = f"{bad}:{line}: invalid UTF-8"
        else:
            bad = with_bad_byte(cfg, cfg, line)
            message = f"{bad}:{line}: invalid UTF-8"
        status, _, err = run(capsys, *argv)
        assert status == code
        assert_one_error_line(err, message)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"k": 5, "sch', "truncated or invalid report"),
            (b'{"k": 5}', "missing field 'seeds'"),
            (b'{"k": 5, "seeds": [1], "schemes": {"proposed": {}}}', "missing field 'classifiers'"),
            (b'{"k": 5, "seeds": [1], "schemes": []}', "truncated or invalid report"),
            (b'{"k": 5, "seeds": ["\xff"]}', "truncated or invalid report"),
        ],
        ids=["cut", "no-seeds", "no-classifiers", "schemes-not-object", "bad-utf8"],
    )
    def test_bad_report_exit_three(self, capsys, golden_config, tmp_path, content, message):
        cfg = golden_config()
        path = tmp_path / "out" / "report.json"
        path.parent.mkdir()
        path.write_bytes(content)
        code, _, err = run(capsys, "report", "--config", str(cfg))
        assert code == 3
        assert_one_error_line(err, f"{path}: ")
        assert message in err
        assert not (tmp_path / "out" / "report.md").exists()


# Runs one CLI stage, then reports whether the process loaded numpy and
# which `nextday` modules it loaded.
LOADED_MODULES_PROBE = """
import json, sys
from nextday.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "nextday": sorted(m for m in sys.modules if m.startswith("nextday")),
}))
sys.exit(code)
"""

# Stage runs, in order, and the stage packages each loads; a run loads
# none of the others.
STAGE_RUNS = {
    "ingest-check": (["ingest-check"], set()),
    "associate": (["associate"], {"nextday.relevance"}),
    "features": (
        ["features", "--scheme", "all"],
        {"nextday.features", "nextday.lexicons", "nextday.relevance"},
    ),
    "features-baseline": (
        ["features", "--scheme", "title_polarity"], {"nextday.features", "nextday.lexicons"}
    ),
    "evaluate": (["evaluate", "--scheme", "proposed"], {"nextday.learn"}),
    "report": (["report"], set()),
}


class TestColdStart:
    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """The probe's report for each stage, run in order on the golden corpus."""
        cfg = str(write_golden_config(tmp_path_factory.mktemp("stages")))
        reports = {}
        for run_name, (argv, _) in STAGE_RUNS.items():
            result = subprocess.run(
                [sys.executable, "-c", LOADED_MODULES_PROBE, *argv, "--config", cfg],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert result.returncode == 0, result.stderr
            reports[run_name] = json.loads(result.stdout.splitlines()[-1])
        return reports

    def test_only_evaluate_loads_numpy(self, loaded):
        for run_name, report in loaded.items():
            loads_learn = run_name == "evaluate"
            learn = [m for m in report["nextday"] if m.startswith("nextday.learn")]
            assert report["numpy"] is loads_learn, run_name
            assert bool(learn) is loads_learn, (run_name, learn)

    def test_each_stage_loads_only_its_packages(self, loaded):
        stage_packages = set().union(*(wanted for _, wanted in STAGE_RUNS.values()))
        for run_name, (_, wanted) in STAGE_RUNS.items():
            packages = {".".join(m.split(".")[:2]) for m in loaded[run_name]["nextday"]}
            assert packages & stage_packages == wanted, run_name

    def test_corpus_indexes_built_only_by_associate(self, capsys, golden_config, monkeypatch):
        corpora = []

        def load_corpus(*paths):
            corpora.append(nextday.corpus.load_corpus(*paths))
            return corpora[-1]

        monkeypatch.setattr(nextday.cli, "load_corpus", load_corpus)
        cfg = str(golden_config())
        assert run(capsys, "ingest-check", "--config", cfg)[0] == 0
        assert run(capsys, "associate", "--config", cfg)[0] == 0
        indexes = {"hashtag_index", "tweet_date_index"}
        checked, associated = corpora
        assert indexes.isdisjoint(vars(checked))
        assert indexes <= set(vars(associated))

    def test_tracer_binds_every_traced_name(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        from tracing import Tracer

        assert Tracer().missing == set()
        # the tracer reads the `data` argument of every kfold_cv call
        assert list(inspect.signature(nextday.cli.kfold_cv).parameters) == [
            "data", "classifier_cfgs", "plans",
        ]

    def test_traced_golden_run_fills_every_layer_metric(self, monkeypatch, golden_config, tmp_path):
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        from tracing import Tracer, association_counts, layer_metrics
        from workloads import STAGES, WORKLOADS, stage_argv

        common = ["--config", str(golden_config())]
        tracer = Tracer()
        tracer.install()
        try:
            for stage in STAGES:
                argv = stage_argv(WORKLOADS["golden-26"], stage, common)
                assert tracer.run_stage(stage, lambda: main(argv)) == 0
        finally:
            tracer.uninstall()
        assoc = association_counts(tmp_path / "out" / "associations.jsonl")
        metrics = {name: value for name, (value, _) in layer_metrics(tracer, assoc, 0.0).items()}
        assert [name for name, value in metrics.items() if value is None] == []
        relevance_calls = {
            name: n
            for name, n in metrics.items()
            if name.startswith("relevance.") and name.endswith(".calls")
        }
        assert len(relevance_calls) == 5
        assert min(relevance_calls.values()) >= 1
        # one assemble_matrix call per scheme, each scoring only what the memo lacks
        for scheme in ALL_SCHEMES:
            assert metrics[f"features.assemble_matrix.{scheme}.s"] > 0, scheme
        assert metrics["lexicons.score_sentiment.calls"] == 216
        assert metrics["lexicons.tag_emotions.calls"] == 164
        # 6 schemes x 5 folds per classifier; shared random draws leave
        # every fit's size and every tree's growth as they were
        assert metrics["learn.train_svm.calls"] == 30
        assert metrics["learn.train_forest.calls"] == 30
        assert metrics["learn.svm.steps"] == 124_800
        # the compiled grower searches no node in `best_split`; the Python
        # grower's 220 rounds and 2,010 searched nodes are counted in test_learn.py
        assert metrics["learn.best_split.calls"] == 0
        assert metrics["learn.best_split.self_s"] == 0
