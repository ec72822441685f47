import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nextday.cli
from nextday.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ],
        ids=["mid-line", "three-lines"],
    )
    def test_bad_associations_exit_three(self, capsys, golden_config, tmp_path, cut, message):
        cfg = golden_config()
        assert run(capsys, "associate", "--config", str(cfg))[0] == 0
        path = tmp_path / "out" / "associations.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        if cut == "mid-line":
            path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        else:
            path.write_bytes(b"".join(lines[:3]))
        code, _, err = run(capsys, "features", "--config", str(cfg), "--scheme", "proposed")
        assert code == 3
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

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
        stats = report["schemes"]["proposed"]["classifiers"]["cart"]["f_score"]
        assert len(stats["values"]) == 3
        assert stats["min"] <= stats["mean"] <= stats["max"]

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
            [sys.executable, "-c", POOL_PROBE, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        pooled = json.loads(result.stdout.splitlines()[-1])["pool"]
        assert pooled is (len(os.sched_getaffinity(0)) > 1)
        for name, expected in serial.items():
            assert (out / name).read_bytes() == expected, name

    def test_worker_error_keeps_exit_code(self, prepared):
        result = subprocess.run(
            [
                sys.executable, "-c", POOL_PROBE, "evaluate", "--config", str(prepared),
                "--scheme", "all", "--set", "learn.k=20",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "insufficient class support" in result.stderr
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout.splitlines()[-1])["pool"] is (
            len(os.sched_getaffinity(0)) > 1
        )

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

    def test_report_command_rerenders(self, capsys, prepared, tmp_path):
        assert run(capsys, "evaluate", "--config", str(prepared), "--scheme", "proposed")[0] == 0
        md = tmp_path / "out" / "report.md"
        md.unlink()
        code, out, _ = run(capsys, "report", "--config", str(prepared))
        assert code == 0
        assert md.exists()
        assert "RFC" in out


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
        )
        assert result.returncode == 0
        assert "articles=26" in result.stdout


# Runs one CLI stage, then reports which heavy modules the process loaded.
LOADED_MODULES_PROBE = """
import json, sys
from nextday.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "learn": sorted(m for m in sys.modules if m.startswith("nextday.learn")),
}))
sys.exit(code)
"""


class TestColdStart:
    def test_only_evaluate_loads_numpy(self, golden_config):
        cfg = str(golden_config())
        stages = [
            (["ingest-check"], False),
            (["associate"], False),
            (["features", "--scheme", "all"], False),
            (["evaluate", "--scheme", "proposed"], True),
            (["report"], False),
        ]
        for argv, loads_learn in stages:
            result = subprocess.run(
                [sys.executable, "-c", LOADED_MODULES_PROBE, *argv, "--config", cfg],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            loaded = json.loads(result.stdout.splitlines()[-1])
            assert loaded["numpy"] is loads_learn, argv
            assert bool(loaded["learn"]) is loads_learn, (argv, loaded["learn"])

    def test_tracer_binds_every_traced_name(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from tracing import Tracer

        assert Tracer().missing == set()
        # the tracer reads the `data` argument of every kfold_cv call
        assert list(inspect.signature(nextday.cli.kfold_cv).parameters) == [
            "data", "k", "classifier_cfgs", "seed",
        ]
