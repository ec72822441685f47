"""End-to-end acceptance suite.

Each test prints one ACCEPTANCE line (PASS/FAIL with elapsed time) and
enforces its runtime budget. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import itertools
import json
import math
import random
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nextday.cli import main
from nextday.config import CartConfig, ForestConfig, RelevanceParams, SvmConfig
from nextday.features import emotion_variance, sentiment_variance
from nextday.learn import f_score, stratified_folds, train_cart, train_forest, train_svm
from nextday.lexicons import SentimentLexicon, lexicons_from_paths, score_sentiment
from nextday.relevance import association_to_dict, classify_hashtags

from signal_corpus import write_signal_corpus
from util import history_windows


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number} {label}: FAIL ({elapsed:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)", file=sys.stderr)
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"


def compositions_of_at_most(total: int, parts: int):
    """All ordered tuples of `parts` non-negative ints summing to <= total."""
    for bars in itertools.combinations(range(total + parts), parts):
        previous = -1
        counts = []
        for bar in bars:
            counts.append(bar - previous - 1)
            previous = bar
        yield counts


def test_criterion_1_formula_oracles():
    with criterion(1, "sentiment/emotion variance oracles", 5.0):
        for pc in range(51):
            for nc in range(51):
                got = sentiment_variance(pc, nc)
                expected = 1.0 - abs(pc - nc) / (pc + nc) if pc + nc else 0.0
                assert got == expected
        assert sentiment_variance(5, 3) == 0.75

        checked = 0
        for counts in compositions_of_at_most(16, 8):
            got = emotion_variance(counts)
            mean = sum(counts) / 8
            acc = 0.0
            for c in counts:
                acc += (c - mean) ** 2
            assert got == acc / 8
            checked += 1
        assert checked == math.comb(24, 8)
        assert emotion_variance([8, 0, 0, 0, 0, 0, 0, 0]) == 7.0


def test_criterion_2_reported_metric_consistency():
    with criterion(2, "F-score consistency with reported precision/recall", 1.0):
        assert f_score(94.6, 83.33) == pytest.approx(88.6, abs=0.1)
        assert f_score(91.4, 84.2) == pytest.approx(87.6, abs=0.1)


def test_criterion_3_association_fixpoint(golden_dir, golden_corpus, golden_associations):
    with criterion(3, "hashtag labels and expansion on the golden corpus", 5.0):
        params = RelevanceParams()
        art = golden_corpus.article_by_id["a001"]
        history = history_windows(golden_corpus, params)[art.published_day]
        candidates = {"whitehouse", "trump2016", "chicago", "irandeal", "obamabetrayus"}
        # the other two, irandeal and obamabetrayus, are article-specific
        generic = classify_hashtags(candidates, history, params)
        assert generic == {"whitehouse", "trump2016", "chicago"}

        by_id = {a.article_id: association_to_dict(a) for a in golden_associations}
        with open(golden_dir / "expected_associations.jsonl") as fh:
            for line in fh:
                expected = json.loads(line)
                got = by_id[expected["article_id"]]
                assert got == expected
                assert got["iterations_run"] <= 3


def test_criterion_4_end_to_end_signal_recovery(tmp_path):
    with criterion(4, "signal recovery beats the title baseline", 120.0):
        corpus_dir = tmp_path / "corpus"
        stats = write_signal_corpus(corpus_dir)
        assert stats["articles"] == 300

        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "paths": {
                        "articles": str(corpus_dir / "articles.jsonl"),
                        "tweets": str(corpus_dir / "tweets.jsonl"),
                        "users": str(corpus_dir / "users.jsonl"),
                        "output_dir": str(out),
                    },
                    "learn": {"k": 10, "seed": 2016},
                }
            )
        )
        assert main(["associate", "--config", str(config)]) == 0
        assert main(["features", "--config", str(config), "--scheme", "proposed"]) == 0
        assert main(["features", "--config", str(config), "--scheme", "title_polarity"]) == 0
        assert main(["evaluate", "--config", str(config), "--scheme", "proposed"]) == 0
        proposed = json.loads((out / "report.json").read_text())
        assert main(["evaluate", "--config", str(config), "--scheme", "title_polarity"]) == 0
        baseline = json.loads((out / "report.json").read_text())

        def best_f(report, scheme):
            block = report["schemes"][scheme]["classifiers"]
            return max(block[name]["f_score"]["mean"] for name in block)

        proposed_best = best_f(proposed, "proposed")
        baseline_best = best_f(baseline, "title_polarity")
        assert proposed_best >= 90.0
        assert proposed_best - baseline_best >= 5.0


def test_criterion_5_classifier_unit_properties():
    with criterion(5, "classifier unit properties", 30.0):
        # greedy split choice matches the exact-arithmetic Gini table
        from test_learn import EIGHT_ROWS, EIGHT_X, EIGHT_Y, exact_split_table

        table = exact_split_table(EIGHT_ROWS, 0) + exact_split_table(EIGHT_ROWS, 1)
        best = max(table, key=lambda row: row[2])
        model = train_cart(EIGHT_X, EIGHT_Y, CartConfig(max_depth=3, min_samples_leaf=1))
        assert (model.feature[0], model.threshold[0]) == (best[0], best[1])
        assert list(model.predict(EIGHT_X)) == list(EIGHT_Y)

        rng = np.random.default_rng(17)
        x = rng.normal(size=(80, 6))
        y = (x[:, 2] > 0).astype(int)
        cart = train_cart(x, y, CartConfig())
        degenerate = train_forest(
            x, y, ForestConfig(n_trees=1, bootstrap=False, max_features=6)
        )
        probe = rng.normal(size=(1000, 6))
        assert np.array_equal(cart.predict(probe), degenerate.predict(probe))

        four_x = np.array([[-2.0, -1.0], [-2.0, 1.0], [2.0, -1.0], [2.0, 1.0]])
        four_y = np.array([0, 0, 1, 1])
        svm = train_svm(four_x, four_y, SvmConfig())
        assert np.array_equal(svm.predict(four_x), four_y)

        labels = np.array([1] * 180 + [0] * 120, dtype=np.int8)
        folds = stratified_folds(labels, 10, seed=4)
        assert [len(f) for f in folds] == [30] * 10
        for fold in folds:
            ones = sum(1 for i in fold if labels[i] == 1)
            assert abs(ones - 18) <= 1


def test_criterion_6_pipeline_determinism(tmp_path, golden_dir):
    with criterion(6, "byte-identical artifacts across reruns", 60.0):
        artifacts = {}
        for attempt in ("first", "second"):
            out = tmp_path / attempt
            config = tmp_path / f"config_{attempt}.json"
            config.write_text(
                json.dumps(
                    {
                        "paths": {
                            "articles": str(golden_dir / "articles.jsonl"),
                            "tweets": str(golden_dir / "tweets.jsonl"),
                            "users": str(golden_dir / "users.jsonl"),
                            "output_dir": str(out),
                        },
                        "learn": {"k": 5, "seed": 2016, "forest": {"n_trees": 25}},
                    }
                )
            )
            assert main(["associate", "--config", str(config)]) == 0
            assert main(["features", "--config", str(config), "--scheme", "all"]) == 0
            assert main(["evaluate", "--config", str(config), "--scheme", "all"]) == 0
            artifacts[attempt] = {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.name != "run_meta.json"
            }
        names = set(artifacts["first"])
        assert {"associations.jsonl", "report.json", "report.md"} <= names
        assert sum(1 for n in names if n.startswith("features_")) == 6
        assert artifacts["first"] == artifacts["second"]


def test_criterion_7_sentiment_scorer_contract():
    with criterion(7, "sentiment scorer bounds and symmetries", 10.0):
        lexicon = lexicons_from_paths().sentiment
        mirrored = SentimentLexicon(
            entries={k: -v for k, v in lexicon.entries.items()},
            negators=lexicon.negators,
            boosters=lexicon.boosters,
        )
        rng = random.Random(99)
        vocabulary = (
            list(lexicon.entries)[:200]
            + [w.upper() for w in list(lexicon.entries)[:50]]
            + list(lexicon.negators)
            + list(lexicon.boosters)
            + ["the", "and", "x", "#tag", "12345", "...", "¯\\_(ツ)_/¯", "naïve"]
        )
        for _ in range(10_000):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 12)))
            compound = score_sentiment(text, lexicon)
            assert -1.0 < compound < 1.0

        safe = [w for w in list(lexicon.entries)[:80] if w not in lexicon.boosters] + [
            "table", "window", "door"
        ]
        for _ in range(1_000):
            text = " ".join(rng.choice(safe) for _ in range(rng.randint(0, 8)))
            assert score_sentiment(text, mirrored) == -score_sentiment(text, lexicon)
            grown = (text + " peace").strip()
            assert score_sentiment(grown, lexicon) >= score_sentiment(text, lexicon)
