"""Small builders shared across test modules."""

import io
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

from nextday.corpus import NewsArticle, Tweet, UserProfile, build_corpus
from nextday.text import extract_hashtags

GOLDEN = Path(__file__).parent / "data" / "golden"
SRC = Path(__file__).parents[1] / "src"


def child_env() -> dict:
    """This environment with the checkout's `src/` first on PYTHONPATH, so a
    child interpreter imports the same `nextday` as the tests."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def write_golden_config(directory: Path, **overrides) -> Path:
    """A config file pointing at the golden corpus, output under `directory`."""
    tree = {
        "paths": {
            "articles": str(GOLDEN / "articles.jsonl"),
            "tweets": str(GOLDEN / "tweets.jsonl"),
            "users": str(GOLDEN / "users.jsonl"),
            "output_dir": str(directory / "out"),
        },
        "learn": {"k": 5, "seed": 2016, "forest": {"n_trees": 25}},
    }
    for key, value in overrides.items():
        tree.setdefault(key, {}).update(value)
    path = directory / "config.json"
    path.write_text(json.dumps(tree, indent=2))
    return path


def utc(year=2016, month=8, day=3, hour=12, minute=0) -> datetime:
    return datetime(year, month, day, hour, minute, tzinfo=timezone.utc)


def article(id="a1", title="Budget vote", body="The budget vote passed.", when=None, label=0):
    return NewsArticle(
        id=id, title=title, body=body, published_at=when or utc(), label=label
    )


def tweet(id="t1", text="hello world", user_id="u1", when=None, rt=0, fav=0, hashtags=()):
    return Tweet(
        id=id,
        text=text,
        user_id=user_id,
        created_at=when or utc(),
        retweet_count=rt,
        favorite_count=fav,
        hashtags=frozenset(hashtags) | extract_hashtags(text),
    )


def user(user_id="u1", followers=10, last_active=None, verified=False):
    return UserProfile(
        user_id=user_id,
        followers_count=followers,
        last_active_at=last_active or utc(month=8, day=1),
        verified=verified,
    )


def corpus_of(articles=(), tweets=(), users=()):
    return build_corpus(list(articles), list(tweets), list(users))


def history_windows(corpus, params) -> dict:
    """Per article day, the history window `associate_all` builds for it."""
    from nextday import relevance

    windows = {}
    build_history = relevance.build_history

    def capture(history, day, params):
        windows[day] = build_history(history, day, params)
        return windows[day]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relevance, "build_history", capture)
        relevance.associate_all(corpus, params, stream=io.StringIO())
    return windows
