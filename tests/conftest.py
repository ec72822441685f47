from pathlib import Path

import pytest

from util import GOLDEN, write_golden_config


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def golden_corpus():
    from nextday.corpus import load_corpus

    return load_corpus(
        GOLDEN / "articles.jsonl", GOLDEN / "tweets.jsonl", GOLDEN / "users.jsonl"
    )


@pytest.fixture(scope="session")
def golden_associations(golden_corpus):
    from nextday.relevance import RelevanceParams, associate_all

    return associate_all(golden_corpus, RelevanceParams())


@pytest.fixture(scope="session")
def lexicons():
    from nextday.lexicons import default_lexicons

    return default_lexicons()


@pytest.fixture()
def golden_config(tmp_path):
    """Config file pointing at the golden corpus, output under tmp_path."""

    def make(**overrides) -> Path:
        return write_golden_config(tmp_path, **overrides)

    return make
