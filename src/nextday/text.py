"""Shared text utilities: tokenization and stop words."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
_CASED_TOKEN_RE = re.compile(r"[A-Za-z0-9_']+")
_HASHTAG_RE = re.compile(r"#([A-Za-z0-9_]+)")


def decode_utf8(data: bytes, path, error: type[Exception]) -> str:
    """`data` decoded as UTF-8; invalid bytes raise `error` naming
    path:line of the first one."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: invalid UTF-8") from None


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens; punctuation acts as a separator."""
    return _TOKEN_RE.findall(text.lower())


def is_token(word: str) -> bool:
    """Whether `tokenize` can yield `word`: the only lookup key it can match."""
    return _TOKEN_RE.fullmatch(word) is not None


def tokenize_cased(text: str) -> list[str]:
    """Tokens with original casing kept (for ALL-CAPS detection)."""
    return _CASED_TOKEN_RE.findall(text)


def extract_hashtags(text: str) -> set[str]:
    """Hashtag bodies found in raw text, lowercased, '#' stripped."""
    return {m.lower() for m in _HASHTAG_RE.findall(text)}


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    return frozenset(load_stopwords_resource())


def load_stopwords_resource() -> set[str]:
    data = resources.files("nextday.data").joinpath("stopwords.txt").read_text("utf-8")
    return load_stopwords_text(data)


def load_stopwords_text(data: str) -> set[str]:
    words = set()
    for line in data.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return words


def content_tokens(text: str, stopwords: frozenset[str] | set[str]) -> list[str]:
    """Tokens with stop words removed (order and duplicates kept)."""
    return [t for t in tokenize(text) if t not in stopwords]
