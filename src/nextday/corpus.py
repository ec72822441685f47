"""Offline corpus: articles, tweets, user profiles, and their indexes.

File format is JSON-Lines throughout (one object per line). Loaders
validate eagerly and report the offending line number; a built Corpus is
immutable and safe to share across threads. Every file the pipeline
writes goes through `atomic_write`, so a reader never sees a partial one.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator

from nextday.text import extract_hashtags

_HASHTAG_OK_RE = re.compile(r"\w+", re.UNICODE)


class CorpusError(ValueError):
    """Invalid corpus input (malformed line, bad field, duplicate id)."""


class DatasetError(ValueError):
    """A stage artifact is malformed or incomplete, or its shape or class
    support makes the request impossible."""


class LexiconError(ValueError):
    """Malformed lexicon file."""


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    if not isinstance(value, str):
        raise ValueError(f"timestamp must be a string, got {type(value).__name__}")
    raw = value.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"not an RFC 3339 timestamp: {value!r}") from None
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp lacks a UTC offset: {value!r}")
    return parsed.astimezone(timezone.utc)


@dataclass(frozen=True)
class NewsArticle:
    id: str
    title: str
    body: str
    published_at: datetime
    label: int
    section: str | None = None

    @property
    def published_day(self) -> date:
        return self.published_at.date()


@dataclass(frozen=True)
class Tweet:
    id: str
    text: str
    user_id: str
    created_at: datetime
    retweet_count: int
    favorite_count: int
    hashtags: frozenset[str]

    @property
    def created_day(self) -> date:
        return self.created_at.date()


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    followers_count: int
    last_active_at: datetime
    verified: bool


def _read_jsonl(path) -> Iterable[tuple[int, dict]]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot open {path}: {exc.strerror}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusError(f"invalid UTF-8 at line {line_no} of {path}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"malformed JSON at line {line_no} of {path}: {exc.msg}"
                ) from None
            if not isinstance(obj, dict):
                raise CorpusError(f"line {line_no} of {path} is not a JSON object")
            yield line_no, obj


def _require(obj: dict, key: str, line_no: int):
    if key not in obj:
        raise CorpusError(f"missing field '{key}' at line {line_no}")
    return obj[key]


def _require_str(obj: dict, key: str, line_no: int) -> str:
    value = _require(obj, key, line_no)
    if not isinstance(value, str):
        raise CorpusError(f"field '{key}' must be a string at line {line_no}")
    return value

def _require_count(obj: dict, key: str, line_no: int) -> int:
    value = _require(obj, key, line_no)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CorpusError(f"field '{key}' must be an integer at line {line_no}")
    if value < 0:
        raise CorpusError(f"negative {key} at line {line_no}")
    return value


def _require_timestamp(obj: dict, key: str, line_no: int) -> datetime:
    value = _require(obj, key, line_no)
    try:
        return parse_rfc3339(value)
    except ValueError as exc:
        raise CorpusError(f"bad {key} at line {line_no}: {exc}") from None


def normalize_hashtag(tag: str) -> str:
    return tag.lstrip("#").lower()


def load_articles(path) -> list[NewsArticle]:
    """Read articles.jsonl; order preserved, ids checked for uniqueness."""
    articles: list[NewsArticle] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        article_id = _require_str(obj, "id", line_no)
        if article_id in seen:
            raise CorpusError(f"duplicate article id '{article_id}' at line {line_no}")
        seen.add(article_id)
        title = _require_str(obj, "title", line_no)
        body = _require_str(obj, "body", line_no)
        if not title.strip() or not body.strip():
            raise CorpusError(f"empty title or body at line {line_no}")
        label = _require(obj, "label", line_no)
        if isinstance(label, bool) or not isinstance(label, int):
            raise CorpusError(f"label must be an integer at line {line_no}")
        if label not in (0, 1):
            raise CorpusError(f"label out of range at line {line_no}")
        section = obj.get("section")
        if section is not None and not isinstance(section, str):
            raise CorpusError(f"field 'section' must be a string at line {line_no}")
        articles.append(
            NewsArticle(
                id=article_id,
                title=title,
                body=body,
                published_at=_require_timestamp(obj, "published_at", line_no),
                label=label,
                section=section,
            )
        )
    return articles


def load_tweets(path) -> list[Tweet]:
    """Read tweets.jsonl; hashtags = supplied set union tags found in text."""
    tweets: list[Tweet] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        tweet_id = _require_str(obj, "id", line_no)
        if tweet_id in seen:
            raise CorpusError(f"duplicate tweet id '{tweet_id}' at line {line_no}")
        seen.add(tweet_id)
        text = _require_str(obj, "text", line_no)
        supplied = obj.get("hashtags", [])
        if not isinstance(supplied, list) or not all(isinstance(h, str) for h in supplied):
            raise CorpusError(f"field 'hashtags' must be a list of strings at line {line_no}")
        hashtags = set(extract_hashtags(text))
        for tag in supplied:
            normalized = normalize_hashtag(tag)
            if not _HASHTAG_OK_RE.fullmatch(normalized):
                raise CorpusError(f"invalid hashtag {tag!r} at line {line_no}")
            hashtags.add(normalized)
        tweets.append(
            Tweet(
                id=tweet_id,
                text=text,
                user_id=_require_str(obj, "user_id", line_no),
                created_at=_require_timestamp(obj, "created_at", line_no),
                retweet_count=_require_count(obj, "retweet_count", line_no),
                favorite_count=_require_count(obj, "favorite_count", line_no),
                hashtags=frozenset(hashtags),
            )
        )
    return tweets


def load_users(path) -> list[UserProfile]:
    """Read users.jsonl; duplicate user_ids are rejected."""
    users: list[UserProfile] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        user_id = _require_str(obj, "user_id", line_no)
        if user_id in seen:
            raise CorpusError(f"duplicate user_id '{user_id}' at line {line_no}")
        seen.add(user_id)
        verified = _require(obj, "verified", line_no)
        if not isinstance(verified, bool):
            raise CorpusError(f"field 'verified' must be a boolean at line {line_no}")
        users.append(
            UserProfile(
                user_id=user_id,
                followers_count=_require_count(obj, "followers_count", line_no),
                last_active_at=_require_timestamp(obj, "last_active_at", line_no),
                verified=verified,
            )
        )
    return users


@dataclass(frozen=True)
class Corpus:
    """Immutable article/tweet/user collections plus lookup indexes.

    Index iteration order is sorted by key; id lists inside the indexes
    are sorted too, so identical inputs always produce identical output.
    `hashtag_index` and `tweet_date_index` are built on first read. Only
    `nextday.relevance` reads them, so `ingest-check` and `features`
    never build them.
    """

    articles: tuple[NewsArticle, ...]
    tweets: tuple[Tweet, ...]
    users: tuple[UserProfile, ...]
    article_by_id: dict[str, NewsArticle] = field(repr=False)
    tweet_by_id: dict[str, Tweet] = field(repr=False)
    user_by_id: dict[str, UserProfile] = field(repr=False)
    diagnostics: tuple[dict, ...] = ()

    @cached_property
    def hashtag_index(self) -> dict[str, tuple[str, ...]]:
        return _sorted_index((h, t.id) for t in self.tweets for h in t.hashtags)

    @cached_property
    def tweet_date_index(self) -> dict[date, tuple[str, ...]]:
        return _sorted_index((t.created_day, t.id) for t in self.tweets)

    def tweets_on(self, day: date) -> list[Tweet]:
        return [self.tweet_by_id[t] for t in self.tweet_date_index.get(day, ())]


def _sorted_index(pairs: Iterable[tuple]) -> dict:
    index: dict = {}
    for key, value in pairs:
        index.setdefault(key, set()).add(value)
    return {key: tuple(sorted(index[key])) for key in sorted(index)}


def build_corpus(
    articles: list[NewsArticle],
    tweets: list[Tweet],
    users: list[UserProfile],
) -> Corpus:
    """Assemble a Corpus and its id lookups.

    Tweets whose user_id has no profile are kept; each unknown user_id
    produces one 'unresolved_user' diagnostic (never an error).
    """
    user_by_id = {u.user_id: u for u in users}
    diagnostics = [
        {"kind": "unresolved_user", "user_id": uid}
        for uid in sorted({t.user_id for t in tweets} - set(user_by_id))
    ]
    return Corpus(
        articles=tuple(articles),
        tweets=tuple(tweets),
        users=tuple(users),
        article_by_id={a.id: a for a in articles},
        tweet_by_id={t.id: t for t in tweets},
        user_by_id=user_by_id,
        diagnostics=tuple(diagnostics),
    )


def emit_diagnostics(corpus: Corpus, stream: IO[str] | None = None) -> None:
    """Write one single-line JSON object per diagnostic to stderr."""
    stream = stream if stream is not None else sys.stderr
    for diag in corpus.diagnostics:
        stream.write(json.dumps(diag, sort_keys=False) + "\n")


@contextmanager
def atomic_write(path, newline: str | None = None) -> Iterator[IO[str]]:
    """A UTF-8 text file that replaces `path` only when the block completes.

    The text goes to a temporary file in the same directory, which
    `os.replace` then moves over `path`. If the block raises, the
    temporary file is removed and `path` keeps its previous bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_corpus(articles_path, tweets_path, users_path) -> Corpus:
    return build_corpus(
        load_articles(articles_path),
        load_tweets(tweets_path),
        load_users(users_path),
    )
