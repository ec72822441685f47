"""Offline corpus: articles, tweets, user profiles, and their id lookups.

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
from datetime import date, datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

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
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:  # the UTC value falls outside years 1-9999
        raise ValueError(f"timestamp out of range in UTC: {value!r}") from None


class NewsArticle(NamedTuple):
    id: str
    title: str
    body: str
    published_at: datetime
    label: int
    section: str | None = None

    @property
    def published_day(self) -> date:
        return self.published_at.date()


class Tweet(NamedTuple):
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


class UserProfile(NamedTuple):
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


def _require(obj: dict, key: str, line_no: int, path):
    if key not in obj:
        raise CorpusError(f"missing field '{key}' at line {line_no} of {path}")
    return obj[key]


def _require_str(obj: dict, key: str, line_no: int, path) -> str:
    value = _require(obj, key, line_no, path)
    if not isinstance(value, str):
        raise CorpusError(f"field '{key}' must be a string at line {line_no} of {path}")
    return value

def _require_count(obj: dict, key: str, line_no: int, path) -> int:
    value = _require(obj, key, line_no, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CorpusError(f"field '{key}' must be an integer at line {line_no} of {path}")
    if value < 0:
        raise CorpusError(f"negative {key} at line {line_no} of {path}")
    return value


def _require_timestamp(obj: dict, key: str, line_no: int, path) -> datetime:
    value = _require(obj, key, line_no, path)
    try:
        return parse_rfc3339(value)
    except ValueError as exc:
        raise CorpusError(f"bad {key} at line {line_no} of {path}: {exc}") from None


def normalize_hashtag(tag: str) -> str:
    return tag.lstrip("#").lower()


def load_articles(path) -> list[NewsArticle]:
    """Read articles.jsonl; order preserved, ids checked for uniqueness."""
    articles: list[NewsArticle] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        article_id = _require_str(obj, "id", line_no, path)
        if article_id in seen:
            raise CorpusError(f"duplicate article id '{article_id}' at line {line_no} of {path}")
        seen.add(article_id)
        title = _require_str(obj, "title", line_no, path)
        body = _require_str(obj, "body", line_no, path)
        if not title.strip() or not body.strip():
            raise CorpusError(f"empty title or body at line {line_no} of {path}")
        label = _require(obj, "label", line_no, path)
        if isinstance(label, bool) or not isinstance(label, int):
            raise CorpusError(f"label must be an integer at line {line_no} of {path}")
        if label not in (0, 1):
            raise CorpusError(f"label out of range at line {line_no} of {path}")
        section = obj.get("section")
        if section is not None and not isinstance(section, str):
            raise CorpusError(f"field 'section' must be a string at line {line_no} of {path}")
        articles.append(
            NewsArticle(
                id=article_id,
                title=title,
                body=body,
                published_at=_require_timestamp(obj, "published_at", line_no, path),
                label=label,
                section=section,
            )
        )
    return articles


def load_tweets(path) -> list[Tweet]:
    """Read tweets.jsonl; hashtags = supplied set union tags found in text.

    Each record is checked here, field by field in a fixed order: id,
    duplicate id, text, hashtags, user_id, created_at, retweet_count,
    favorite_count. A field that fails is passed to its `_require_*`
    helper, which raises the error naming the field and line.
    """
    tweets: list[Tweet] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        tweet_id = obj.get("id")
        if not isinstance(tweet_id, str):
            _require_str(obj, "id", line_no, path)
        if tweet_id in seen:
            raise CorpusError(f"duplicate tweet id '{tweet_id}' at line {line_no} of {path}")
        seen.add(tweet_id)
        text = obj.get("text")
        if not isinstance(text, str):
            _require_str(obj, "text", line_no, path)
        supplied = obj.get("hashtags", [])
        if not isinstance(supplied, list) or not all(isinstance(h, str) for h in supplied):
            raise CorpusError(
                f"field 'hashtags' must be a list of strings at line {line_no} of {path}"
            )
        hashtags = extract_hashtags(text)
        for tag in supplied:
            normalized = normalize_hashtag(tag)
            if not _HASHTAG_OK_RE.fullmatch(normalized):
                raise CorpusError(f"invalid hashtag {tag!r} at line {line_no} of {path}")
            hashtags.add(normalized)
        user_id = obj.get("user_id")
        if not isinstance(user_id, str):
            _require_str(obj, "user_id", line_no, path)
        try:
            created_at = parse_rfc3339(obj["created_at"])
        except (KeyError, ValueError):
            _require_timestamp(obj, "created_at", line_no, path)
        retweets = obj.get("retweet_count")
        if type(retweets) is not int or retweets < 0:  # a bool is no count
            _require_count(obj, "retweet_count", line_no, path)
        favorites = obj.get("favorite_count")
        if type(favorites) is not int or favorites < 0:
            _require_count(obj, "favorite_count", line_no, path)
        tweets.append(
            Tweet(tweet_id, text, user_id, created_at, retweets, favorites, frozenset(hashtags))
        )
    return tweets


def load_users(path) -> list[UserProfile]:
    """Read users.jsonl; duplicate user_ids are rejected."""
    users: list[UserProfile] = []
    seen: set[str] = set()
    for line_no, obj in _read_jsonl(path):
        user_id = _require_str(obj, "user_id", line_no, path)
        if user_id in seen:
            raise CorpusError(f"duplicate user_id '{user_id}' at line {line_no} of {path}")
        seen.add(user_id)
        verified = _require(obj, "verified", line_no, path)
        if not isinstance(verified, bool):
            raise CorpusError(f"field 'verified' must be a boolean at line {line_no} of {path}")
        users.append(
            UserProfile(
                user_id=user_id,
                followers_count=_require_count(obj, "followers_count", line_no, path),
                last_active_at=_require_timestamp(obj, "last_active_at", line_no, path),
                verified=verified,
            )
        )
    return users


class Corpus(NamedTuple):
    """Immutable article/tweet/user collections plus lookups by id.

    The collections keep their files' order. A stage that needs another
    grouping builds it: `associate_all` groups tweets by day itself.
    """

    articles: tuple[NewsArticle, ...]
    tweets: tuple[Tweet, ...]
    users: tuple[UserProfile, ...]
    article_by_id: dict[str, NewsArticle]
    tweet_by_id: dict[str, Tweet]
    user_by_id: dict[str, UserProfile]
    diagnostics: tuple[dict, ...] = ()


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


def emit_event(event: dict, stream: IO[str] | None = None) -> None:
    """Write `event` as one single-line JSON object to `stream` (stderr by
    default): every warning of the pipeline takes this shape."""
    (stream if stream is not None else sys.stderr).write(json.dumps(event) + "\n")


def emit_diagnostics(corpus: Corpus, stream: IO[str] | None = None) -> None:
    """Write each of the corpus's diagnostics as one event."""
    for diag in corpus.diagnostics:
        emit_event(diag, stream)


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
