"""Associate tweets to articles via keyword seeds and hashtag expansion.

Seeding finds same-day tweets sharing enough of an article's top TF-IDF
keywords. Hashtags harvested from the matched tweets are split into
generic tags (frequent across the prior 30 days) and article-specific
tags; the latter pull in further same-day tweets until a fixpoint.

`associate_all` makes one pass over the corpus in day order through five
steps: `tfidf_keywords` once for the corpus, then per day `seed_tweets`,
`build_history` (a running sum of per-day buckets) and, per article,
`expand_association`, which asks `classify_hashtags` for the generic
ones among its new hashtags; the rest are article-specific. Each article
and each tweet is tokenized at most once and document frequencies are
counted once.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from datetime import date, timedelta
from typing import IO, Iterable, Mapping, NamedTuple

from nextday.config import RelevanceParams
from nextday.corpus import Corpus, DatasetError, NewsArticle, Tweet, atomic_write, emit_event
from nextday.text import content_tokens, default_stopwords

MIN_TOKEN_LENGTH = 3


class ArticleAssociation(NamedTuple):
    article_id: str
    seed_tweet_ids: frozenset[str]
    expanded_tweet_ids: frozenset[str]
    article_specific_hashtags: frozenset[str]
    generic_hashtags: frozenset[str]
    iterations_run: int


class HistoryWindow(NamedTuple):
    """What hashtag labelling reads from the days before an article's day."""

    empty: bool  # no tweet in the window
    hashtag_counts: Mapping[str, int]
    # distinct prior articles whose seed tweets carry the hashtag
    article_counts: Mapping[str, int]
    # nearest-rank generic_frequency_quantile of hashtag_counts
    threshold: int


def article_text(article: NewsArticle, source: str) -> str:
    if source == "title":
        return article.title
    if source == "title_body":
        return article.title + "\n" + article.body
    raise ValueError(f"unknown keywords source {source!r}")


def _index_tokens(text: str, stopwords) -> list[str]:
    return [t for t in content_tokens(text, stopwords) if len(t) >= MIN_TOKEN_LENGTH]


def _keyword_scores(
    tokens: list[str], df: Mapping[str, int], n_docs: int, k: int
) -> tuple[tuple[str, float], ...]:
    """Top-k (token, TF-IDF) pairs of one non-empty token list.

    TF is the token's count over the list's length; IDF is ln(1 + D/df)
    with D = `n_docs`. Score ties rank the lexicographically smaller
    token first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = Counter(tokens)
    total = len(tokens)
    scored = [
        (token, (count / total) * math.log(1.0 + n_docs / df[token]))
        for token, count in counts.items()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])


def tfidf_keywords(
    articles: Iterable[NewsArticle], params: RelevanceParams, stopwords
) -> dict[str, tuple[tuple[str, float], ...]]:
    """Top `params.keyword_count` (token, TF-IDF) pairs of each article, by id.

    Document frequencies and D count every article in `articles`; an
    article with no indexable tokens counts in D and gets no entry.
    """
    articles = list(articles)
    token_lists = [
        _index_tokens(article_text(a, params.keywords_source), stopwords) for a in articles
    ]
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    return {
        a.id: _keyword_scores(tokens, df, len(articles), params.keyword_count)
        for a, tokens in zip(articles, token_lists)
        if tokens
    }


def seed_tweets(
    keywords: Mapping[str, set[str]],
    tweets: Iterable[Tweet],
    min_overlap: int,
    stopwords,
) -> dict[str, set[str]]:
    """Per article id, the tweets sharing at least `min_overlap` of its keywords.

    Each tweet is tokenized once however many articles it is checked
    against, and not at all when no article has keywords.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    articles_by_keyword: dict[str, list[str]] = {}
    for article_id, tokens in keywords.items():
        for token in tokens:
            articles_by_keyword.setdefault(token, []).append(article_id)
    seeds: dict[str, set[str]] = {article_id: set() for article_id in keywords}
    if not articles_by_keyword:
        return seeds
    for tweet in tweets:
        hits = [
            article_id
            for token in set(content_tokens(tweet.text, stopwords))
            for article_id in articles_by_keyword.get(token, ())
        ]
        if len(hits) < min_overlap:
            continue
        for article_id, overlap in Counter(hits).items():
            if overlap >= min_overlap:
                seeds[article_id].add(tweet.id)
    return seeds


def _seed_hashtag_articles(
    seeds: Mapping[str, Iterable[str]], corpus: Corpus
) -> dict[str, set[str]]:
    """For each hashtag, the articles whose seed tweets carry it."""
    tagged: dict[str, set[str]] = {}
    for article_id, tweet_ids in seeds.items():
        for tweet_id in tweet_ids:
            for tag in corpus.tweet_by_id[tweet_id].hashtags:
                tagged.setdefault(tag, set()).add(article_id)
    return tagged


def _nearest_rank(values: Iterable[int], q: float) -> int:
    """Nearest-rank q-quantile of `values` (0 when empty)."""
    counts = sorted(values)
    if not counts:
        return 0
    rank = max(1, math.ceil(q * len(counts)))
    return counts[min(rank, len(counts)) - 1]


def _subtract(total: Counter[str], part: Mapping[str, int]) -> None:
    """total -= part, dropping keys that reach zero."""
    for key, n in part.items():
        left = total[key] - n
        if left:
            total[key] = left
        else:
            del total[key]


class _SlidingHistory:
    """Per-day buckets and their running sums.

    Each bucket holds one day's tweet count, hashtag usage counts and,
    per hashtag, how many of that day's articles carry it in their seed
    tweets. An article belongs to one day, so summing those counts over
    days counts distinct articles. Days are added in increasing order,
    each after its own window was read.
    """

    def __init__(self):
        self.buckets: deque[tuple[date, int, dict[str, int], dict[str, int]]] = deque()
        self.tweets = 0
        self.hashtag_counts: Counter[str] = Counter()
        self.article_counts: Counter[str] = Counter()

    def add(
        self, day: date, tweets: int, hashtag_counts: dict[str, int], article_counts: dict[str, int]
    ) -> None:
        self.buckets.append((day, tweets, hashtag_counts, article_counts))
        self.tweets += tweets
        self.hashtag_counts.update(hashtag_counts)
        self.article_counts.update(article_counts)


def build_history(
    history: _SlidingHistory, day: date, params: RelevanceParams
) -> HistoryWindow:
    """The window over the `params.history_days` days before `day`.

    Buckets of days before the window are dropped from `history`, so
    successive calls must come in increasing `day` order.
    """
    start = day - timedelta(days=params.history_days)
    while history.buckets and history.buckets[0][0] < start:
        _, tweets, hashtag_counts, article_counts = history.buckets.popleft()
        history.tweets -= tweets
        _subtract(history.hashtag_counts, hashtag_counts)
        _subtract(history.article_counts, article_counts)
    return HistoryWindow(
        empty=history.tweets == 0,
        hashtag_counts=dict(history.hashtag_counts),
        article_counts=dict(history.article_counts),
        threshold=_nearest_rank(history.hashtag_counts.values(), params.generic_frequency_quantile),
    )


def classify_hashtags(
    candidate_hashtags: set[str], window: HistoryWindow, params: RelevanceParams
) -> set[str]:
    """The generic candidates; the others are article-specific.

    Generic requires attachment to enough distinct prior articles or a
    usage count above the window's frequency quantile. With an empty
    window every candidate is article-specific.
    """
    if window.empty:
        return set()
    return {
        tag
        for tag in candidate_hashtags
        if window.article_counts.get(tag, 0) >= params.generic_article_threshold
        or window.hashtag_counts.get(tag, 0) > window.threshold
    }


def expand_association(
    article_id: str,
    seed_ids: Iterable[str],
    window: HistoryWindow,
    day_tags: Mapping[str, Iterable[str]],
    corpus: Corpus,
    params: RelevanceParams,
) -> ArticleAssociation:
    """Grow `seed_ids` through article-specific hashtags.

    `day_tags` maps each hashtag to the ids of the article's day's tweets
    that carry it. Each iteration labels the newly harvested hashtags and
    admits every tweet listed under a new specific tag; it stops at a
    fixpoint or after `params.max_iterations` growth steps. A tweet's
    hashtags are harvested once, in the iteration after it joins: every
    tag of earlier tweets is already labelled, and every day tweet with an
    earlier specific tag has already joined.
    """
    current = set(seed_ids)
    fresh = set(current)
    specific: set[str] = set()
    generic: set[str] = set()
    iterations_run = 0
    for iteration in range(1, params.max_iterations + 1):
        harvested = set()
        for tweet_id in fresh:
            harvested.update(corpus.tweet_by_id[tweet_id].hashtags)
        candidates = harvested - specific - generic
        new_generic = classify_hashtags(candidates, window, params)
        new_specific = candidates - new_generic
        generic |= new_generic
        specific |= new_specific
        fresh = {
            tweet_id
            for tag in new_specific
            for tweet_id in day_tags.get(tag, ())
            if tweet_id not in current
        }
        if not fresh:
            break
        current.update(fresh)
        iterations_run = iteration

    return ArticleAssociation(
        article_id=article_id,
        seed_tweet_ids=frozenset(seed_ids),
        expanded_tweet_ids=frozenset(current),
        article_specific_hashtags=frozenset(specific),
        generic_hashtags=frozenset(generic),
        iterations_run=iterations_run,
    )


def associate_all(
    corpus: Corpus, params: RelevanceParams, stream: IO[str] | None = None
) -> list[ArticleAssociation]:
    """Associations for every article, ordered by article id.

    Articles and tweets are grouped by day in one pass, and days are
    visited in order. A day's tweets are tokenized against that day's
    articles; one map from hashtag to the day's tweet ids serves both the
    expansion of the day's articles and the day's history bucket, which
    joins the window after its own articles are expanded. An article with
    no indexable tokens gets an empty association and one
    `unindexable_article` JSON-lines event on `stream` (stderr by default).
    An article whose history window is empty, so that all its hashtags
    were labelled article-specific, gets one `empty_history_window` event
    there when it has any; these follow in article id order.
    """
    stopwords = default_stopwords()
    profiles = tfidf_keywords(corpus.articles, params, stopwords)
    for article_id in sorted(a.id for a in corpus.articles if a.id not in profiles):
        emit_event({"kind": "unindexable_article", "article_id": article_id}, stream)

    articles_on: dict[date, list[NewsArticle]] = {}
    for a in corpus.articles:
        articles_on.setdefault(a.published_day, []).append(a)
    tweets_by_day: dict[date, list[Tweet]] = {}
    for t in corpus.tweets:
        tweets_by_day.setdefault(t.created_day, []).append(t)
    history = _SlidingHistory()
    associations = []
    no_history: set[str] = set()
    for day in sorted(tweets_by_day.keys() | articles_on.keys()):
        day_articles = articles_on.get(day, [])
        day_tweets = tweets_by_day.get(day, [])
        day_tags: dict[str, list[str]] = {}
        for tweet in day_tweets:
            for tag in tweet.hashtags:
                day_tags.setdefault(tag, []).append(tweet.id)
        keywords = {
            a.id: {token for token, _ in profiles[a.id]} for a in day_articles if a.id in profiles
        }
        seeds = seed_tweets(keywords, day_tweets, params.min_overlap, stopwords)
        if day_articles:
            window = build_history(history, day, params)
            if window.empty:
                no_history.update(a.id for a in day_articles)
            for a in day_articles:
                if a.id in seeds:
                    associations.append(
                        expand_association(a.id, seeds[a.id], window, day_tags, corpus, params)
                    )
                else:
                    empty = frozenset()
                    associations.append(ArticleAssociation(a.id, empty, empty, empty, empty, 0))
        # a tweet's hashtags form a set, so each id list counts the tag's uses
        history.add(
            day,
            len(day_tweets),
            {tag: len(ids) for tag, ids in day_tags.items()},
            {tag: len(ids) for tag, ids in _seed_hashtag_articles(seeds, corpus).items()},
        )
    associations.sort(key=lambda a: a.article_id)
    for assoc in associations:
        if assoc.article_specific_hashtags and assoc.article_id in no_history:
            emit_event({"kind": "empty_history_window", "article_id": assoc.article_id}, stream)
    return associations


def association_to_dict(assoc: ArticleAssociation) -> dict:
    return {
        "article_id": assoc.article_id,
        "seed_tweet_ids": sorted(assoc.seed_tweet_ids),
        "expanded_tweet_ids": sorted(assoc.expanded_tweet_ids),
        "article_specific_hashtags": sorted(assoc.article_specific_hashtags),
        "generic_hashtags": sorted(assoc.generic_hashtags),
        "iterations_run": assoc.iterations_run,
    }


def write_associations(path, associations: list[ArticleAssociation]) -> None:
    ordered = sorted(associations, key=lambda a: a.article_id)
    with atomic_write(path) as fh:
        for assoc in ordered:
            fh.write(json.dumps(association_to_dict(assoc), ensure_ascii=False) + "\n")


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def load_associations(path) -> list[ArticleAssociation]:
    """Read `write_associations` output.

    A line that is not a JSON association record, or one that repeats an
    earlier line's article id, raises DatasetError naming path:line. A
    record has a string `article_id`, lists of strings for its tweet ids
    and hashtags, and a non-negative integer `iterations_run`; a line cut
    short by an interrupted copy is not one.
    """
    associations = []
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:  # invalid JSON or invalid UTF-8
                raise DatasetError(f"{path}:{line_no}: truncated or invalid JSON line") from None
            try:
                article_id, *lists, iterations = [obj[name] for name in ArticleAssociation._fields]
            except KeyError as exc:
                raise DatasetError(f"{path}:{line_no}: missing field {exc.args[0]!r}") from None
            except TypeError:  # the line holds no JSON object
                raise DatasetError(f"{path}:{line_no}: not an association record") from None
            if not (
                isinstance(article_id, str)
                and all(_is_string_list(ids) for ids in lists)
                and type(iterations) is int  # not a bool
                and iterations >= 0
            ):
                raise DatasetError(f"{path}:{line_no}: not an association record")
            first = first_line.setdefault(article_id, line_no)
            if first != line_no:
                raise DatasetError(
                    f"{path}:{line_no}: article id {article_id!r} repeats line {first}"
                )
            associations.append(ArticleAssociation(article_id, *map(frozenset, lists), iterations))
    return associations
