"""Associate tweets to articles via keyword seeds and hashtag expansion.

Seeding finds same-day tweets sharing enough of an article's top TF-IDF
keywords. Hashtags harvested from the matched tweets are split into
generic tags (frequent across the prior 30 days) and article-specific
tags; the latter pull in further same-day tweets until a fixpoint.

`associate_all` makes one pass over the corpus in day order: each article
and each tweet is tokenized at most once, document frequencies are counted once,
and the history window is a running sum of per-day buckets. The
single-article functions (`tfidf_keywords`, `seed_tweets`,
`build_history`, `classify_hashtags`, `expand_association`) are wrappers
over the same helpers.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import sys
from collections import Counter, deque
from dataclasses import dataclass
from datetime import date, timedelta
from typing import IO, Iterable, Mapping

from nextday.corpus import Corpus, NewsArticle, Tweet, atomic_write
from nextday.text import content_tokens, default_stopwords

log = logging.getLogger(__name__)

MIN_TOKEN_LENGTH = 3


class RelevanceError(ValueError):
    """Article cannot be profiled (e.g. no indexable tokens)."""


class HashtagKind(enum.Enum):
    GENERIC = "generic"
    ARTICLE_SPECIFIC = "article_specific"


@dataclass(frozen=True)
class KeywordProfile:
    article_id: str
    keywords: tuple[tuple[str, float], ...]

    def tokens(self) -> set[str]:
        return {token for token, _ in self.keywords}


@dataclass(frozen=True)
class HashtagLabel:
    hashtag: str
    kind: HashtagKind
    article_id: str | None = None


@dataclass(frozen=True)
class ArticleAssociation:
    article_id: str
    seed_tweet_ids: frozenset[str]
    expanded_tweet_ids: frozenset[str]
    article_specific_hashtags: frozenset[str]
    generic_hashtags: frozenset[str]
    iterations_run: int


@dataclass(frozen=True)
class RelevanceParams:
    min_overlap: int = 3
    generic_article_threshold: int = 5
    generic_frequency_quantile: float = 0.90
    max_iterations: int = 3
    history_days: int = 30
    keywords_source: str = "title_body"  # or "title"
    keyword_count: int = 10


def article_text(article: NewsArticle, source: str) -> str:
    if source == "title":
        return article.title
    if source == "title_body":
        return article.title + "\n" + article.body
    raise ValueError(f"unknown keywords source {source!r}")


def _index_tokens(text: str, stopwords) -> list[str]:
    return [t for t in content_tokens(text, stopwords) if len(t) >= MIN_TOKEN_LENGTH]


def _document_frequencies(token_lists: Iterable[list[str]]) -> Counter[str]:
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    return df


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


def _profile_all(
    articles: Iterable[NewsArticle], params: RelevanceParams, stopwords
) -> dict[str, KeywordProfile]:
    """Profiles against `articles` of each of them that has indexable tokens."""
    articles = list(articles)
    token_lists = [
        _index_tokens(article_text(a, params.keywords_source), stopwords) for a in articles
    ]
    df = _document_frequencies(token_lists)
    return {
        a.id: KeywordProfile(
            article_id=a.id,
            keywords=_keyword_scores(tokens, df, len(articles), params.keyword_count),
        )
        for a, tokens in zip(articles, token_lists)
        if tokens
    }


def tfidf_keywords(
    article: NewsArticle,
    background: list[NewsArticle],
    k: int = 10,
    stopwords: frozenset[str] | None = None,
    source: str = "title_body",
) -> KeywordProfile:
    """Top-k tokens of the article by TF-IDF against the background set.

    TF is the token's count over the article's kept-token count; IDF is
    ln(1 + D/df) with D the background size (the article itself counts
    if the background lacks it). Score ties rank the lexicographically
    smaller token first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    stopwords = stopwords if stopwords is not None else default_stopwords()
    tokens = _index_tokens(article_text(article, source), stopwords)
    if not tokens:
        raise RelevanceError(f"no indexable tokens in article '{article.id}'")

    docs = list(background)
    if all(doc.id != article.id for doc in docs):
        docs.append(article)
    df = _document_frequencies(_index_tokens(article_text(d, source), stopwords) for d in docs)
    return KeywordProfile(article_id=article.id, keywords=_keyword_scores(tokens, df, len(docs), k))


def _seed_sets(
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


def seed_tweets(
    profile: KeywordProfile,
    tweets: list[Tweet],
    min_overlap: int,
    stopwords: frozenset[str] | None = None,
) -> set[str]:
    """Ids of tweets sharing at least `min_overlap` profile keywords."""
    stopwords = stopwords if stopwords is not None else default_stopwords()
    seeds = _seed_sets({profile.article_id: profile.tokens()}, tweets, min_overlap, stopwords)
    return seeds[profile.article_id]


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


@dataclass(frozen=True)
class HistoryWindow:
    """Prior-window tweet slice plus the stats hashtag labelling needs."""

    tweet_ids: frozenset[str]
    hashtag_counts: dict[str, int]
    hashtag_articles: dict[str, frozenset[str]]

    @property
    def empty(self) -> bool:
        return not self.tweet_ids

    def count_quantile(self, q: float) -> int:
        """Nearest-rank q-quantile of the usage counts (0 when empty)."""
        return _nearest_rank(self.hashtag_counts.values(), q)


@dataclass(frozen=True)
class _WindowStats:
    """What hashtag labelling reads from a history window."""

    empty: bool
    hashtag_counts: Mapping[str, int]
    # distinct prior articles whose seed tweets carry the hashtag
    article_counts: Mapping[str, int]
    # nearest-rank generic_frequency_quantile of hashtag_counts
    threshold: int


def _stats_of(history: HistoryWindow, params: RelevanceParams) -> _WindowStats:
    return _WindowStats(
        empty=history.empty,
        hashtag_counts=history.hashtag_counts,
        article_counts={tag: len(ids) for tag, ids in history.hashtag_articles.items()},
        threshold=history.count_quantile(params.generic_frequency_quantile),
    )


def _subtract(total: Counter[str], part: Mapping[str, int]) -> None:
    """total -= part, dropping keys that reach zero."""
    for key, n in part.items():
        left = total[key] - n
        if left:
            total[key] = left
        else:
            del total[key]


class _SlidingHistory:
    """Per-day buckets summed over the `days` days before a given day.

    Each bucket holds one day's tweet count, hashtag usage counts and,
    per hashtag, how many of that day's articles carry it in their seed
    tweets. An article belongs to one day, so summing those counts over
    days counts distinct articles. Days are added in increasing order,
    each after its own window was read.
    """

    def __init__(self, days: int):
        self.days = days
        self._buckets: deque[tuple[date, int, Counter[str], dict[str, int]]] = deque()
        self._tweets = 0
        self._hashtag_counts: Counter[str] = Counter()
        self._article_counts: Counter[str] = Counter()

    def add(
        self, day: date, tweets: int, hashtag_counts: Counter[str], article_counts: dict[str, int]
    ) -> None:
        self._buckets.append((day, tweets, hashtag_counts, article_counts))
        self._tweets += tweets
        self._hashtag_counts.update(hashtag_counts)
        self._article_counts.update(article_counts)

    def window(self, day: date, quantile: float) -> _WindowStats:
        """Stats over the buckets of days in [day - days, day)."""
        start = day - timedelta(days=self.days)
        while self._buckets and self._buckets[0][0] < start:
            _, tweets, hashtag_counts, article_counts = self._buckets.popleft()
            self._tweets -= tweets
            _subtract(self._hashtag_counts, hashtag_counts)
            _subtract(self._article_counts, article_counts)
        return _WindowStats(
            empty=self._tweets == 0,
            hashtag_counts=dict(self._hashtag_counts),
            article_counts=dict(self._article_counts),
            threshold=_nearest_rank(self._hashtag_counts.values(), quantile),
        )


def build_history(
    corpus: Corpus,
    article: NewsArticle,
    params: RelevanceParams,
    profiles: dict[str, KeywordProfile] | None = None,
    seeds: dict[str, frozenset[str]] | None = None,
) -> HistoryWindow:
    """Collect the prior-window tweets and per-hashtag statistics.

    A hashtag is attached to a prior article when it appears in that
    article's seed tweets (seed-level only, so the definition is not
    recursive). Articles that cannot be profiled are skipped. `profiles`
    and `seeds` may supply precomputed values by article id; missing
    ones are computed.
    """
    day = article.published_day
    start = day - timedelta(days=params.history_days)
    window_ids = frozenset(
        tweet_id
        for tweet_day, ids in corpus.tweet_date_index.items()
        if start <= tweet_day < day
        for tweet_id in ids
    )
    hashtag_counts = Counter(
        tag for tweet_id in window_ids for tag in corpus.tweet_by_id[tweet_id].hashtags
    )

    stopwords = default_stopwords()
    prior_seeds: dict[str, Iterable[str]] = {}
    unseeded: dict[date, list[NewsArticle]] = {}
    for prior in corpus.articles:
        if not start <= prior.published_day < day:
            continue
        if seeds is not None and prior.id in seeds:
            prior_seeds[prior.id] = seeds[prior.id]
        else:
            unseeded.setdefault(prior.published_day, []).append(prior)
    if unseeded:
        known = {**_profile_all(corpus.articles, params, stopwords), **(profiles or {})}
        for prior_day, group in unseeded.items():
            keywords = {p.id: known[p.id].tokens() for p in group if p.id in known}
            prior_seeds.update(
                _seed_sets(keywords, corpus.tweets_on(prior_day), params.min_overlap, stopwords)
            )

    return HistoryWindow(
        tweet_ids=window_ids,
        hashtag_counts=dict(hashtag_counts),
        hashtag_articles={
            tag: frozenset(ids) for tag, ids in _seed_hashtag_articles(prior_seeds, corpus).items()
        },
    )


def _label(
    candidate_hashtags: set[str],
    window: _WindowStats,
    params: RelevanceParams,
    article_id: str | None,
) -> list[HashtagLabel]:
    if window.empty and candidate_hashtags:
        log.warning(
            "empty hashtag history window; labelling all %d candidates article-specific",
            len(candidate_hashtags),
        )
        return [
            HashtagLabel(tag, HashtagKind.ARTICLE_SPECIFIC, article_id)
            for tag in sorted(candidate_hashtags)
        ]
    labels = []
    for tag in sorted(candidate_hashtags):
        attached = window.article_counts.get(tag, 0)
        count = window.hashtag_counts.get(tag, 0)
        if attached >= params.generic_article_threshold or count > window.threshold:
            labels.append(HashtagLabel(tag, HashtagKind.GENERIC))
        else:
            labels.append(HashtagLabel(tag, HashtagKind.ARTICLE_SPECIFIC, article_id))
    return labels


def classify_hashtags(
    candidate_hashtags: set[str],
    history: HistoryWindow,
    params: RelevanceParams,
    article_id: str | None = None,
) -> list[HashtagLabel]:
    """Label candidates generic or article-specific from history usage.

    Generic requires attachment to enough distinct prior articles or a
    usage count above the history's frequency quantile. With an empty
    history everything is article-specific (a warning is logged).
    """
    return _label(candidate_hashtags, _stats_of(history, params), params, article_id)


def _expand(
    article_id: str,
    seed_ids: Iterable[str],
    window: _WindowStats,
    day_ids: set[str],
    corpus: Corpus,
    params: RelevanceParams,
) -> ArticleAssociation:
    """Grow `seed_ids` through article-specific hashtags.

    Tweets carrying a hashtag come from `corpus.hashtag_index`, kept to
    `day_ids` (the article's day). A tweet's hashtags are harvested once,
    in the iteration after it joins: every tag of earlier tweets is
    already labelled, and every day tweet with an earlier specific tag
    has already joined.
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
        new_specific = []
        for label in _label(harvested - specific - generic, window, params, article_id):
            if label.kind is HashtagKind.GENERIC:
                generic.add(label.hashtag)
            else:
                specific.add(label.hashtag)
                new_specific.append(label.hashtag)
        fresh = {
            tweet_id
            for tag in new_specific
            for tweet_id in corpus.hashtag_index[tag]
            if tweet_id in day_ids and tweet_id not in current
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


def expand_association(
    article: NewsArticle,
    profile: KeywordProfile,
    corpus: Corpus,
    params: RelevanceParams,
    history: HistoryWindow | None = None,
    seed_ids: set[str] | None = None,
) -> ArticleAssociation:
    """Grow the article's tweet set from seeds via specific hashtags.

    Each iteration classifies newly harvested hashtags and admits every
    same-day tweet carrying any article-specific hashtag; iteration
    stops at a fixpoint or after `params.max_iterations` growth steps.
    """
    day = article.published_day
    if seed_ids is None:
        seed_ids = seed_tweets(profile, corpus.tweets_on(day), params.min_overlap)
    if history is None:
        history = build_history(corpus, article, params)
    day_ids = set(corpus.tweet_date_index.get(day, ()))
    return _expand(article.id, seed_ids, _stats_of(history, params), day_ids, corpus, params)


def associate_all(
    corpus: Corpus, params: RelevanceParams, stream: IO[str] | None = None
) -> list[ArticleAssociation]:
    """Associations for every article, ordered by article id.

    Days are visited in order. A day's tweets are tokenized against that
    day's articles and dropped; the day's bucket joins the history window
    after its own articles are expanded. An article with no indexable
    tokens gets an empty association and one `unindexable_article`
    JSON-lines event on `stream` (stderr by default).
    """
    stream = stream if stream is not None else sys.stderr
    stopwords = default_stopwords()
    profiles = _profile_all(corpus.articles, params, stopwords)
    for article_id in sorted(a.id for a in corpus.articles if a.id not in profiles):
        stream.write(json.dumps({"kind": "unindexable_article", "article_id": article_id}) + "\n")

    articles_on: dict[date, list[NewsArticle]] = {}
    for a in corpus.articles:
        articles_on.setdefault(a.published_day, []).append(a)
    history = _SlidingHistory(params.history_days)
    associations = []
    for day in sorted(corpus.tweet_date_index.keys() | articles_on.keys()):
        day_articles = articles_on.get(day, [])
        day_tweets = corpus.tweets_on(day)
        keywords = {a.id: profiles[a.id].tokens() for a in day_articles if a.id in profiles}
        seeds = _seed_sets(keywords, day_tweets, params.min_overlap, stopwords)
        if day_articles:
            window = history.window(day, params.generic_frequency_quantile)
            day_ids = set(corpus.tweet_date_index.get(day, ()))
            for a in day_articles:
                if a.id in seeds:
                    associations.append(_expand(a.id, seeds[a.id], window, day_ids, corpus, params))
                else:
                    empty = frozenset()
                    associations.append(ArticleAssociation(a.id, empty, empty, empty, empty, 0))
        history.add(
            day,
            len(day_tweets),
            Counter(tag for tweet in day_tweets for tag in tweet.hashtags),
            {tag: len(ids) for tag, ids in _seed_hashtag_articles(seeds, corpus).items()},
        )
    return sorted(associations, key=lambda a: a.article_id)


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


def load_associations(path) -> list[ArticleAssociation]:
    associations = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            associations.append(
                ArticleAssociation(
                    article_id=obj["article_id"],
                    seed_tweet_ids=frozenset(obj["seed_tweet_ids"]),
                    expanded_tweet_ids=frozenset(obj["expanded_tweet_ids"]),
                    article_specific_hashtags=frozenset(obj["article_specific_hashtags"]),
                    generic_hashtags=frozenset(obj["generic_hashtags"]),
                    iterations_run=obj["iterations_run"],
                )
            )
    return associations
