"""Per-article feature extraction: the tweet-derived scheme and baselines.

The `proposed` scheme combines involvement indices (tweet volume and user
statistics) with reaction indices (sentiment and emotion variance of the
associated tweets). The five baseline schemes use only the article text
and publication calendar, mirroring content/polarity/event approaches.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from typing import TYPE_CHECKING

from nextday.config import (  # ALL_SCHEMES only for callers that import it from here
    ALL_SCHEMES,
    SCHEME_ARTICLE_CONTENT,
    SCHEME_ARTICLE_POLARITY,
    SCHEME_EVENT,
    SCHEME_PROPOSED,
    SCHEME_TITLE_CONTENT,
    SCHEME_TITLE_POLARITY,
    FeatureParams,
)
from nextday.corpus import Corpus, DatasetError, NewsArticle, Tweet, atomic_write
from nextday.lexicons import (
    EMOTION_CATEGORIES,
    Lexicons,
    Sentiment,
    SentimentLexicon,
    classify_sentiment,
    dominant_emotion,
    score_sentiment,
    tag_emotions,
)
from nextday.text import default_stopwords, tokenize

if TYPE_CHECKING:
    from nextday.relevance import ArticleAssociation

POLARITY_COLUMNS = (
    "polarity_score",
    "positive_word_rate",
    "negative_word_rate",
    "positive_rate_nonneutral",
    "negative_rate_nonneutral",
    "mean_positive_polarity",
    "mean_negative_polarity",
    "min_positive_polarity",
    "max_positive_polarity",
    "min_negative_polarity",
    "max_negative_polarity",
)
ARTICLE_CONTENT_COLUMNS = (
    "word_count",
    "non_stop_rate",
    "day_of_week",
    "weekend",
    "entity_count",
    "mean_word_length",
)
TITLE_CONTENT_COLUMNS = (
    "word_count",
    "non_stop_rate",
    "entity_count",
    "mean_word_length",
)
EVENT_COLUMNS = ("event_days", "event_articles")
PROPOSED_COLUMNS = (
    "tweet_count_norm",
    "avg_retweets",
    "avg_favorites",
    "affected_user_fraction",
    "influential_user_fraction",
    "article_specific_hashtag_count",
    "sentiment_variance",
    "emotion_variance",
)

INFLUENTIAL_FOLLOWERS = 1000


@dataclass(frozen=True)
class InvolvementIndices:
    tweet_count_norm: float
    avg_retweets: float
    avg_favorites: float
    affected_user_fraction: float
    influential_user_fraction: float
    authoritative_user_fraction: float
    article_specific_hashtag_count: int


@dataclass(frozen=True)
class ReactionIndices:
    sentiment_variance: float
    emotion_variance: float
    positive_count: int
    negative_count: int
    emotion_counts: tuple[int, ...]
    tweet_total: int


@dataclass(frozen=True)
class BaselineFeatures:
    scheme: str
    values: dict[str, float]


@dataclass(frozen=True)
class FeatureVector:
    article_id: str
    scheme: str
    values: dict[str, float]
    label: int


@dataclass(frozen=True)
class FeatureMatrix:
    scheme: str
    columns: tuple[str, ...]
    vectors: tuple[FeatureVector, ...]


def sentiment_variance(pc: int, nc: int) -> float:
    """1 - |PC-NC| / (PC+NC); 0.0 when there are no polar tweets."""
    if pc < 0 or nc < 0:
        raise ValueError("counts must be non-negative")
    total = pc + nc
    if total == 0:
        return 0.0
    return 1.0 - abs(pc - nc) / total


def emotion_variance(counts) -> float:
    """Population variance of the eight per-category counts."""
    values = list(counts)
    if len(values) != len(EMOTION_CATEGORIES):
        raise ValueError(f"expected {len(EMOTION_CATEGORIES)} counts, got {len(values)}")
    if any(c < 0 for c in values):
        raise ValueError("counts must be non-negative")
    mean = sum(values) / 8
    total = 0.0
    for c in values:
        total += (c - mean) ** 2
    return total / 8


def involvement_indices(
    assoc: ArticleAssociation,
    corpus: Corpus,
    corpus_max_tweets: int,
    params: FeatureParams,
) -> InvolvementIndices:
    """Tweet, user, and hashtag statistics for one article's tweet set.

    User fractions are over all unique tweeting users; users without a
    profile stay in the denominator but are never counted influential
    or authoritative.
    """
    count = len(assoc.expanded_tweet_ids)
    if corpus_max_tweets < 1 or corpus_max_tweets < count:
        raise ValueError("corpus_max_tweets must be >= max(1, association size)")
    article = corpus.article_by_id[assoc.article_id]
    tweets = [corpus.tweet_by_id[t] for t in sorted(assoc.expanded_tweet_ids)]

    retweets = sum(t.retweet_count for t in tweets)
    favorites = sum(t.favorite_count for t in tweets)
    per_user = Counter(t.user_id for t in tweets)
    unique_users = len(per_user)

    window = timedelta(days=params.active_window_days)
    influential = 0
    authoritative = 0
    for user_id in per_user:
        profile = corpus.user_by_id.get(user_id)
        if profile is None:
            continue
        recently_active = abs(article.published_at - profile.last_active_at) <= window
        if profile.followers_count > INFLUENTIAL_FOLLOWERS and recently_active:
            influential += 1
        if profile.verified:
            authoritative += 1

    return InvolvementIndices(
        tweet_count_norm=count / corpus_max_tweets,
        avg_retweets=retweets / count if count else 0.0,
        avg_favorites=favorites / count if count else 0.0,
        affected_user_fraction=(
            sum(1 for c in per_user.values() if c >= 2) / unique_users
            if unique_users
            else 0.0
        ),
        influential_user_fraction=influential / unique_users if unique_users else 0.0,
        authoritative_user_fraction=authoritative / unique_users if unique_users else 0.0,
        article_specific_hashtag_count=len(assoc.article_specific_hashtags),
    )


def reaction_indices(
    assoc: ArticleAssociation,
    corpus: Corpus,
    lexicons: Lexicons,
    memo: TextMemo | None = None,
) -> ReactionIndices:
    """Sentiment and emotion variance over the article's tweet set.

    Neutral tweets count toward neither PC nor NC; tweets without a
    dominant emotion are excluded from the emotion counts entirely.
    A `memo` built on the same lexicons scores each tweet once across
    the articles it serves.
    """
    memo = memo if memo is not None else TextMemo(lexicons)
    pc = 0
    nc = 0
    counts = dict.fromkeys(EMOTION_CATEGORIES, 0)
    for tweet_id in sorted(assoc.expanded_tweet_ids):
        sentiment, dominant = memo.tweet_reaction(corpus.tweet_by_id[tweet_id])
        if sentiment is Sentiment.POSITIVE:
            pc += 1
        elif sentiment is Sentiment.NEGATIVE:
            nc += 1
        if dominant is not None:
            counts[dominant] += 1
    ordered = tuple(counts[c] for c in EMOTION_CATEGORIES)
    return ReactionIndices(
        sentiment_variance=sentiment_variance(pc, nc),
        emotion_variance=emotion_variance(ordered),
        positive_count=pc,
        negative_count=nc,
        emotion_counts=ordered,
        tweet_total=len(assoc.expanded_tweet_ids),
    )


_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")
_STRIP_RE = re.compile(r"^[^A-Za-z0-9]+|[^A-Za-z0-9]+$")


def extract_entities(text: str) -> list[str]:
    """Capitalization-run entity heuristic.

    Maximal runs of capitalized tokens count as entities, except that a
    sentence-initial token joins a run only when the same token also
    appears capitalized mid-sentence somewhere in the document.
    """
    sentences = []
    for raw in _SENTENCE_SPLIT_RE.split(text):
        tokens = [t for t in (_STRIP_RE.sub("", w) for w in raw.split()) if t]
        if tokens:
            sentences.append(tokens)

    def capitalized(token: str) -> bool:
        return "A" <= token[0] <= "Z"

    confirmed = {
        token
        for tokens in sentences
        for pos, token in enumerate(tokens)
        if pos > 0 and capitalized(token)
    }

    entities = []
    for tokens in sentences:
        run: list[str] = []
        run_start = 0
        for pos, token in enumerate(tokens):
            if capitalized(token):
                if not run:
                    run_start = pos
                run.append(token)
            elif run:
                entities.extend(_finish_run(run, run_start, confirmed))
                run = []
        if run:
            entities.extend(_finish_run(run, run_start, confirmed))
    return entities


def _finish_run(run: list[str], run_start: int, confirmed: set[str]) -> list[str]:
    if run_start == 0 and run[0] not in confirmed:
        run = run[1:]
    return [" ".join(run)] if run else []


def _polarity_values(text: str, lex: SentimentLexicon) -> dict[str, float]:
    tokens = tokenize(text)
    positives = []
    negatives = []
    for token in tokens:
        valence = lex.entries.get(token)
        if valence is None:
            continue
        if valence > 0:
            positives.append(valence)
        elif valence < 0:
            negatives.append(valence)
    total = len(tokens)
    polar = len(positives) + len(negatives)
    return {
        "polarity_score": score_sentiment(text, lex),
        "positive_word_rate": 100.0 * len(positives) / total if total else 0.0,
        "negative_word_rate": 100.0 * len(negatives) / total if total else 0.0,
        "positive_rate_nonneutral": len(positives) / polar if polar else 0.0,
        "negative_rate_nonneutral": len(negatives) / polar if polar else 0.0,
        "mean_positive_polarity": sum(positives) / len(positives) if positives else 0.0,
        "mean_negative_polarity": sum(negatives) / len(negatives) if negatives else 0.0,
        "min_positive_polarity": min(positives) if positives else 0.0,
        "max_positive_polarity": max(positives) if positives else 0.0,
        "min_negative_polarity": min(negatives) if negatives else 0.0,
        "max_negative_polarity": max(negatives) if negatives else 0.0,
    }


def _content_values(text: str, stopwords) -> dict[str, float]:
    tokens = tokenize(text)
    total = len(tokens)
    non_stop = sum(1 for t in tokens if t not in stopwords)
    return {
        "word_count": float(total),
        "non_stop_rate": non_stop / total if total else 0.0,
        "entity_count": float(len(extract_entities(text))),
        "mean_word_length": sum(len(t) for t in tokens) / total if total else 0.0,
    }


def article_polarity_features(article: NewsArticle, lex: SentimentLexicon) -> BaselineFeatures:
    """Eleven polarity statistics of the article body."""
    return BaselineFeatures(SCHEME_ARTICLE_POLARITY, _polarity_values(article.body, lex))


def article_content_features(
    article: NewsArticle, lex: SentimentLexicon, stopwords=None
) -> BaselineFeatures:
    """Content statistics of the body plus the polarity block."""
    stopwords = stopwords if stopwords is not None else default_stopwords()
    values = _article_content_values(article, stopwords)
    values.update(_polarity_values(article.body, lex))
    return BaselineFeatures(SCHEME_ARTICLE_CONTENT, values)


def _article_content_values(article: NewsArticle, stopwords) -> dict[str, float]:
    content = _content_values(article.body, stopwords)
    weekday = article.published_at.weekday()
    return {
        "word_count": content["word_count"],
        "non_stop_rate": content["non_stop_rate"],
        "day_of_week": float(weekday),
        "weekend": 1.0 if weekday >= 5 else 0.0,
        "entity_count": content["entity_count"],
        "mean_word_length": content["mean_word_length"],
    }


def title_features(
    article: NewsArticle, lex: SentimentLexicon, stopwords=None
) -> tuple[BaselineFeatures, BaselineFeatures]:
    """(title polarity, title content + polarity) feature blocks."""
    stopwords = stopwords if stopwords is not None else default_stopwords()
    polarity = _polarity_values(article.title, lex)
    content = _content_values(article.title, stopwords)
    combined = {name: content[name] for name in TITLE_CONTENT_COLUMNS}
    combined.update(polarity)
    return (
        BaselineFeatures(SCHEME_TITLE_POLARITY, polarity),
        BaselineFeatures(SCHEME_TITLE_CONTENT, combined),
    )


class TextMemo:
    """Text-derived values that the schemes of one `features` run share.

    The body polarity block and the two title blocks of each article,
    and the sentiment label and dominant emotion of each tweet, are
    computed on first use and kept for the life of the memo. Build one
    per run, with that run's lexicons; entries are keyed by article and
    tweet id, which are unique within a corpus.
    """

    def __init__(self, lexicons: Lexicons):
        self.lexicons = lexicons
        self._body_polarity: dict[str, dict[str, float]] = {}
        self._titles: dict[str, tuple[BaselineFeatures, BaselineFeatures]] = {}
        self._reactions: dict[str, tuple[Sentiment, str | None]] = {}

    def body_polarity(self, article: NewsArticle) -> dict[str, float]:
        """`article_polarity_features(article, ...).values`."""
        block = self._body_polarity.get(article.id)
        if block is None:
            block = article_polarity_features(article, self.lexicons.sentiment).values
            self._body_polarity[article.id] = block
        return block

    def titles(self, article: NewsArticle) -> tuple[BaselineFeatures, BaselineFeatures]:
        """`title_features(article, ...)`."""
        blocks = self._titles.get(article.id)
        if blocks is None:
            blocks = title_features(article, self.lexicons.sentiment)
            self._titles[article.id] = blocks
        return blocks

    def tweet_reaction(self, tweet: Tweet) -> tuple[Sentiment, str | None]:
        """The tweet's sentiment label and dominant emotion."""
        reaction = self._reactions.get(tweet.id)
        if reaction is None:
            label = classify_sentiment(score_sentiment(tweet.text, self.lexicons.sentiment))
            emotions = tag_emotions(tweet.text, self.lexicons.emotions)
            reaction = (label.sentiment, dominant_emotion(emotions))
            self._reactions[tweet.id] = reaction
        return reaction


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def _similarity_sets(article: NewsArticle) -> tuple[set[str], set[tuple[str, str]]]:
    entities = {e.lower() for e in extract_entities(article.title + "\n" + article.body)}
    tokens = tokenize(article.title + "\n" + article.body)
    return entities, set(zip(tokens, tokens[1:]))


def _prefixes(sets: list[set], threshold: float) -> list[list[int]]:
    """Each set's join prefix, as element ranks, for a threshold t > 0.

    Elements are ranked once by (global frequency, element), rarest
    first. A pair with Jaccard >= t shares at least o = ceil(t * |s|)
    elements, so its rarest shared element lies within the first
    |s| - o + 1 ranks of each set. o is taken one lower, but at least 1,
    because t * |s| in floats can land just above an exact integer
    (0.28 * 25 is 7.000000000000001) and the plain ceiling would then
    cut a pair whose Jaccard is exactly t (7/25).
    """
    counts = Counter(e for s in sets for e in s)
    ordered = sorted(counts)
    ordered.sort(key=counts.__getitem__)  # stable: ties stay in element order
    rank = {e: r for r, e in enumerate(ordered)}
    prefixes = []
    for s in sets:
        overlap = max(1, math.ceil(threshold * len(s)) - 1)
        prefixes.append(sorted([rank[e] for e in s])[: len(s) - overlap + 1])
    return prefixes


def build_event_clusters(
    all_articles: list[NewsArticle], threshold: float
) -> dict[str, frozenset[str]]:
    """Connected components of the pairwise article-similarity graph.

    Two articles are similar when the Jaccard overlap of their entity
    sets or of their title+body bigram sets reaches the threshold.

    The similar pairs come from a prefix-filtered similarity join
    (Bayardo, Ma and Srikant, WWW 2007): only pairs that share an
    element of their entity prefixes or of their bigram prefixes (see
    `_prefixes`) are tested, with the same `_jaccard` comparison an
    all-pairs scan makes, so the clusters are the same. At a threshold
    of 0 every pair qualifies, empty sets included: one cluster.
    """
    articles = sorted(all_articles, key=lambda a: a.id)
    ids = [a.id for a in articles]
    if threshold <= 0.0:
        return dict.fromkeys(ids, frozenset(ids))
    sets = [_similarity_sets(a) for a in articles]
    parent = list(range(len(articles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = [(_prefixes([s[kind] for s in sets], threshold), {}) for kind in (0, 1)]
    for i, (ents_i, bi_i) in enumerate(sets):
        candidates: set[int] = set()
        for prefixes, index in joins:
            for rank in prefixes[i]:
                earlier = index.setdefault(rank, [])
                candidates.update(earlier)
                earlier.append(i)
        for j in candidates:
            ents_j, bi_j = sets[j]
            if _jaccard(ents_i, ents_j) >= threshold or _jaccard(bi_i, bi_j) >= threshold:
                parent[find(i)] = find(j)

    members: dict[int, set[str]] = {}
    for i, aid in enumerate(ids):
        members.setdefault(find(i), set()).add(aid)
    clusters = {root: frozenset(group) for root, group in members.items()}
    return {aid: clusters[find(i)] for i, aid in enumerate(ids)}


def cluster_day_counts(
    all_articles: list[NewsArticle], clusters: dict[str, frozenset[str]]
) -> dict[frozenset[str], int]:
    """Distinct publication days of each cluster, in one pass over the articles."""
    days: dict[frozenset[str], set[date]] = {}
    for a in all_articles:
        days.setdefault(clusters[a.id], set()).add(a.published_day)
    return {cluster: len(group) for cluster, group in days.items()}


def event_importance(
    article: NewsArticle,
    all_articles: list[NewsArticle],
    params: FeatureParams,
    clusters: dict[str, frozenset[str]] | None = None,
    day_counts: dict[frozenset[str], int] | None = None,
) -> BaselineFeatures:
    """Size and day-span of the article's similarity cluster.

    `assemble_matrix` passes the clusters and their `cluster_day_counts`
    once for all articles; without them each call computes both.
    """
    if clusters is None:
        clusters = build_event_clusters(all_articles, params.similarity_threshold)
    if day_counts is None:
        day_counts = cluster_day_counts(all_articles, clusters)
    cluster = clusters[article.id]
    return BaselineFeatures(
        SCHEME_EVENT,
        {"event_days": float(day_counts[cluster]), "event_articles": float(len(cluster))},
    )


def scheme_columns(scheme: str, params: FeatureParams) -> tuple[str, ...]:
    if scheme == SCHEME_PROPOSED:
        cols = PROPOSED_COLUMNS
        if params.authoritative:
            cols = cols + ("authoritative_user_fraction",)
        return cols
    if scheme == SCHEME_ARTICLE_POLARITY:
        return POLARITY_COLUMNS
    if scheme == SCHEME_ARTICLE_CONTENT:
        return ARTICLE_CONTENT_COLUMNS + POLARITY_COLUMNS
    if scheme == SCHEME_TITLE_POLARITY:
        return POLARITY_COLUMNS
    if scheme == SCHEME_TITLE_CONTENT:
        return TITLE_CONTENT_COLUMNS + POLARITY_COLUMNS
    if scheme == SCHEME_EVENT:
        return EVENT_COLUMNS
    raise ValueError(f"unknown scheme {scheme!r}")


def assemble_matrix(
    corpus: Corpus,
    associations: list[ArticleAssociation] | None,
    scheme: str,
    lexicons: Lexicons,
    params: FeatureParams,
    memo: TextMemo | None = None,
) -> FeatureMatrix:
    """One FeatureVector per article, ordered by article id.

    The proposed scheme requires an association for every article; the
    baselines ignore `associations` entirely. Passing one `memo` to
    every scheme of a run computes the text blocks they share once.
    """
    columns = scheme_columns(scheme, params)
    if memo is None:
        memo = TextMemo(lexicons)
    elif memo.lexicons is not lexicons:
        raise ValueError("memo was built on other lexicons")
    articles = sorted(corpus.articles, key=lambda a: a.id)

    assoc_by_id: dict[str, ArticleAssociation] = {}
    corpus_max = 1
    clusters = day_counts = None
    if scheme == SCHEME_PROPOSED:
        assoc_by_id = {a.article_id: a for a in associations or []}
        missing = [a.id for a in articles if a.id not in assoc_by_id]
        if missing:
            raise DatasetError(f"missing association for article '{missing[0]}'")
        corpus_max = max(
            [len(a.expanded_tweet_ids) for a in assoc_by_id.values()] or [0]
        )
        corpus_max = max(corpus_max, 1)
    elif scheme == SCHEME_EVENT:
        clusters = build_event_clusters(articles, params.similarity_threshold)
        day_counts = cluster_day_counts(articles, clusters)

    def compute(article: NewsArticle) -> FeatureVector:
        if scheme == SCHEME_PROPOSED:
            assoc = assoc_by_id[article.id]
            inv = involvement_indices(assoc, corpus, corpus_max, params)
            rea = reaction_indices(assoc, corpus, lexicons, memo)
            values = {
                "tweet_count_norm": inv.tweet_count_norm,
                "avg_retweets": inv.avg_retweets,
                "avg_favorites": inv.avg_favorites,
                "affected_user_fraction": inv.affected_user_fraction,
                "influential_user_fraction": inv.influential_user_fraction,
                "article_specific_hashtag_count": float(inv.article_specific_hashtag_count),
                "sentiment_variance": rea.sentiment_variance,
                "emotion_variance": rea.emotion_variance,
            }
            if params.authoritative:
                values["authoritative_user_fraction"] = inv.authoritative_user_fraction
        elif scheme == SCHEME_ARTICLE_POLARITY:
            values = memo.body_polarity(article)
        elif scheme == SCHEME_ARTICLE_CONTENT:
            values = _article_content_values(article, default_stopwords())
            values.update(memo.body_polarity(article))
        elif scheme == SCHEME_TITLE_POLARITY:
            values = memo.titles(article)[0].values
        elif scheme == SCHEME_TITLE_CONTENT:
            values = memo.titles(article)[1].values
        elif scheme == SCHEME_EVENT:
            values = event_importance(article, articles, params, clusters, day_counts).values
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        if tuple(values) != columns:
            raise ValueError(
                f"scheme {scheme!r} emitted columns {tuple(values)} for article "
                f"'{article.id}', expected {columns}"
            )
        return FeatureVector(
            article_id=article.id, scheme=scheme, values=values, label=article.label
        )

    vectors = tuple(compute(a) for a in articles)
    return FeatureMatrix(scheme=scheme, columns=columns, vectors=vectors)


def write_feature_csv(matrix: FeatureMatrix, path) -> None:
    """CSV with header `article_id,<features...>,label`; floats use six decimals."""
    with atomic_write(path, newline="\n") as fh:
        fh.write(",".join(("article_id", *matrix.columns, "label")) + "\n")
        for vec in matrix.vectors:
            cells = [vec.article_id]
            cells.extend(f"{vec.values[c]:.6f}" for c in matrix.columns)
            cells.append(str(vec.label))
            fh.write(",".join(cells) + "\n")
