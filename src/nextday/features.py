"""Per-article feature extraction: the tweet-derived scheme and baselines.

The `proposed` scheme combines involvement indices (tweet volume and user
statistics) with reaction indices (sentiment and emotion variance of the
associated tweets). The five baseline schemes use only the article text
and publication calendar, mirroring content/polarity/event approaches.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from datetime import timedelta

from nextday.corpus import Corpus, NewsArticle, atomic_write
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
from nextday.relevance import ArticleAssociation
from nextday.text import default_stopwords, tokenize

SCHEME_PROPOSED = "proposed"
SCHEME_ARTICLE_POLARITY = "article_polarity"
SCHEME_ARTICLE_CONTENT = "article_content_polarity"
SCHEME_TITLE_POLARITY = "title_polarity"
SCHEME_TITLE_CONTENT = "title_content_polarity"
SCHEME_EVENT = "event_importance"

ALL_SCHEMES = (
    SCHEME_PROPOSED,
    SCHEME_ARTICLE_POLARITY,
    SCHEME_ARTICLE_CONTENT,
    SCHEME_TITLE_POLARITY,
    SCHEME_TITLE_CONTENT,
    SCHEME_EVENT,
)

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
class FeatureParams:
    active_window_days: int = 30
    similarity_threshold: float = 0.3
    authoritative: bool = False


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
    assoc: ArticleAssociation, corpus: Corpus, lexicons: Lexicons
) -> ReactionIndices:
    """Sentiment and emotion variance over the article's tweet set.

    Neutral tweets count toward neither PC nor NC; tweets without a
    dominant emotion are excluded from the emotion counts entirely.
    """
    pc = 0
    nc = 0
    counts = dict.fromkeys(EMOTION_CATEGORIES, 0)
    for tweet_id in sorted(assoc.expanded_tweet_ids):
        tweet = corpus.tweet_by_id[tweet_id]
        label = classify_sentiment(score_sentiment(tweet.text, lexicons.sentiment))
        if label.sentiment is Sentiment.POSITIVE:
            pc += 1
        elif label.sentiment is Sentiment.NEGATIVE:
            nc += 1
        dominant = dominant_emotion(tag_emotions(tweet.text, lexicons.emotions))
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
    content = _content_values(article.body, stopwords)
    weekday = article.published_at.weekday()
    values = {
        "word_count": content["word_count"],
        "non_stop_rate": content["non_stop_rate"],
        "day_of_week": float(weekday),
        "weekend": 1.0 if weekday >= 5 else 0.0,
        "entity_count": content["entity_count"],
        "mean_word_length": content["mean_word_length"],
    }
    values.update(_polarity_values(article.body, lex))
    return BaselineFeatures(SCHEME_ARTICLE_CONTENT, values)


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


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _similarity_sets(article: NewsArticle) -> tuple[set[str], set[tuple[str, str]]]:
    entities = {e.lower() for e in extract_entities(article.title + "\n" + article.body)}
    tokens = tokenize(article.title + "\n" + article.body)
    return entities, set(zip(tokens, tokens[1:]))


def build_event_clusters(
    all_articles: list[NewsArticle], threshold: float
) -> dict[str, frozenset[str]]:
    """Connected components of the pairwise article-similarity graph.

    Two articles are similar when the Jaccard overlap of their entity
    sets or of their title+body bigram sets reaches the threshold.
    """
    articles = sorted(all_articles, key=lambda a: a.id)
    sets = {a.id: _similarity_sets(a) for a in articles}
    parent = {a.id: a.id for a in articles}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(articles):
        ents_a, bi_a = sets[a.id]
        for b in articles[i + 1 :]:
            ents_b, bi_b = sets[b.id]
            if _jaccard(ents_a, ents_b) >= threshold or _jaccard(bi_a, bi_b) >= threshold:
                parent[find(a.id)] = find(b.id)

    members: dict[str, set[str]] = {}
    for a in articles:
        members.setdefault(find(a.id), set()).add(a.id)
    return {aid: frozenset(members[find(aid)]) for aid in parent}


def event_importance(
    article: NewsArticle,
    all_articles: list[NewsArticle],
    params: FeatureParams,
    clusters: dict[str, frozenset[str]] | None = None,
) -> BaselineFeatures:
    """Size and day-span of the article's similarity cluster."""
    if clusters is None:
        clusters = build_event_clusters(all_articles, params.similarity_threshold)
    cluster = clusters[article.id]
    days = {a.published_day for a in all_articles if a.id in cluster}
    return BaselineFeatures(
        SCHEME_EVENT,
        {"event_days": float(len(days)), "event_articles": float(len(cluster))},
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
) -> FeatureMatrix:
    """One FeatureVector per article, ordered by article id.

    The proposed scheme requires an association for every article; the
    baselines ignore `associations` entirely.
    """
    columns = scheme_columns(scheme, params)
    articles = sorted(corpus.articles, key=lambda a: a.id)

    assoc_by_id: dict[str, ArticleAssociation] = {}
    corpus_max = 1
    clusters = None
    if scheme == SCHEME_PROPOSED:
        assoc_by_id = {a.article_id: a for a in associations or []}
        missing = [a.id for a in articles if a.id not in assoc_by_id]
        if missing:
            raise ValueError(f"missing association for article '{missing[0]}'")
        corpus_max = max(
            [len(a.expanded_tweet_ids) for a in assoc_by_id.values()] or [0]
        )
        corpus_max = max(corpus_max, 1)
    elif scheme == SCHEME_EVENT:
        clusters = build_event_clusters(articles, params.similarity_threshold)

    def compute(article: NewsArticle) -> FeatureVector:
        if scheme == SCHEME_PROPOSED:
            assoc = assoc_by_id[article.id]
            inv = involvement_indices(assoc, corpus, corpus_max, params)
            rea = reaction_indices(assoc, corpus, lexicons)
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
            values = article_polarity_features(article, lexicons.sentiment).values
        elif scheme == SCHEME_ARTICLE_CONTENT:
            values = article_content_features(article, lexicons.sentiment).values
        elif scheme == SCHEME_TITLE_POLARITY:
            values = title_features(article, lexicons.sentiment)[0].values
        elif scheme == SCHEME_TITLE_CONTENT:
            values = title_features(article, lexicons.sentiment)[1].values
        elif scheme == SCHEME_EVENT:
            values = event_importance(article, articles, params, clusters).values
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
