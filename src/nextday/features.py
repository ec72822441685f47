"""Per-article feature extraction: the tweet-derived scheme and baselines.

The `proposed` scheme combines involvement indices (tweet volume and user
statistics) with reaction indices (sentiment and emotion variance of the
associated tweets). The five baseline schemes use only the article text
and publication calendar, mirroring content/polarity/event approaches.

`SCHEME_BLOCKS` lists each scheme's column blocks and `BLOCK_COLUMNS`
each block's columns. Every block is a dict from those column names to
values, and `assemble_matrix` gives each scheme's columns and one
`(article_id, values, label)` row per article. The text blocks come from
one `TextMemo` per run, the only holder of the run's lexicons.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from datetime import date, timedelta
from typing import TYPE_CHECKING

from nextday.config import (
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
# Each block's columns; a scheme's columns are its blocks' columns in order.
BLOCK_COLUMNS = {
    "involvement": (
        "tweet_count_norm",
        "avg_retweets",
        "avg_favorites",
        "affected_user_fraction",
        "influential_user_fraction",
        "article_specific_hashtag_count",
    ),
    "reaction": ("sentiment_variance", "emotion_variance"),
    "body_content": (
        "word_count",
        "non_stop_rate",
        "day_of_week",
        "weekend",
        "entity_count",
        "mean_word_length",
    ),
    "body_polarity": POLARITY_COLUMNS,
    "title_content": ("word_count", "non_stop_rate", "entity_count", "mean_word_length"),
    "title_polarity": POLARITY_COLUMNS,
    "event": ("event_days", "event_articles"),
}
SCHEME_BLOCKS = {
    SCHEME_PROPOSED: ("involvement", "reaction"),
    SCHEME_ARTICLE_POLARITY: ("body_polarity",),
    SCHEME_ARTICLE_CONTENT: ("body_content", "body_polarity"),
    SCHEME_TITLE_POLARITY: ("title_polarity",),
    SCHEME_TITLE_CONTENT: ("title_content", "title_polarity"),
    SCHEME_EVENT: ("event",),
}

INFLUENTIAL_FOLLOWERS = 1000


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
) -> dict[str, float]:
    """Tweet, user, and hashtag statistics for one article's tweet set.

    Keyed by the involvement block's columns, with
    `authoritative_user_fraction` last when `params.authoritative` is on.
    User fractions are over all unique tweeting users; users without a
    profile stay in the denominator but are never counted influential
    or authoritative.
    """
    count = len(assoc.expanded_tweet_ids)
    if corpus_max_tweets < 1 or corpus_max_tweets < count:
        raise ValueError("corpus_max_tweets must be >= max(1, association size)")
    article = corpus.article_by_id[assoc.article_id]
    tweets = [corpus.tweet_by_id[t] for t in assoc.expanded_tweet_ids]

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

    values = {
        "tweet_count_norm": count / corpus_max_tweets,
        "avg_retweets": retweets / count if count else 0.0,
        "avg_favorites": favorites / count if count else 0.0,
        "affected_user_fraction": (
            sum(1 for c in per_user.values() if c >= 2) / unique_users
            if unique_users
            else 0.0
        ),
        "influential_user_fraction": influential / unique_users if unique_users else 0.0,
        "article_specific_hashtag_count": float(len(assoc.article_specific_hashtags)),
    }
    if params.authoritative:
        values["authoritative_user_fraction"] = (
            authoritative / unique_users if unique_users else 0.0
        )
    return values


def reaction_indices(
    assoc: ArticleAssociation,
    corpus: Corpus,
    memo: TextMemo,
) -> dict[str, float]:
    """Sentiment and emotion variance over the article's tweet set.

    Neutral tweets count toward neither PC nor NC; tweets without a
    dominant emotion are excluded from the emotion counts entirely.
    The `memo` scores each tweet once across the articles it serves.
    """
    pc = 0
    nc = 0
    counts = dict.fromkeys(EMOTION_CATEGORIES, 0)
    for tweet_id in assoc.expanded_tweet_ids:
        sentiment, dominant = memo.tweet_reaction(corpus.tweet_by_id[tweet_id])
        if sentiment is Sentiment.POSITIVE:
            pc += 1
        elif sentiment is Sentiment.NEGATIVE:
            nc += 1
        if dominant is not None:
            counts[dominant] += 1
    return {
        "sentiment_variance": sentiment_variance(pc, nc),
        "emotion_variance": emotion_variance(counts.values()),
    }


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


def text_blocks(
    article: NewsArticle, field: str, lex: SentimentLexicon
) -> dict[str, dict[str, float]]:
    """The content and polarity blocks of the article's `field` ("title"
    or "body"), keyed `<field>_content` and `<field>_polarity`, from one
    tokenization of that text. The body's content block also carries
    the publication weekday."""
    text = getattr(article, field)
    tokens = tokenize(text)
    total = len(tokens)
    stopwords = default_stopwords()
    non_stop = sum(1 for t in tokens if t not in stopwords)
    content = {
        "word_count": float(total),
        "non_stop_rate": non_stop / total if total else 0.0,
    }
    if field == "body":
        weekday = article.published_at.weekday()
        content["day_of_week"] = float(weekday)
        content["weekend"] = 1.0 if weekday >= 5 else 0.0
    content["entity_count"] = float(len(extract_entities(text)))
    content["mean_word_length"] = sum(len(t) for t in tokens) / total if total else 0.0

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
    polar = len(positives) + len(negatives)
    polarity = {
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
    return {f"{field}_content": content, f"{field}_polarity": polarity}


class TextMemo:
    """Text-derived values that the schemes of one `features` run share.

    Each article's text blocks, and the sentiment and dominant emotion
    of each tweet, are computed on first use and kept for the life of
    the memo; the first use of either block of a text stores both
    (`text_blocks`). Build one per run, with that run's lexicons (None
    when no scheme of the run scores text); entries are keyed by
    article and tweet id, which are unique within a corpus.
    """

    def __init__(self, lexicons: Lexicons | None):
        self.lexicons = lexicons
        self._blocks: dict[tuple[str, str], dict[str, float]] = {}
        self._reactions: dict[str, tuple[Sentiment, str | None]] = {}

    def block(self, name: str, article: NewsArticle) -> dict[str, float]:
        """The article's text block `name`, column name to value."""
        key = (name, article.id)
        values = self._blocks.get(key)
        if values is None:
            field = name.partition("_")[0]
            blocks = text_blocks(article, field, self.lexicons.sentiment)
            for block, block_values in blocks.items():
                self._blocks[block, article.id] = block_values
            values = self._blocks[key]
        return values

    def tweet_reaction(self, tweet: Tweet) -> tuple[Sentiment, str | None]:
        """The tweet's sentiment and dominant emotion."""
        reaction = self._reactions.get(tweet.id)
        if reaction is None:
            sentiment = classify_sentiment(score_sentiment(tweet.text, self.lexicons.sentiment))
            emotions = tag_emotions(tweet.text, self.lexicons.emotions)
            reaction = (sentiment, dominant_emotion(emotions))
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


def scheme_columns(scheme: str, params: FeatureParams) -> tuple[str, ...]:
    if scheme not in SCHEME_BLOCKS:
        raise ValueError(f"unknown scheme {scheme!r}")
    columns = tuple(c for name in SCHEME_BLOCKS[scheme] for c in BLOCK_COLUMNS[name])
    if scheme == SCHEME_PROPOSED and params.authoritative:
        columns += ("authoritative_user_fraction",)
    return columns


def _proposed_rows(
    corpus: Corpus,
    associations: list[ArticleAssociation],
    articles: list[NewsArticle],
    memo: TextMemo,
    params: FeatureParams,
) -> list[dict[str, float]]:
    assoc_by_id = {a.article_id: a for a in associations}
    rerun = "re-run 'nextday associate'"
    for assoc in associations:
        if assoc.article_id not in corpus.article_by_id:
            raise DatasetError(
                f"association for article '{assoc.article_id}' not in the corpus; {rerun}"
            )
        unknown = sorted(t for t in assoc.expanded_tweet_ids if t not in corpus.tweet_by_id)
        if unknown:
            raise DatasetError(
                f"association for article '{assoc.article_id}' names tweet "
                f"'{unknown[0]}' not in the corpus; {rerun}"
            )
    missing = [a.id for a in articles if a.id not in assoc_by_id]
    if missing:
        raise DatasetError(f"missing association for article '{missing[0]}'; {rerun}")
    corpus_max = max([1] + [len(a.expanded_tweet_ids) for a in associations])

    rows = []
    for article in articles:
        assoc = assoc_by_id[article.id]
        values = involvement_indices(assoc, corpus, corpus_max, params)
        values.update(reaction_indices(assoc, corpus, memo))
        if params.authoritative:  # after the reaction block
            values["authoritative_user_fraction"] = values.pop("authoritative_user_fraction")
        rows.append(values)
    return rows


def _event_rows(articles: list[NewsArticle], params: FeatureParams) -> list[dict[str, float]]:
    """Size and distinct publication days of each article's similarity cluster."""
    clusters = build_event_clusters(articles, params.similarity_threshold)
    days: dict[frozenset[str], set[date]] = {}
    for a in articles:
        days.setdefault(clusters[a.id], set()).add(a.published_day)
    return [
        {
            "event_days": float(len(days[clusters[a.id]])),
            "event_articles": float(len(clusters[a.id])),
        }
        for a in articles
    ]


def assemble_matrix(
    corpus: Corpus,
    associations: list[ArticleAssociation],
    scheme: str,
    memo: TextMemo,
    params: FeatureParams,
) -> tuple[tuple[str, ...], list[tuple[str, dict[str, float], int]]]:
    """The scheme's columns and one `(article_id, values, label)` row per
    article, ordered by article id; `values` maps the columns in order.

    The proposed scheme requires an association for every article, each
    naming only articles and tweets of the corpus; the baselines ignore
    `associations` entirely. Passing one `memo` to every scheme of a run
    computes the text blocks they share once.
    """
    columns = scheme_columns(scheme, params)
    articles = sorted(corpus.articles, key=lambda a: a.id)
    if scheme == SCHEME_PROPOSED:
        rows = _proposed_rows(corpus, associations, articles, memo, params)
    elif scheme == SCHEME_EVENT:
        rows = _event_rows(articles, params)
    else:
        rows = [
            {c: v for name in SCHEME_BLOCKS[scheme] for c, v in memo.block(name, a).items()}
            for a in articles
        ]
    for article, values in zip(articles, rows):
        if tuple(values) != columns:
            raise ValueError(
                f"scheme {scheme!r} emitted columns {tuple(values)} for article "
                f"'{article.id}', expected {columns}"
            )
    return columns, [(a.id, values, a.label) for a, values in zip(articles, rows)]


def write_feature_csv(columns: tuple[str, ...], rows, path) -> None:
    """CSV with header `article_id,<columns...>,label`; floats use six decimals."""
    with atomic_write(path, newline="\n") as fh:
        fh.write(",".join(("article_id", *columns, "label")) + "\n")
        for article_id, values, label in rows:
            cells = [article_id, *(f"{values[c]:.6f}" for c in columns), str(label)]
            fh.write(",".join(cells) + "\n")
