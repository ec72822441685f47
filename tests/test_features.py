import itertools
import json
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nextday import features
from nextday.config import ALL_SCHEMES, FeatureParams
from nextday.corpus import load_articles
from nextday.features import (
    TextMemo,
    assemble_matrix,
    build_event_clusters,
    emotion_variance,
    extract_entities,
    involvement_indices,
    reaction_indices,
    scheme_columns,
    sentiment_variance,
    write_feature_csv,
)
from nextday.lexicons import (
    CAPS_INCREMENT,
    EMOTION_CATEGORIES,
    MODIFIER_WINDOW,
    NEGATION_SCALAR,
    NORMALIZATION_ALPHA,
    Sentiment,
    SentimentLexicon,
    classify_sentiment,
    dominant_emotion,
    score_sentiment,
    tag_emotions,
)
from nextday.relevance import ArticleAssociation
from nextday.text import default_stopwords, tokenize, tokenize_cased

from signal_corpus import write_signal_corpus
from util import article, corpus_of, tweet, user, utc


def assoc(article_id="a1", tweet_ids=(), seeds=None, specific=(), generic=(), iterations=0):
    ids = frozenset(tweet_ids)
    return ArticleAssociation(
        article_id=article_id,
        seed_tweet_ids=frozenset(seeds) if seeds is not None else ids,
        expanded_tweet_ids=ids,
        article_specific_hashtags=frozenset(specific),
        generic_hashtags=frozenset(generic),
        iterations_run=iterations,
    )


class TestSentimentVariance:
    def test_balanced_is_one(self):
        assert sentiment_variance(5, 5) == 1.0

    def test_one_sided_is_zero(self):
        assert sentiment_variance(10, 0) == 0.0

    def test_hand_value(self):
        assert sentiment_variance(5, 3) == 0.75

    def test_no_polar_tweets(self):
        assert sentiment_variance(0, 0) == 0.0

    def test_range_and_characterization(self):
        for pc in range(0, 25):
            for nc in range(0, 25):
                if pc + nc == 0:
                    continue
                sv = sentiment_variance(pc, nc)
                assert 0.0 <= sv <= 1.0
                assert (sv == 1.0) == (pc == nc)
                assert (sv == 0.0) == (min(pc, nc) == 0)

    def test_scale_invariance(self):
        for pc, nc in [(1, 3), (2, 5), (4, 4), (7, 1)]:
            base = sentiment_variance(pc, nc)
            for k in (2, 3, 10):
                assert sentiment_variance(k * pc, k * nc) == pytest.approx(base)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            sentiment_variance(-1, 0)


class TestEmotionVariance:
    def test_uniform_is_zero(self):
        assert emotion_variance([1] * 8) == 0.0

    def test_concentrated_hand_value(self):
        assert emotion_variance([8, 0, 0, 0, 0, 0, 0, 0]) == 7.0

    def test_all_zero(self):
        assert emotion_variance([0] * 8) == 0.0

    def test_permutation_invariant(self):
        counts = [3, 0, 1, 5, 0, 2, 0, 1]
        base = emotion_variance(counts)
        for perm in itertools.islice(itertools.permutations(counts), 0, 720, 97):
            assert emotion_variance(list(perm)) == base

    def test_zero_iff_all_equal(self):
        assert emotion_variance([4] * 8) == 0.0
        assert emotion_variance([4] * 7 + [5]) > 0.0

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            emotion_variance([1, 2, 3])


class TestInvolvement:
    def test_average_retweets_matches_reported_scale(self):
        # 1319 tweets carrying 42150 retweets in total
        tweets = [
            tweet(id=f"t{i}", text="x", user_id=f"u{i}", rt=32 if i < 1261 else 31)
            for i in range(1319)
        ]
        art = article(id="a1")
        corpus = corpus_of(articles=[art], tweets=tweets)
        indices = involvement_indices(
            assoc("a1", [t.id for t in tweets]), corpus, 1319, FeatureParams()
        )
        assert sum(t.retweet_count for t in tweets) == 42150
        assert indices["avg_retweets"] == pytest.approx(42150 / 1319)
        assert round(indices["avg_retweets"], 2) == 31.96
        assert indices["tweet_count_norm"] == 1.0

    def test_tweet_count_normalized_by_corpus_max(self):
        tweets = [tweet(id=f"t{i}", text="x", user_id=f"u{i}") for i in range(208)]
        art = article(id="a1")
        corpus = corpus_of(articles=[art], tweets=tweets)
        indices = involvement_indices(
            assoc("a1", [t.id for t in tweets]), corpus, 1319, FeatureParams()
        )
        assert indices["tweet_count_norm"] == pytest.approx(208 / 1319)
        assert round(indices["tweet_count_norm"], 4) == 0.1577

    def test_affected_fraction(self):
        # 1240 unique users, 60 of them tweeting more than once (1319 events)
        tweets = []
        n = 0
        for u in range(1240):
            times = 3 if u < 19 else 2 if u < 60 else 1
            for k in range(times):
                tweets.append(tweet(id=f"t{n}", text="x", user_id=f"u{u}"))
                n += 1
        assert n == 1319
        art = article(id="a1")
        corpus = corpus_of(articles=[art], tweets=tweets)
        indices = involvement_indices(
            assoc("a1", [t.id for t in tweets]), corpus, 1319, FeatureParams()
        )
        assert indices["affected_user_fraction"] == pytest.approx(60 / 1240)

    def test_influential_and_authoritative_fractions(self):
        when = utc()
        tweets = [
            tweet(id="t1", user_id="big", when=when),
            tweet(id="t2", user_id="stale", when=when),
            tweet(id="t3", user_id="small", when=when),
            tweet(id="t4", user_id="ghost", when=when),
        ]
        users = [
            user("big", followers=5000, last_active=utc(day=1), verified=True),
            user("stale", followers=9000, last_active=utc(month=1, day=1)),
            user("small", followers=10, last_active=utc(day=1)),
        ]
        art = article(id="a1", when=when)
        corpus = corpus_of(articles=[art], tweets=tweets, users=users)
        tweet_ids = ["t1", "t2", "t3", "t4"]
        params = FeatureParams(authoritative=True)
        indices = involvement_indices(assoc("a1", tweet_ids), corpus, 4, params)
        # unresolved 'ghost' counts in the denominator, never in a numerator
        assert indices["influential_user_fraction"] == 0.25
        assert indices["authoritative_user_fraction"] == 0.25
        assert list(indices)[-1] == "authoritative_user_fraction"
        default = involvement_indices(assoc("a1", tweet_ids), corpus, 4, FeatureParams())
        assert tuple(default) == features.BLOCK_COLUMNS["involvement"]

    def test_empty_association_all_zero(self):
        art = article(id="a1")
        corpus = corpus_of(articles=[art])
        indices = involvement_indices(assoc("a1"), corpus, 1, FeatureParams())
        assert indices["tweet_count_norm"] == 0.0
        assert indices["avg_retweets"] == 0.0
        assert indices["affected_user_fraction"] == 0.0

    def test_corpus_max_precondition(self):
        art = article(id="a1")
        corpus = corpus_of(articles=[art], tweets=[tweet(id="t1")])
        with pytest.raises(ValueError):
            involvement_indices(assoc("a1", ["t1"]), corpus, 0, FeatureParams())


def reaction_counts(assoc_, corpus, memo):
    """PC, NC and the eight emotion counts of the association's tweets,
    from the memo's sentiment and dominant emotion of each tweet."""
    reactions = [memo.tweet_reaction(corpus.tweet_by_id[t]) for t in assoc_.expanded_tweet_ids]
    sentiments = Counter(sentiment for sentiment, _ in reactions)
    emotions = Counter(dominant for _, dominant in reactions)
    return (
        sentiments[Sentiment.POSITIVE],
        sentiments[Sentiment.NEGATIVE],
        [emotions[c] for c in EMOTION_CATEGORIES],
    )


class TestReaction:
    def test_empty_association(self, lexicons):
        art = article(id="a1")
        corpus = corpus_of(articles=[art])
        indices = reaction_indices(assoc("a1"), corpus, TextMemo(lexicons))
        assert indices["sentiment_variance"] == 0.0
        assert indices["emotion_variance"] == 0.0

    def test_balanced_synthetic(self, lexicons):
        texts = ["great win today"] * 4 + ["terrible disaster here"] * 4
        tweets = [tweet(id=f"t{i}", text=t, user_id=f"u{i}") for i, t in enumerate(texts)]
        art = article(id="a1")
        corpus = corpus_of(articles=[art], tweets=tweets)
        memo = TextMemo(lexicons)
        indices = reaction_indices(assoc("a1", [t.id for t in tweets]), corpus, memo)
        assert reaction_counts(assoc("a1", [t.id for t in tweets]), corpus, memo)[:2] == (4, 4)
        assert indices["sentiment_variance"] == 1.0

    def test_golden_values(self, golden_dir, golden_corpus, golden_associations, lexicons):
        expected = json.loads((golden_dir / "expected_reaction.json").read_text())
        by_id = {a.article_id: a for a in golden_associations}
        for article_id, want in expected.items():
            memo = TextMemo(lexicons)
            pc, nc, emotion_counts = reaction_counts(by_id[article_id], golden_corpus, memo)
            assert pc == want["positive_count"]
            assert nc == want["negative_count"]
            assert emotion_counts == want["emotion_counts"]
            got = reaction_indices(by_id[article_id], golden_corpus, memo)
            assert got == {
                "sentiment_variance": want["sentiment_variance"],
                "emotion_variance": want["emotion_variance"],
            }

    def test_matches_brute_force_recount(self, golden_corpus, golden_associations, lexicons):
        # re-score every tweet independently and recompute both indices
        for assoc_ in golden_associations:
            if len(assoc_.expanded_tweet_ids) > 20:
                continue
            pc = nc = 0
            counts = dict.fromkeys(EMOTION_CATEGORIES, 0)
            for tid in sorted(assoc_.expanded_tweet_ids):
                text = golden_corpus.tweet_by_id[tid].text
                sentiment = classify_sentiment(score_sentiment(text, lexicons.sentiment))
                pc += sentiment.value == "positive"
                nc += sentiment.value == "negative"
                top = dominant_emotion(tag_emotions(text, lexicons.emotions))
                if top:
                    counts[top] += 1
            memo = TextMemo(lexicons)
            assert reaction_counts(assoc_, golden_corpus, memo)[:2] == (pc, nc)
            got = reaction_indices(assoc_, golden_corpus, memo)
            assert got["sentiment_variance"] == sentiment_variance(pc, nc)
            assert got["emotion_variance"] == emotion_variance(
                [counts[c] for c in EMOTION_CATEGORIES]
            )


def block(lexicons, name, art):
    return TextMemo(lexicons).block(name, art)


def event_values(arts, article_id, lexicons):
    _, rows = assemble_matrix(
        corpus_of(arts), [], "event_importance", TextMemo(lexicons), FeatureParams()
    )
    return next(values for row_id, values, _ in rows if row_id == article_id)


class TestPolarityFeatures:
    def test_no_lexicon_words_all_zero(self, lexicons):
        art = article(body="the cat sat on the mat")
        values = block(lexicons, "body_polarity", art)
        assert set(values) == set(scheme_columns("article_polarity", FeatureParams()))
        assert all(v == 0.0 for v in values.values())

    def test_rates_per_hundred_words(self, lexicons):
        body = " ".join(["great"] * 5 + ["table"] * 95)
        values = block(lexicons, "body_polarity", article(body=body))
        assert values["positive_word_rate"] == pytest.approx(5.0)
        assert values["negative_word_rate"] == 0.0
        assert values["positive_rate_nonneutral"] == 1.0

    def test_order_statistics(self, lexicons):
        body = "great good terrible awful win"
        v = block(lexicons, "body_polarity", article(body=body))
        assert v["min_positive_polarity"] <= v["mean_positive_polarity"] <= v["max_positive_polarity"]
        assert v["min_negative_polarity"] <= v["mean_negative_polarity"] <= v["max_negative_polarity"]


class TestContentFeatures:
    def test_weekend_flag(self, lexicons):
        art = article(when=utc(2016, 8, 6, 9))  # a Saturday
        values = block(lexicons, "body_content", art)
        assert values["day_of_week"] == 5.0
        assert values["weekend"] == 1.0
        weekday = block(lexicons, "body_content", article(when=utc(2016, 8, 8, 9)))
        assert weekday["day_of_week"] == 0.0
        assert weekday["weekend"] == 0.0

    def test_entity_heuristic_documented_cases(self):
        # sentence-initial token only counts when confirmed mid-sentence
        assert extract_entities("Obama met Trump") == ["Trump"]
        assert extract_entities("He met Obama. Obama demurred.") == ["Obama", "Obama"]
        assert extract_entities("Trump praised Obama. Obama demurred.") == ["Obama", "Obama"]
        title = "GOP blasts Obama's $400M 'secret ransom' paid to Iran"
        assert extract_entities(title) == ["Obama's", "Iran"]
        assert extract_entities("the White House spoke") == ["White House"]

    def test_non_stop_rate(self, lexicons):
        art = article(body="ransom payment arrived")  # zero stop words
        values = block(lexicons, "body_content", art)
        assert values["non_stop_rate"] == 1.0
        assert values["word_count"] == 3.0

    def test_mean_word_length(self, lexicons):
        values = block(lexicons, "body_content", article(body="ab abcd"))
        assert values["mean_word_length"] == 3.0


class TestTitleFeatures:
    def test_one_word_neutral_title(self, lexicons):
        art = article(title="budget")
        assert all(v == 0.0 for v in block(lexicons, "title_polarity", art).values())
        assert block(lexicons, "title_content", art)["word_count"] == 1.0

    def test_title_min_le_max(self, lexicons):
        polarity = block(lexicons, "title_polarity", article(title="great terrible win awful"))
        assert polarity["min_positive_polarity"] <= polarity["max_positive_polarity"]
        assert polarity["min_negative_polarity"] <= polarity["max_negative_polarity"]


def reference_score_sentiment(text, lex):
    """Reference for `score_sentiment`: the same rules, with every window
    token keyed again where it is read."""
    tokens = tokenize_cased(text)
    total = 0.0
    for i, token in enumerate(tokens):
        key = token.lower().replace("'", "")
        if key in lex.negators or key not in lex.entries:
            continue
        valence = lex.entries[key]
        window = tokens[max(0, i - MODIFIER_WINDOW) : i]
        for prior in window:
            if prior.lower().replace("'", "") in lex.negators:
                valence *= NEGATION_SCALAR
        for prior in window:
            increment = lex.boosters.get(prior.lower().replace("'", ""))
            if increment is not None:
                valence += reference_toward_sign(valence, increment)
        if token.isupper() and any(c.isalpha() for c in token):
            valence += reference_toward_sign(valence, CAPS_INCREMENT)
        total += valence
    if total == 0.0:
        return 0.0
    return total / math.sqrt(total * total + NORMALIZATION_ALPHA)


def reference_toward_sign(valence, increment):
    if valence > 0:
        return increment
    if valence < 0:
        return -increment
    return 0.0


def reference_polarity_values(text, lex):
    """Reference for a polarity block, from its own tokenization of `text`."""
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
        "polarity_score": reference_score_sentiment(text, lex),
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


def reference_content_values(text):
    """Reference for the title content block, from its own tokenization."""
    tokens = tokenize(text)
    total = len(tokens)
    stopwords = default_stopwords()
    non_stop = sum(1 for t in tokens if t not in stopwords)
    return {
        "word_count": float(total),
        "non_stop_rate": non_stop / total if total else 0.0,
        "entity_count": float(len(extract_entities(text))),
        "mean_word_length": sum(len(t) for t in tokens) / total if total else 0.0,
    }


def reference_body_content_values(art):
    content = reference_content_values(art.body)
    weekday = art.published_at.weekday()
    return {
        "word_count": content["word_count"],
        "non_stop_rate": content["non_stop_rate"],
        "day_of_week": float(weekday),
        "weekend": 1.0 if weekday >= 5 else 0.0,
        "entity_count": content["entity_count"],
        "mean_word_length": content["mean_word_length"],
    }


def bits(values):
    """Column names in order, each with its value's exact bits."""
    return [(name, float(v).hex()) for name, v in values.items()]


# "\u212a" is the Kelvin sign: lower() maps it to ASCII "k", which the
# cased tokenizer never matches; "İ" lowercases to "i" plus a combining dot.
ORACLE_WORDS = [
    "good", "GOOD", "Good", "awful", "AWFUL", "not", "NOT", "never", "don't", "DON'T",
    "can't", "CAN'T", "very", "VERY", "kind'a", "kinda", "\u212aelvin", "Kelvin",
    "İstanbul", "ISTANBUL", "Senate", "The", "the", "budget", "x1", "3", "_", "'", "''",
]
ORACLE_LEX = SentimentLexicon(
    entries={
        "good": 1.9, "awful": -2.5, "cant": -2.0, "kelvin": 1.2, "elvin": -0.7,
        "stanbul": 2.2, "i": 0.5, "don": -0.6, "t": 0.4, "budget": -0.3,
    },
    negators=frozenset({"not", "never", "dont"}),
    boosters={"very": 0.293, "kinda": -0.293},
)


@st.composite
def oracle_texts(draw):
    words = draw(
        st.lists(
            st.one_of(st.sampled_from(ORACLE_WORDS), st.text(max_size=6)), max_size=16
        )
    )
    separators = draw(
        st.lists(
            st.sampled_from([" ", "  ", ", ", ". ", "! ", "\n", "-", "'"]),
            min_size=len(words),
            max_size=len(words),
        )
    )
    return "".join(w + sep for w, sep in zip(words, separators))


class TestTextBlocksOracle:
    @given(
        title=st.one_of(oracle_texts(), st.text(max_size=80)),
        body=st.one_of(oracle_texts(), st.text(max_size=200)),
        day=st.integers(1, 7),
        toy=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(title="I can't", body="not very GOOD \u212aelvin İstanbul", day=6, toy=True)
    @example(title="DON'T kind'a AWFUL", body="The Senate can't. Senate won", day=1, toy=False)
    def test_blocks_and_scorer_match_reference(self, lexicons, title, body, day, toy):
        lex = ORACLE_LEX if toy else lexicons.sentiment
        art = article(title=title, body=body, when=utc(2016, 8, day))
        title_blocks = features.text_blocks(art, "title", lex)
        body_blocks = features.text_blocks(art, "body", lex)
        assert list(title_blocks) == ["title_content", "title_polarity"]
        assert list(body_blocks) == ["body_content", "body_polarity"]
        assert bits(title_blocks["title_content"]) == bits(reference_content_values(title))
        assert bits(title_blocks["title_polarity"]) == bits(reference_polarity_values(title, lex))
        assert bits(body_blocks["body_content"]) == bits(reference_body_content_values(art))
        assert bits(body_blocks["body_polarity"]) == bits(reference_polarity_values(body, lex))
        for text in (title, body):
            got = score_sentiment(text, lex)
            assert float(got).hex() == float(reference_score_sentiment(text, lex)).hex()

    def test_first_block_use_stores_both(self, monkeypatch, lexicons):
        calls = []
        real = features.text_blocks

        def counted(art, field, lex):
            calls.append(field)
            return real(art, field, lex)

        monkeypatch.setattr(features, "text_blocks", counted)
        memo = TextMemo(lexicons)
        art = article()
        polarity = memo.block("title_polarity", art)
        content = memo.block("title_content", art)
        assert calls == ["title"]
        assert content == reference_content_values(art.title)
        assert polarity == reference_polarity_values(art.title, lexicons.sentiment)
        memo.block("body_content", art)
        memo.block("body_polarity", art)
        assert calls == ["title", "body"]


class TestEventImportance:
    def test_singleton_cluster(self, lexicons):
        a = article(id="a1", title="Senate Vote", body="The Senate vote concluded.")
        b = article(id="a2", title="Rain Coming", body="A storm is over the coast tonight.")
        assert event_values([a, b], "a1", lexicons) == {"event_days": 1.0, "event_articles": 1.0}

    def test_near_duplicates_cluster(self, lexicons):
        base = "President Obama signed the Budget Accord with Senator Reid in Washington."
        arts = [
            article(id="a1", title="Budget Accord signed", body=base, when=utc(2016, 8, 1)),
            article(id="a2", title="Budget Accord holds", body=base, when=utc(2016, 8, 2)),
            article(id="a3", title="Budget Accord debated", body=base, when=utc(2016, 8, 2)),
        ]
        assert event_values(arts, "a1", lexicons) == {"event_days": 2.0, "event_articles": 3.0}

    def test_matrix_days_match_member_scan(self, lexicons):
        budget = "President Obama signed the Budget Accord with Senator Reid in Washington."
        storm = "Hurricane Hermine reached the Florida coast near Tallahassee on Thursday."
        arts = [
            article(id="a1", title="Budget Accord signed", body=budget, when=utc(2016, 8, 1)),
            article(id="a2", title="Budget Accord holds", body=budget, when=utc(2016, 8, 2)),
            article(id="a3", title="Budget Accord debated", body=budget, when=utc(2016, 8, 2)),
            article(id="a4", title="Budget Accord passes", body=budget, when=utc(2016, 8, 3)),
            article(id="b1", title="Hermine lands", body=storm, when=utc(2016, 8, 4)),
            article(id="b2", title="Hermine moves", body=storm, when=utc(2016, 8, 6)),
            article(id="c1", title="Rain Coming", body="A storm is over the coast tonight."),
        ]
        _, rows = assemble_matrix(
            corpus_of(arts), [], "event_importance", TextMemo(lexicons), FeatureParams()
        )
        clusters = build_event_clusters(arts, FeatureParams().similarity_threshold)
        for article_id, values, _ in rows:
            days = {a.published_day for a in arts if a.id in clusters[article_id]}
            assert values["event_days"] == float(len(days))
        assert [values["event_days"] for _, values, _ in rows] == [3, 3, 3, 3, 2, 2, 1]
        assert [values["event_articles"] for _, values, _ in rows] == [4, 4, 4, 4, 2, 2, 1]

    def test_similarity_symmetric(self):
        arts = [
            article(id="a1", title="Alpha Pact", body="Alpha Pact with Beta Group holds firm."),
            article(id="a2", title="Alpha Pact", body="Alpha Pact with Beta Group drifts apart."),
            article(id="a3", title="Gamma Idea", body="Gamma Idea stands alone entirely."),
        ]
        clusters = build_event_clusters(arts, 0.3)
        for x in arts:
            for y in arts:
                assert (y.id in clusters[x.id]) == (x.id in clusters[y.id])


def reference_event_clusters(all_articles, threshold):
    """The all-pairs scan that `build_event_clusters` replaced; its oracle."""

    def jaccard(a, b):
        if not a and not b:
            return 0.0
        return len(a & b) / len(a | b)

    articles = sorted(all_articles, key=lambda a: a.id)
    sets = {a.id: features._similarity_sets(a) for a in articles}
    parent = {a.id: a.id for a in articles}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(articles):
        ents_a, bi_a = sets[a.id]
        for b in articles[i + 1 :]:
            ents_b, bi_b = sets[b.id]
            if jaccard(ents_a, ents_b) >= threshold or jaccard(bi_a, bi_b) >= threshold:
                parent[find(a.id)] = find(b.id)

    members = {}
    for a in articles:
        members.setdefault(find(a.id), set()).add(a.id)
    return {aid: frozenset(members[find(aid)]) for aid in parent}


ENTITIES = [f"entity {i}" for i in range(8)]
BIGRAMS = [(f"w{i:02d}", f"w{i + 1:02d}") for i in range(25)]
THRESHOLDS = st.sampled_from(
    [0.0, 5e-324, 1e-9, 0.05, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.7, 0.75, 1.0]
) | st.floats(0.0, 1.0)
SIMILARITY_SETS = st.tuples(
    st.sets(st.sampled_from(ENTITIES)), st.sets(st.sampled_from(BIGRAMS[:12]))
)
TEMPLATE = "Officials said the report would follow later in the day, as it does every day."
EXTRA_WORDS = ["Senate", "Budget", "Obama", "storm", "vote", "coast", "rain", "the", "tax"]


def joined(sets, threshold):
    """(join, all-pairs) clusters of articles whose similarity sets are `sets`."""
    arts = [article(id=f"a{i:02d}") for i in range(len(sets))]
    by_id = {a.id: s for a, s in zip(arts, sets)}
    with mock.patch.object(features, "_similarity_sets", lambda a: by_id[a.id]):
        return build_event_clusters(arts, threshold), reference_event_clusters(arts, threshold)


class TestEventJoin:
    """`build_event_clusters` gives exactly the all-pairs scan's clusters."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(SIMILARITY_SETS, max_size=9), THRESHOLDS)
    # Jaccard exactly 0.28 = 7/25, where 0.28 * 25 is 7.000000000000001 in
    # floats and the seven shared bigrams are the larger set's commonest.
    @example([(set(), set(BIGRAMS[:25])), (set(), set(BIGRAMS[18:25]))], 0.28)
    # Jaccard exactly 0.3 = 3/10.
    @example([(set(), set(BIGRAMS[:10])), (set(), set(BIGRAMS[7:10]))], 0.3)
    # Jaccard exactly 0.5 at even sizes: 2/4 and 4/8.
    @example([(set(), set(BIGRAMS[:4])), (set(), set(BIGRAMS[2:4]))], 0.5)
    @example([(set(), set(BIGRAMS[:6])), (set(), set(BIGRAMS[2:8]))], 0.5)
    @example([({ENTITIES[0]}, set()), ({ENTITIES[0]}, set())], 1.0)
    # At 0 every pair qualifies, even two articles with only empty sets.
    @example([(set(), set()), (set(), set()), ({ENTITIES[0]}, set())], 0.0)
    def test_generated_sets(self, sets, threshold):
        join, reference = joined(sets, threshold)
        assert join == reference

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(EXTRA_WORDS), max_size=6), min_size=2, max_size=8),
        THRESHOLDS,
    )
    def test_template_text(self, extras, threshold):
        # Every pair shares the template's bigrams, so every pair is a candidate.
        arts = [
            article(id=f"a{i:02d}", title="Daily Report", body=f"{TEMPLATE} {' '.join(words)}")
            for i, words in enumerate(extras)
        ]
        assert build_event_clusters(arts, threshold) == reference_event_clusters(arts, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.05, 0.3, 0.5, 1.0])
    def test_golden_corpus(self, golden_corpus, threshold):
        arts = list(golden_corpus.articles)
        assert build_event_clusters(arts, threshold) == reference_event_clusters(arts, threshold)

    @pytest.mark.parametrize("seed", [20160803, 7])
    def test_signal_corpus(self, tmp_path, seed):
        write_signal_corpus(tmp_path, n_articles=60, seed=seed)
        arts = load_articles(tmp_path / "articles.jsonl")
        for threshold in (0.0, 0.01, 0.05, 0.3, 0.5, 1.0):
            assert build_event_clusters(arts, threshold) == reference_event_clusters(
                arts, threshold
            )


class TestMatrix:
    def test_scheme_column_counts(self):
        params = FeatureParams()
        assert len(scheme_columns("proposed", params)) == 8
        assert len(scheme_columns("proposed", FeatureParams(authoritative=True))) == 9
        assert len(scheme_columns("article_polarity", params)) == 11
        assert len(scheme_columns("article_content_polarity", params)) == 17
        assert len(scheme_columns("title_polarity", params)) == 11
        assert len(scheme_columns("title_content_polarity", params)) == 15
        assert len(scheme_columns("event_importance", params)) == 2
        with pytest.raises(ValueError):
            scheme_columns("bogus", params)

    def test_proposed_csv_matches_golden(
        self, tmp_path, golden_dir, golden_corpus, golden_associations, lexicons
    ):
        memo = TextMemo(lexicons)
        matrix = assemble_matrix(
            golden_corpus, list(golden_associations), "proposed", memo, FeatureParams()
        )
        out = tmp_path / "features_proposed.csv"
        write_feature_csv(*matrix, out)
        assert out.read_bytes() == (golden_dir / "expected_features_proposed.csv").read_bytes()

    def test_header_shape(self, tmp_path, golden_corpus, lexicons):
        matrix = assemble_matrix(
            golden_corpus, [], "event_importance", TextMemo(lexicons), FeatureParams()
        )
        out = tmp_path / "f.csv"
        write_feature_csv(*matrix, out)
        header = out.read_text().splitlines()[0]
        assert header == "article_id,event_days,event_articles,label"

    def test_missing_association_rejected(self, golden_corpus, golden_associations, lexicons):
        partial = [a for a in golden_associations if a.article_id != "a001"]
        with pytest.raises(ValueError, match="missing association for article 'a001'"):
            assemble_matrix(golden_corpus, partial, "proposed", TextMemo(lexicons), FeatureParams())

    def test_rerun_identical_and_jobs_invariant(
        self, tmp_path, golden_corpus, golden_associations, lexicons
    ):
        outputs = []
        for _ in range(2):
            memo = TextMemo(lexicons)
            matrix = assemble_matrix(
                golden_corpus, list(golden_associations), "proposed", memo, FeatureParams()
            )
            path = tmp_path / f"m{len(outputs)}.csv"
            write_feature_csv(*matrix, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_normalization_peaks_at_one(self, golden_corpus, golden_associations, lexicons):
        memo = TextMemo(lexicons)
        _, rows = assemble_matrix(
            golden_corpus, list(golden_associations), "proposed", memo, FeatureParams()
        )
        peaks = [values["tweet_count_norm"] for _, values, _ in rows]
        assert max(peaks) == 1.0

    def test_all_schemes_assemble(self, golden_corpus, golden_associations, lexicons):
        for scheme in ALL_SCHEMES:
            memo = TextMemo(lexicons)
            columns, rows = assemble_matrix(
                golden_corpus, list(golden_associations), scheme, memo, FeatureParams()
            )
            assert len(rows) == len(golden_corpus.articles)
            for _, values, _ in rows:
                assert tuple(values) == columns

    def test_wrong_columns_rejected(self, monkeypatch, golden_corpus, lexicons):
        real = features.text_blocks

        def one_column_short(article, field, lex):
            blocks = real(article, field, lex)
            del blocks["title_content"]["entity_count"]
            return blocks

        monkeypatch.setattr(features, "text_blocks", one_column_short)
        with pytest.raises(ValueError, match="scheme 'title_content_polarity' emitted columns"):
            assemble_matrix(
                golden_corpus, [], "title_content_polarity", TextMemo(lexicons), FeatureParams()
            )

    def test_one_memo_scores_each_text_once(
        self, monkeypatch, golden_corpus, golden_associations, lexicons
    ):
        calls = {"score_sentiment": 0, "tag_emotions": 0}
        for name in calls:
            real = getattr(features, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(features, name, counted)
        memo = TextMemo(lexicons)
        shared = [
            assemble_matrix(golden_corpus, list(golden_associations), s, memo, FeatureParams())
            for s in ALL_SCHEMES
        ]
        tweets = set().union(*(a.expanded_tweet_ids for a in golden_associations))
        bodies_and_titles = 2 * len(golden_corpus.articles)
        assert calls == {
            "score_sentiment": len(tweets) + bodies_and_titles,
            "tag_emotions": len(tweets),
        }
        fresh = [
            assemble_matrix(
                golden_corpus, list(golden_associations), s, TextMemo(lexicons), FeatureParams()
            )
            for s in ALL_SCHEMES
        ]
        assert shared == fresh

    def test_authoritative_column_appended(self, golden_corpus, golden_associations, lexicons):
        params = FeatureParams(authoritative=True)
        columns, _ = assemble_matrix(
            golden_corpus, list(golden_associations), "proposed", TextMemo(lexicons), params
        )
        assert columns[-1] == "authoritative_user_fraction"
