import io
import json
import math
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextday import relevance
from nextday.config import RelevanceParams
from nextday.corpus import DatasetError, load_corpus
from nextday.relevance import (
    article_text,
    associate_all,
    association_to_dict,
    build_history,
    classify_hashtags,
    expand_association,
    load_associations,
    seed_tweets,
    tfidf_keywords,
    write_associations,
)
from nextday.text import content_tokens, default_stopwords

from signal_corpus import write_signal_corpus
from util import article, corpus_of, history_windows, tweet, utc


def profiles(*articles, **params):
    return tfidf_keywords(articles, RelevanceParams(**params), default_stopwords())


class TestTfidfKeywords:
    def test_repeated_unique_token_ranks_first(self):
        target = article(id="a1", title="city hall", body="scandal scandal scandal erupts")
        other = article(id="a2", title="weather desk", body="sunny skies expected again")
        assert profiles(target, other)["a1"][0][0] == "scandal"

    def test_tie_breaks_lexicographically(self):
        target = article(id="a1", title="zebra apple", body="zebra apple")
        other = article(id="a2", title="plain filler", body="plain filler words")
        assert [t for t, _ in profiles(target, other)["a1"][:2]] == ["apple", "zebra"]

    def test_three_document_hand_table(self):
        d1 = article(id="d1", title="iran ransom", body="ransom cash cash deal")
        d2 = article(id="d2", title="trade deal", body="trade trade tariffs deal")
        d3 = article(id="d3", title="storm watch", body="storm rain rain coast")
        keywords = profiles(d1, d2, d3)["d1"]
        # six tokens in d1; df(ransom)=df(cash)=df(iran)=1, df(deal)=2, D=3
        expected = [
            ("cash", (2 / 6) * math.log(1.0 + 3 / 1)),
            ("ransom", (2 / 6) * math.log(1.0 + 3 / 1)),
            ("iran", (1 / 6) * math.log(1.0 + 3 / 1)),
            ("deal", (1 / 6) * math.log(1.0 + 3 / 2)),
        ]
        assert list(keywords) == expected
        assert round(expected[0][1], 4) == 0.4621

    def test_k_limits_keywords(self):
        target = article(id="a1", title="one two", body="alpha beta gamma delta")
        assert len(profiles(target, keyword_count=2)["a1"]) == 2

    def test_stopword_only_article_rejected(self):
        empty = article(id="a1", title="the of", body="and the of to")
        other = article(id="a2", title="ransom payment", body="ransom")
        assert list(profiles(empty, other)) == ["a2"]

    def test_short_tokens_filtered(self):
        target = article(id="a1", title="ab cd", body="ab cd ransom ransom")
        assert [t for t, _ in profiles(target)["a1"]] == ["ransom"]

    def test_title_only_source(self):
        target = article(id="a1", title="ransom payment", body="weather weather weather")
        keywords = profiles(target, keywords_source="title")["a1"]
        assert {t for t, _ in keywords} == {"ransom", "payment"}


def seeds_of(keywords, tweets, min_overlap):
    """Seed ids of one article with these keywords."""
    return seed_tweets({"a1": set(keywords)}, tweets, min_overlap, default_stopwords())["a1"]


class TestSeedTweets:
    def test_tweet_with_all_keywords_selected(self):
        tw = tweet(text="iran ransom cash")
        for overlap in (1, 2, 3):
            assert seeds_of(["iran", "ransom", "cash"], [tw], overlap) == {"t1"}

    def test_zero_overlap_never_selected(self):
        assert seeds_of(["iran", "ransom", "cash"], [tweet(text="sunny weather today")], 1) == set()

    def test_partial_overlap_thresholds(self):
        keywords = ["iran", "ransom", "obama", "cash", "secret"]
        tw = tweet(text="he gave $400 million in cash to Iran")
        assert seeds_of(keywords, [tw], 2) == {"t1"}
        assert seeds_of(keywords, [tw], 3) == set()

    def test_min_overlap_validated(self):
        with pytest.raises(ValueError):
            seeds_of(["iran"], [], 0)

    def test_overlap_counted_per_article(self):
        keywords = {"a1": {"iran", "cash"}, "a2": {"iran", "storm"}, "a3": {"coast"}}
        tweets = [tweet(id="t1", text="iran cash storm"), tweet(id="t2", text="iran coast")]
        seeds = seed_tweets(keywords, tweets, 2, default_stopwords())
        assert seeds == {"a1": {"t1"}, "a2": {"t1"}, "a3": set()}


DAY = utc(hour=9).date()


def window(counts=None, articles=None, tweets=1):
    """The window `build_history` gives over one prior day holding `tweets`
    tweets, these hashtag usage counts and these attached-article counts."""
    history = relevance._SlidingHistory()
    history.add(DAY - timedelta(days=1), tweets, Counter(counts or {}), dict(articles or {}))
    return build_history(history, DAY, RelevanceParams())


class TestClassifyHashtags:
    def test_rare_single_article_tag_is_specific(self):
        history = window(counts={"odd": 1, "busy": 30}, articles={"odd": 1})
        assert classify_hashtags({"odd"}, history, RelevanceParams()) == set()

    def test_tag_on_many_articles_is_generic(self):
        history = window(counts={"maga": 12}, articles={"maga": 5})
        assert classify_hashtags({"maga"}, history, RelevanceParams()) == {"maga"}

    def test_high_count_alone_is_generic(self):
        counts = {"viral": 90}
        counts.update({f"tail{i}": 1 for i in range(20)})
        history = window(counts=counts)
        assert classify_hashtags({"viral", "tail0"}, history, RelevanceParams()) == {"viral"}

    def test_empty_history_all_specific(self):
        history = window(tweets=0)
        assert history.empty
        assert classify_hashtags({"a", "b"}, history, RelevanceParams()) == set()


def six_tweet_corpus():
    day = utc(hour=9)
    art = article(
        id="ax",
        title="vote fraud ballots",
        body="vote fraud ballots vote fraud ballots",
        when=day,
        label=1,
    )
    tweets = [tweet(id="t1", text="vote fraud ballots everywhere #rigged", when=day)]
    tweets += [
        tweet(id=f"t{i}", text=f"so very #rigged number {i}", when=day) for i in range(2, 7)
    ]
    return corpus_of(articles=[art], tweets=tweets), art


def associate_one(corpus):
    (assoc,) = associate_all(corpus, RelevanceParams(), stream=io.StringIO())
    return assoc


class TestExpandAssociation:
    def test_zero_seed_article(self):
        art = article(id="ax", title="quiet piece", body="entirely calm reporting today")
        assoc = associate_one(corpus_of(articles=[art], tweets=[tweet(text="unrelated chatter")]))
        assert assoc.seed_tweet_ids == frozenset()
        assert assoc.expanded_tweet_ids == frozenset()
        assert assoc.iterations_run == 0

    def test_specific_hashtag_pulls_five_more(self):
        corpus, _ = six_tweet_corpus()
        assoc = associate_one(corpus)
        assert assoc.seed_tweet_ids == {"t1"}
        assert assoc.expanded_tweet_ids == {"t1", "t2", "t3", "t4", "t5", "t6"}
        assert assoc.iterations_run == 1
        assert assoc.article_specific_hashtags == {"rigged"}

    def test_all_generic_hashtags_block_expansion(self, monkeypatch):
        day = utc(hour=9)
        art = article(id="ax", title="vote fraud ballots", body="vote fraud ballots again", when=day)
        tweets = [
            tweet(id="t1", text="vote fraud ballots everywhere #maga", when=day),
            tweet(id="t2", text="unrelated cheering #maga", when=day),
        ]
        history = window(counts={"maga": 40}, articles={"maga": 5})
        monkeypatch.setattr(relevance, "build_history", lambda *args: history)
        assoc = associate_one(corpus_of(articles=[art], tweets=tweets))
        assert assoc.expanded_tweet_ids == assoc.seed_tweet_ids == {"t1"}
        assert assoc.generic_hashtags == {"maga"}
        assert assoc.iterations_run == 0


def association_line(**fields) -> bytes:
    """A valid association line for article a2, with `fields` replaced."""
    record = {
        "article_id": "a2",
        "seed_tweet_ids": ["t1"],
        "expanded_tweet_ids": ["t1", "t2"],
        "article_specific_hashtags": ["abc", "defg"],
        "generic_hashtags": [],
        "iterations_run": 1,
        **fields,
    }
    return json.dumps(record).encode()


class TestAssociationProperties:
    def test_expansion_monotone_in_iterations(self, golden_corpus):
        previous = {}
        for limit in (1, 2, 3):
            expanded = {
                a.article_id: a.expanded_tweet_ids
                for a in associate_all(golden_corpus, RelevanceParams(max_iterations=limit))
            }
            assert all(previous[i] <= expanded[i] for i in previous)
            previous = expanded

    def test_fixpoint(self, golden_corpus, golden_associations):
        params = RelevanceParams()
        windows = history_windows(golden_corpus, params)
        for assoc in golden_associations:
            if assoc.iterations_run >= params.max_iterations:
                continue
            day = golden_corpus.article_by_id[assoc.article_id].published_day
            day_tags = {}
            for tw in golden_corpus.tweets:
                if tw.created_day == day:
                    for tag in tw.hashtags:
                        day_tags.setdefault(tag, []).append(tw.id)
            again = expand_association(
                assoc.article_id,
                assoc.expanded_tweet_ids,
                windows[day],
                day_tags,
                golden_corpus,
                params,
            )
            assert again.expanded_tweet_ids == assoc.expanded_tweet_ids

    def test_generic_only_tweets_never_join(self, golden_corpus, golden_associations):
        everything = set()
        for assoc in golden_associations:
            everything |= assoc.expanded_tweet_ids
        distractors = {t.id for t in golden_corpus.tweets if t.id.startswith("t_d")}
        fillers = {t.id for t in golden_corpus.tweets if t.id.startswith("t_f")}
        assert everything.isdisjoint(distractors)
        assert everything.isdisjoint(fillers)

    def test_specific_and_generic_disjoint(self, golden_associations):
        for assoc in golden_associations:
            assert assoc.article_specific_hashtags.isdisjoint(assoc.generic_hashtags)
            assert assoc.seed_tweet_ids <= assoc.expanded_tweet_ids

    def test_determinism_and_jobs_invariance(self, golden_corpus):
        params = RelevanceParams()
        serial = [association_to_dict(a) for a in associate_all(golden_corpus, params)]
        again = [association_to_dict(a) for a in associate_all(golden_corpus, params)]
        assert serial == again

    def test_round_trip_file(self, tmp_path, golden_associations):
        path = tmp_path / "associations.jsonl"
        write_associations(path, list(golden_associations))
        again = load_associations(path)
        assert sorted(again, key=lambda a: a.article_id) == sorted(
            golden_associations, key=lambda a: a.article_id
        )
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == [
            "article_id",
            "seed_tweet_ids",
            "expanded_tweet_ids",
            "article_specific_hashtags",
            "generic_hashtags",
            "iterations_run",
        ]

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b'{"article_id": "a2", "seed_tw', "truncated or invalid JSON line"),
            (b'{"article_id": "\xff"}', "truncated or invalid JSON line"),
            (b'{"article_id": "a2"}', "missing field 'seed_tweet_ids'"),
            (b'["a2"]', "not an association record"),
            (b'{"article_id": "a2", "seed_tweet_ids": 7, "expanded_tweet_ids": [],'
             b' "article_specific_hashtags": [], "generic_hashtags": [], "iterations_run": 0}',
             "not an association record"),
            (association_line(article_specific_hashtags="abcdefg"), "not an association record"),
            (association_line(seed_tweet_ids=["t1", 2]), "not an association record"),
            (association_line(generic_hashtags={"a": 1}), "not an association record"),
            (association_line(expanded_tweet_ids=None), "not an association record"),
            (association_line(article_id=2), "not an association record"),
            (association_line(iterations_run=True), "not an association record"),
            (association_line(iterations_run=-1), "not an association record"),
            (association_line(iterations_run=1.0), "not an association record"),
            (association_line(iterations_run="1"), "not an association record"),
            (b'"a2"', "not an association record"),
            (b"null", "not an association record"),
        ],
        ids=[
            "cut-json", "bad-utf8", "missing-field", "not-an-object", "wrong-type",
            "hashtags-string", "id-not-string", "hashtags-object", "ids-null", "article-id-int",
            "iterations-bool", "iterations-negative", "iterations-float", "iterations-string",
            "json-string", "json-null",
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, golden_associations, bad_line, message):
        path = tmp_path / "associations.jsonl"
        write_associations(path, list(golden_associations)[:1])
        path.write_bytes(path.read_bytes() + b"\n" + bad_line + b"\n")
        with pytest.raises(DatasetError, match=f"associations.jsonl:3: {message}"):
            load_associations(path)

    def test_valid_line_reads(self, tmp_path):
        path = tmp_path / "associations.jsonl"
        path.write_bytes(association_line() + b"\n")
        (assoc,) = load_associations(path)
        assert assoc.article_specific_hashtags == {"abc", "defg"}
        assert assoc.iterations_run == 1


class TestGoldenAgreement:
    def test_expected_associations_reproduced(self, golden_dir, golden_associations):
        by_id = {a.article_id: association_to_dict(a) for a in golden_associations}
        with open(golden_dir / "expected_associations.jsonl") as fh:
            for line in fh:
                expected = json.loads(line)
                assert by_id[expected["article_id"]] == expected

    def test_history_attachment_counts(self, golden_corpus):
        day = golden_corpus.article_by_id["a001"].published_day
        history = history_windows(golden_corpus, RelevanceParams())[day]
        for tag in ("whitehouse", "trump2016", "chicago"):
            assert history.article_counts[tag] >= 5
        assert "irandeal" not in history.hashtag_counts


# The per-article association path that associate_all replaced, kept as its
# differential oracle. It re-tokenizes the whole article set for each
# article's document frequencies, and rescans every tweet and every prior
# article for each history window. An article with no indexable tokens gets
# an empty association and is skipped in history windows.


def _reference_index_tokens(text, stopwords):
    return [t for t in content_tokens(text, stopwords) if len(t) >= 3]


def _reference_keywords(art, corpus, params, stopwords):
    tokens = _reference_index_tokens(article_text(art, params.keywords_source), stopwords)
    if not tokens:
        return None
    df = Counter()
    for doc in corpus.articles:
        df.update(set(_reference_index_tokens(article_text(doc, params.keywords_source), stopwords)))
    counts = Counter(tokens)
    scored = [
        (token, (count / len(tokens)) * math.log(1.0 + len(corpus.articles) / df[token]))
        for token, count in counts.items()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return {token for token, _ in scored[: params.keyword_count]}


def _reference_day_tweets(corpus, day):
    return [t for t in corpus.tweets if t.created_day == day]


def _reference_history(corpus, art, params, seeds):
    day = art.published_day
    start = day - timedelta(days=params.history_days)
    window_ids = set()
    counts = Counter()
    for tw in corpus.tweets:
        if start <= tw.created_day < day:
            window_ids.add(tw.id)
            counts.update(tw.hashtags)
    attached = {}
    for prior in corpus.articles:
        if start <= prior.published_day < day and prior.id in seeds:
            for tweet_id in seeds[prior.id]:
                for tag in corpus.tweet_by_id[tweet_id].hashtags:
                    attached.setdefault(tag, set()).add(prior.id)
    return window_ids, counts, attached


def _reference_labels(candidates, history, params):
    """(specific, generic) split of the candidate hashtags."""
    window_ids, counts, attached = history
    if not window_ids:
        return set(candidates), set()
    values = sorted(counts.values())
    threshold = 0
    if values:
        rank = max(1, math.ceil(params.generic_frequency_quantile * len(values)))
        threshold = values[min(rank, len(values)) - 1]
    generic = {
        tag
        for tag in candidates
        if len(attached.get(tag, ())) >= params.generic_article_threshold
        or counts.get(tag, 0) > threshold
    }
    return set(candidates) - generic, generic


def reference_associate_all(corpus, params):
    """association_to_dict output per article, ordered by article id."""
    stopwords = default_stopwords()
    keywords = {}
    for art in corpus.articles:
        profile = _reference_keywords(art, corpus, params, stopwords)
        if profile is not None:
            keywords[art.id] = profile
    seeds = {
        art.id: {
            tw.id
            for tw in _reference_day_tweets(corpus, art.published_day)
            if len(keywords[art.id].intersection(content_tokens(tw.text, stopwords)))
            >= params.min_overlap
        }
        for art in corpus.articles
        if art.id in keywords
    }
    results = []
    for art in sorted(corpus.articles, key=lambda a: a.id):
        seed_ids = seeds.get(art.id, set())
        current = set(seed_ids)
        specific, generic, classified = set(), set(), set()
        iterations_run = 0
        if art.id in keywords:
            history = _reference_history(corpus, art, params, seeds)
            day_tweets = _reference_day_tweets(corpus, art.published_day)
            for iteration in range(1, params.max_iterations + 1):
                harvested = set()
                for tweet_id in current:
                    harvested.update(corpus.tweet_by_id[tweet_id].hashtags)
                new_specific, new_generic = _reference_labels(harvested - classified, history, params)
                classified |= new_specific | new_generic
                specific |= new_specific
                generic |= new_generic
                additions = {
                    tw.id for tw in day_tweets if tw.hashtags & specific and tw.id not in current
                }
                if not additions:
                    break
                current |= additions
                iterations_run = iteration
        results.append(
            {
                "article_id": art.id,
                "seed_tweet_ids": sorted(seed_ids),
                "expanded_tweet_ids": sorted(current),
                "article_specific_hashtags": sorted(specific),
                "generic_hashtags": sorted(generic),
                "iterations_run": iterations_run,
            }
        )
    return results


def assert_matches_reference(corpus, params):
    got = [association_to_dict(a) for a in associate_all(corpus, params, stream=io.StringIO())]
    assert got == reference_associate_all(corpus, params)


PARAM_VARIANTS = [
    RelevanceParams(),
    RelevanceParams(keywords_source="title"),
    RelevanceParams(history_days=1),
    RelevanceParams(history_days=7),
    RelevanceParams(min_overlap=1),
]


@pytest.fixture(scope="module")
def signal_corpora(tmp_path_factory):
    corpora = {}
    for seed in (1, 2, 3):
        root = tmp_path_factory.mktemp(f"signal{seed}")
        write_signal_corpus(root, n_articles=60, seed=seed)
        corpora[seed] = load_corpus(
            root / "articles.jsonl", root / "tweets.jsonl", root / "users.jsonl"
        )
    return corpora


WORDS = ["ransom", "iran", "cash", "vote", "fraud", "storm", "coast", "the", "and", "of", "ab"]
TAGS = ["aa", "bb", "cc", "dd", "ee"]


@st.composite
def small_corpora(draw):
    """Up to six days; article days and tweet days are drawn apart, so some
    days have tweets and no articles, and others the reverse. Stop words and
    short tokens can leave an article with no indexable tokens."""
    text = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
    article_days = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    articles = [
        article(
            id=f"a{i}", title=draw(text), body=draw(text),
            when=utc(month=7, day=1 + offset, hour=6),
        )
        for i, offset in enumerate(article_days)
    ]
    tweet_days = draw(st.lists(st.integers(0, 5), max_size=25))
    tweets = [
        tweet(
            id=f"t{i:02d}",
            text=draw(text) + "".join(f" #{tag}" for tag in draw(st.sets(st.sampled_from(TAGS), max_size=3))),
            when=utc(month=7, day=1 + offset, hour=1 + i % 20),
        )
        for i, offset in enumerate(tweet_days)
    ]
    return corpus_of(articles=articles, tweets=tweets)


class TestMatchesReferencePath:
    @pytest.mark.parametrize("params", PARAM_VARIANTS)
    def test_golden_corpus(self, golden_corpus, params):
        assert_matches_reference(golden_corpus, params)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("params", PARAM_VARIANTS)
    def test_signal_corpus(self, signal_corpora, seed, params):
        assert_matches_reference(signal_corpora[seed], params)

    def test_unindexable_article_counts_in_document_total(self):
        # D = 4 ranks "ransom" first (0.6 ln 3 > 0.4 ln 5); D = 3 would rank "iran"
        day = utc(hour=9)
        corpus = corpus_of(
            articles=[
                article(id="a1", title="ransom ransom ransom", body="iran iran", when=day),
                article(id="a2", title="ransom", body="storm", when=day),
                article(id="a3", title="coast", body="coast", when=day),
                article(id="a4", title="the of", body="and to", when=day),
            ],
            tweets=[tweet(id="t1", text="iran talks", when=day)],
        )
        params = RelevanceParams(keyword_count=1, min_overlap=1)
        assert_matches_reference(corpus, params)
        assert associate_all(corpus, params, stream=io.StringIO())[0].seed_tweet_ids == set()

    @given(
        small_corpora(),
        st.builds(
            RelevanceParams,
            min_overlap=st.integers(1, 3),
            generic_article_threshold=st.integers(1, 3),
            generic_frequency_quantile=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
            max_iterations=st.integers(1, 3),
            history_days=st.integers(1, 4),
            keywords_source=st.sampled_from(["title", "title_body"]),
            keyword_count=st.integers(1, 4),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_generated_corpora(self, corpus, params):
        assert_matches_reference(corpus, params)


class TestOnePass:
    def test_each_text_tokenized_at_most_once(self, golden_corpus, monkeypatch):
        calls = Counter()

        def counting(text, stopwords):
            calls[text] += 1
            return content_tokens(text, stopwords)

        monkeypatch.setattr(relevance, "content_tokens", counting)
        associate_all(golden_corpus, RelevanceParams())
        texts = Counter(article_text(a, "title_body") for a in golden_corpus.articles)
        texts.update(t.text for t in golden_corpus.tweets)
        assert calls
        assert {text: n for text, n in calls.items() if n > texts[text]} == {}

    def test_unindexable_article_gets_empty_association(self):
        day = utc(hour=9)
        stop = article(id="a0", title="the of", body="and the of to", when=day)
        real = article(id="a1", title="vote fraud ballots", body="vote fraud ballots", when=day)
        tweets = [tweet(id="t1", text="vote fraud ballots #rigged", when=day)]
        events = io.StringIO()
        first, second = associate_all(
            corpus_of(articles=[stop, real], tweets=tweets), RelevanceParams(), stream=events
        )
        assert association_to_dict(first) == {
            "article_id": "a0",
            "seed_tweet_ids": [],
            "expanded_tweet_ids": [],
            "article_specific_hashtags": [],
            "generic_hashtags": [],
            "iterations_run": 0,
        }
        assert second.seed_tweet_ids == {"t1"}
        # a1's day has no history, so it also gets an empty_history_window event
        assert events.getvalue().splitlines() == [
            '{"kind": "unindexable_article", "article_id": "a0"}',
            '{"kind": "empty_history_window", "article_id": "a1"}',
        ]

    def test_empty_history_window_events(self):
        first, second = utc(hour=9), utc(day=4, hour=9)
        articles = [
            article(id="c1", title="vote fraud ballots", body="vote fraud ballots", when=first),
            article(id="b1", title="iran ransom cash", body="iran ransom cash", when=second),
            article(id="a1", title="storm coast flood", body="storm coast flood", when=first),
            article(id="a0", title="harbor strike dockers", body="harbor strike", when=first),
        ]
        tweets = [
            tweet(id="t1", text="vote fraud ballots #rigged", when=first),
            tweet(id="t2", text="storm coast flood again", when=first),
            tweet(id="t3", text="harbor strike dockers #portstrike", when=first),
            tweet(id="t4", text="iran ransom cash #deal", when=second),
        ]
        events = io.StringIO()
        associations = associate_all(
            corpus_of(articles=articles, tweets=tweets), RelevanceParams(), stream=events
        )
        specific = {a.article_id: a.article_specific_hashtags for a in associations}
        assert specific == {"a0": {"portstrike"}, "a1": set(), "b1": {"deal"}, "c1": {"rigged"}}
        # one event per article with article-specific hashtags and an empty
        # window, in article id order; b1's window holds the first day
        assert [json.loads(line) for line in events.getvalue().splitlines()] == [
            {"kind": "empty_history_window", "article_id": "a0"},
            {"kind": "empty_history_window", "article_id": "c1"},
        ]
