import io
import json
from datetime import timezone

import pytest

from nextday.config import PipelineConfig
from nextday.corpus import (
    CorpusError,
    atomic_write,
    emit_diagnostics,
    load_articles,
    load_corpus,
    load_tweets,
    load_users,
    parse_rfc3339,
)
from nextday.features import write_feature_csv
from nextday.relevance import ArticleAssociation, write_associations

from util import article, corpus_of, tweet, user, utc


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def rfc3339(value):
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def article_record(article):
    """An article as an articles.jsonl object."""
    obj = {
        "id": article.id,
        "title": article.title,
        "body": article.body,
        "published_at": rfc3339(article.published_at),
        "label": article.label,
    }
    if article.section is not None:
        obj["section"] = article.section
    return obj


def tweet_record(tweet):
    """A tweet as a tweets.jsonl object, hashtags in the explicit field."""
    return {
        "id": tweet.id,
        "text": tweet.text,
        "user_id": tweet.user_id,
        "created_at": rfc3339(tweet.created_at),
        "retweet_count": tweet.retweet_count,
        "favorite_count": tweet.favorite_count,
        "hashtags": sorted(tweet.hashtags),
    }


def user_record(user):
    """A user profile as a users.jsonl object."""
    return {
        "user_id": user.user_id,
        "followers_count": user.followers_count,
        "last_active_at": rfc3339(user.last_active_at),
        "verified": user.verified,
    }


def write_jsonl(path, objects):
    return write_lines(path, *(json.dumps(obj, ensure_ascii=False) for obj in objects))


class TestLoadArticles:
    def test_single_line(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"T","body":"B","published_at":"2016-08-08T06:00:00Z","label":1}',
        )
        arts = load_articles(path)
        assert len(arts) == 1
        assert arts[0].id == "a1"
        assert arts[0].label == 1
        assert arts[0].published_at == utc(2016, 8, 8, 6)
        assert arts[0].section is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("")
        assert load_articles(path) == []

    def test_label_out_of_range(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"T","body":"B","published_at":"2016-08-08T06:00:00Z","label":2}',
        )
        with pytest.raises(CorpusError, match="label out of range at line 1"):
            load_articles(path)

    def test_duplicate_id_named(self, tmp_path):
        line = '{"id":"a1","title":"T","body":"B","published_at":"2016-08-08T06:00:00Z","label":0}'
        path = write_lines(tmp_path / "a.jsonl", line, line)
        with pytest.raises(CorpusError, match="duplicate article id 'a1'"):
            load_articles(path)

    def test_malformed_line_number(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"T","body":"B","published_at":"2016-08-08T06:00:00Z","label":0}',
            "{broken",
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_articles(path)

    def test_missing_field_named(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"T","published_at":"2016-08-08T06:00:00Z","label":0}',
        )
        with pytest.raises(CorpusError, match="'body'.*line 1"):
            load_articles(path)

    def test_blank_title_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"  ","body":"B","published_at":"2016-08-08T06:00:00Z","label":0}',
        )
        with pytest.raises(CorpusError, match="empty title or body at line 1"):
            load_articles(path)

    def test_bad_timestamp(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            '{"id":"a1","title":"T","body":"B","published_at":"yesterday","label":0}',
        )
        with pytest.raises(CorpusError, match="bad published_at at line 1"):
            load_articles(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot open"):
            load_articles(tmp_path / "nope.jsonl")


    def test_record_error_names_file(self, tmp_path):
        records = [article_record(article(id=f"a{i}")) for i in range(3)]
        del records[1]["title"]
        path = tmp_path / "articles.jsonl"
        write_jsonl(path, records)
        with pytest.raises(CorpusError) as caught:
            load_articles(path)
        assert str(caught.value) == f"missing field 'title' at line 2 of {path}"


class TestLoadTweets:
    def test_hashtags_extracted_from_text(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "vote #Trump #RepealObamacare",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": 0,
                    "favorite_count": 0,
                }
            ),
        )
        (tw,) = load_tweets(path)
        assert tw.hashtags == {"trump", "repealobamacare"}

    def test_no_hashtags(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "no tags here",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": 0,
                    "favorite_count": 0,
                    "hashtags": [],
                }
            ),
        )
        (tw,) = load_tweets(path)
        assert tw.hashtags == frozenset()

    def test_double_hash(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "##x",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": 0,
                    "favorite_count": 0,
                }
            ),
        )
        (tw,) = load_tweets(path)
        assert tw.hashtags == {"x"}

    def test_supplied_hashtags_unioned_and_normalized(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "text with #Inline",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": 1,
                    "favorite_count": 2,
                    "hashtags": ["#Supplied", "MiXeD"],
                }
            ),
        )
        (tw,) = load_tweets(path)
        assert tw.hashtags == {"inline", "supplied", "mixed"}

    def test_negative_count_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "x",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": -1,
                    "favorite_count": 0,
                }
            ),
        )
        with pytest.raises(CorpusError, match="negative retweet_count at line 1"):
            load_tweets(path)

    def test_bad_supplied_hashtag(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            json.dumps(
                {
                    "id": "t1",
                    "text": "x",
                    "user_id": "u1",
                    "created_at": "2016-08-08T06:00:00Z",
                    "retweet_count": 0,
                    "favorite_count": 0,
                    "hashtags": ["bad tag"],
                }
            ),
        )
        with pytest.raises(CorpusError, match="invalid hashtag"):
            load_tweets(path)

    def test_malformed_timestamp_line_number(self, tmp_path):
        good = json.dumps(
            {
                "id": "t1",
                "text": "x",
                "user_id": "u1",
                "created_at": "2016-08-08T06:00:00Z",
                "retweet_count": 0,
                "favorite_count": 0,
            }
        )
        bad = good.replace("2016-08-08T06:00:00Z", "not-a-time").replace("t1", "t2")
        path = write_lines(tmp_path / "t.jsonl", good, bad)
        with pytest.raises(CorpusError, match="bad created_at at line 2"):
            load_tweets(path)


    def test_record_error_names_file(self, tmp_path):
        records = [tweet_record(tweet(id=f"t{i}")) for i in range(3)]
        records[2]["retweet_count"] = "7"
        path = tmp_path / "tweets.jsonl"
        write_jsonl(path, records)
        with pytest.raises(CorpusError) as caught:
            load_tweets(path)
        assert str(caught.value) == f"field 'retweet_count' must be an integer at line 3 of {path}"


# Tweets with two faults at once, and the one error the loader reports:
# it checks id, duplicate id, text, hashtags, user_id, created_at,
# retweet_count and favorite_count in that order. Line 1 holds `FIRST`.
FIRST = {
    "id": "t0",
    "text": "fine #ok",
    "user_id": "u1",
    "created_at": "2016-08-03T12:00:00Z",
    "retweet_count": 0,
    "favorite_count": 0,
}
MISSING = object()
TWO_FAULTS = {
    "missing-user-negative-retweets": (
        {"user_id": MISSING, "retweet_count": -1},
        "missing field 'user_id' at line 2 of {path}",
    ),
    "bad-hashtag-bad-created-at": (
        {"hashtags": ["bad tag"], "created_at": "yesterday"},
        "invalid hashtag 'bad tag' at line 2 of {path}",
    ),
    "hashtags-not-list-missing-text": (
        {"hashtags": "x", "text": MISSING},
        "missing field 'text' at line 2 of {path}",
    ),
    "id-not-string-missing-text": (
        {"id": 5, "text": MISSING},
        "field 'id' must be a string at line 2 of {path}",
    ),
    "duplicate-id-missing-text": (
        {"id": "t0", "text": MISSING},
        "duplicate tweet id 't0' at line 2 of {path}",
    ),
    "bad-created-at-negative-favorites": (
        {"created_at": "2016-13-01T00:00:00Z", "favorite_count": -2},
        "bad created_at at line 2 of {path}: not an RFC 3339 timestamp: '2016-13-01T00:00:00Z'",
    ),
    "bool-retweets-negative-favorites": (
        {"retweet_count": True, "favorite_count": -1},
        "field 'retweet_count' must be an integer at line 2 of {path}",
    ),
    "int-user-missing-created-at": (
        {"user_id": 7, "created_at": MISSING},
        "field 'user_id' must be a string at line 2 of {path}",
    ),
    "mixed-hashtag-list": (
        {"hashtags": ["bad tag", 3]},
        "field 'hashtags' must be a list of strings at line 2 of {path}",
    ),
    "both-counts-negative": (
        {"retweet_count": -1, "favorite_count": -1},
        "negative retweet_count at line 2 of {path}",
    ),
    "int-created-at-float-favorites": (
        {"created_at": 123, "favorite_count": 1.0},
        "bad created_at at line 2 of {path}: timestamp must be a string, got int",
    ),
    "naive-created-at-missing-retweets": (
        {"created_at": "2016-08-03T12:00:00", "retweet_count": MISSING},
        "bad created_at at line 2 of {path}: timestamp lacks a UTC offset: '2016-08-03T12:00:00'",
    ),
    "text-not-string-bad-hashtag": (
        {"text": ["x"], "hashtags": ["#"]},
        "field 'text' must be a string at line 2 of {path}",
    ),
    "no-id-hashtags-not-list": (
        {"id": MISSING, "hashtags": 3},
        "missing field 'id' at line 2 of {path}",
    ),
    "missing-favorites-null-retweets": (
        {"favorite_count": MISSING, "retweet_count": None},
        "field 'retweet_count' must be an integer at line 2 of {path}",
    ),
}


@pytest.mark.parametrize("faults, message", TWO_FAULTS.values(), ids=TWO_FAULTS.keys())
def test_first_of_two_faults_is_reported(tmp_path, faults, message):
    record = {**FIRST, "id": "t1", **faults}
    record = {key: value for key, value in record.items() if value is not MISSING}
    path = write_jsonl(tmp_path / "tweets.jsonl", [FIRST, record])
    with pytest.raises(CorpusError) as caught:
        load_tweets(path)
    assert str(caught.value) == message.format(path=path)


class TestLoadUsers:
    def test_basic(self, tmp_path):
        path = write_lines(
            tmp_path / "u.jsonl",
            '{"user_id":"u1","followers_count":1500,"last_active_at":"2016-08-01T00:00:00Z","verified":false}',
        )
        (profile,) = load_users(path)
        assert profile.followers_count == 1500
        assert profile.verified is False

    def test_negative_followers(self, tmp_path):
        path = write_lines(
            tmp_path / "u.jsonl",
            '{"user_id":"u1","followers_count":-1,"last_active_at":"2016-08-01T00:00:00Z","verified":false}',
        )
        with pytest.raises(CorpusError, match="negative followers_count"):
            load_users(path)

    def test_duplicate_user(self, tmp_path):
        line = '{"user_id":"u1","followers_count":5,"last_active_at":"2016-08-01T00:00:00Z","verified":true}'
        path = write_lines(tmp_path / "u.jsonl", line, line)
        with pytest.raises(CorpusError, match="duplicate user_id 'u1'"):
            load_users(path)


    def test_record_error_names_file(self, tmp_path):
        records = [user_record(user(user_id=f"u{i}")) for i in range(3)]
        del records[2]["user_id"]
        path = tmp_path / "users.jsonl"
        write_jsonl(path, records)
        with pytest.raises(CorpusError) as caught:
            load_users(path)
        assert str(caught.value) == f"missing field 'user_id' at line 3 of {path}"


class TestBuildCorpus:
    def test_unknown_user_is_diagnostic_not_error(self):
        corpus = corpus_of(tweets=[tweet(user_id="ghost")])
        assert corpus.diagnostics == ({"kind": "unresolved_user", "user_id": "ghost"},)

    def test_diagnostics_wire_format(self):
        corpus = corpus_of(tweets=[tweet(user_id="ghost")])
        sink = io.StringIO()
        emit_diagnostics(corpus, sink)
        assert sink.getvalue() == '{"kind": "unresolved_user", "user_id": "ghost"}\n'


class TestRoundTrip:
    def test_golden_corpus_round_trips(self, tmp_path, golden_corpus):
        write_jsonl(tmp_path / "a.jsonl", (article_record(a) for a in golden_corpus.articles))
        write_jsonl(tmp_path / "t.jsonl", (tweet_record(t) for t in golden_corpus.tweets))
        write_jsonl(tmp_path / "u.jsonl", (user_record(u) for u in golden_corpus.users))
        again = load_corpus(tmp_path / "a.jsonl", tmp_path / "t.jsonl", tmp_path / "u.jsonl")
        assert again.articles == golden_corpus.articles
        assert again.tweets == golden_corpus.tweets
        assert again.users == golden_corpus.users
        assert again.diagnostics == golden_corpus.diagnostics

    def test_hashtag_extraction_idempotent(self, golden_corpus):
        # re-serializing puts hashtags in the explicit field; text extraction
        # must add nothing new
        for tw in golden_corpus.tweets:
            again = tweet_record(tw)
            assert set(again["hashtags"]) == tw.hashtags

    def test_timestamp_round_trip(self):
        stamps = ["2016-08-08T06:00:00Z", "2016-08-08T06:00:00.250000Z", "2016-08-08T08:30:00+02:30"]
        for stamp in stamps:
            parsed = parse_rfc3339(stamp)
            assert parse_rfc3339(parsed.isoformat()) == parsed

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="lacks a UTC offset"):
            parse_rfc3339("2016-08-08T06:00:00")


# Valid local times whose UTC value lies before year 1 or after year 9999,
# and a one-line file holding each in the field every loader parses.
OUT_OF_RANGE = {"year-0": "0001-01-01T00:00:00+01:00", "year-10000": "9999-12-31T23:30:00-01:00"}
TIMESTAMP_FIELDS = {
    "published_at": (load_articles, {"id": "a1", "title": "T", "body": "B", "label": 0}),
    "created_at": (load_tweets, {key: FIRST[key] for key in FIRST if key != "created_at"}),
    "last_active_at": (load_users, {"user_id": "u1", "followers_count": 1, "verified": False}),
}


@pytest.mark.parametrize("stamp", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
@pytest.mark.parametrize("field", TIMESTAMP_FIELDS)
def test_timestamp_out_of_range_in_utc_rejected(tmp_path, field, stamp):
    load, record = TIMESTAMP_FIELDS[field]
    path = write_jsonl(tmp_path / "records.jsonl", [{**record, field: stamp}])
    with pytest.raises(CorpusError) as caught:
        load(path)
    assert str(caught.value) == (
        f"bad {field} at line 1 of {path}: timestamp out of range in UTC: {stamp!r}"
    )


def _association(article_id, seeds):
    return ArticleAssociation(
        article_id=article_id,
        seed_tweet_ids=frozenset(seeds),
        expanded_tweet_ids=frozenset(seeds),
        article_specific_hashtags=frozenset(),
        generic_hashtags=frozenset(),
        iterations_run=1,
    )


@pytest.mark.parametrize(
    "record, name",
    [
        (tweet(), "text"),
        (article(), "title"),
        (user(), "verified"),
        (_association("a1", ["t1"]), "expanded_tweet_ids"),
        (PipelineConfig(), "paths"),
        (PipelineConfig().learn.svm, "epochs"),
    ],
    ids=["tweet", "article", "user", "association", "config", "config-section"],
)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def _broken_associations(path):
    # the second record cannot be sorted, so serialization fails after
    # the first line is already written
    write_associations(path, [_association("a1", ["t1"]), _association("a2", ["t2", 3])])


def _broken_features(path):
    rows = [(article_id, {"f0": value}, 0) for article_id, value in (("a1", 0.5), ("a2", None))]
    write_feature_csv(("f0",), rows, path)


def _broken_block(path):
    with atomic_write(path) as fh:
        fh.write("half of a new artifact")
        raise TypeError("serialization failed")


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write", [_broken_associations, _broken_features, _broken_block],
        ids=["associations", "features", "block"],
    )
    def test_failed_write_keeps_previous_bytes(self, tmp_path, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous artifact\n")
        with pytest.raises(TypeError):
            write(path)
        assert path.read_bytes() == b"previous artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_completed_write_replaces(self, tmp_path):
        path = tmp_path / "report.md"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.md"]
