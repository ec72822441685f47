import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextday.corpus import LexiconError
from nextday.lexicons import (
    EMOTION_CATEGORIES,
    EmotionLexicon,
    Sentiment,
    SentimentLexicon,
    classify_sentiment,
    dominant_emotion,
    lexicons_from_paths,
    parse_boosters,
    parse_emotion_lexicon,
    parse_negators,
    parse_sentiment_lexicon,
    score_sentiment,
    tag_emotions,
)


def lex(entries=None, negators=(), boosters=None) -> SentimentLexicon:
    return SentimentLexicon(
        entries=entries or {},
        negators=frozenset(negators),
        boosters=dict(boosters or {}),
    )


GOOD = lex({"good": 1.9, "calm": 2.0}, negators=["not"], boosters={"very": 0.293})


class TestScoreSentiment:
    def test_empty_text(self):
        assert score_sentiment("", GOOD) == 0.0

    def test_no_lexicon_tokens(self):
        assert score_sentiment("the quick brown fox", GOOD) == 0.0

    def test_single_token_normalization(self):
        # adjusted sum 2.0 squashed by s/sqrt(s^2+15)
        expected = 2.0 / math.sqrt(2.0 * 2.0 + 15.0)
        assert score_sentiment("calm", GOOD) == expected
        assert round(expected, 4) == 0.4588

    def test_negation_rule(self):
        # 1.9 * -0.74 = -1.406, then squashed
        expected = -1.406 / math.sqrt(1.406 * 1.406 + 15.0)
        assert score_sentiment("not good", GOOD) == pytest.approx(expected)
        assert round(score_sentiment("not good", GOOD), 4) == -0.3412

    def test_negator_window_is_three_tokens(self):
        near = score_sentiment("not so very good", GOOD)  # negator 3 back
        far = score_sentiment("not one two three good", GOOD)  # negator 4 back
        assert near < 0
        assert far > 0

    def test_booster_moves_toward_sign(self):
        plain = score_sentiment("good", GOOD)
        boosted = score_sentiment("very good", GOOD)
        assert boosted > plain
        negative = lex({"bad": -1.9}, boosters={"very": 0.293})
        assert score_sentiment("very bad", negative) < score_sentiment("bad", negative)

    def test_caps_emphasis(self):
        assert score_sentiment("GOOD", GOOD) > score_sentiment("good", GOOD)
        assert score_sentiment("G00D", GOOD) == 0.0  # not a lexicon token

    def test_negator_token_is_never_scored(self):
        tricky = lex({"nothing": -1.2}, negators=["nothing"])
        assert score_sentiment("nothing", tricky) == 0.0

    def test_double_negation_flips_back(self):
        assert score_sentiment("not not good", GOOD) > 0


class TestClassifySentiment:
    def test_zero_is_neutral(self):
        assert classify_sentiment(0.0) is Sentiment.NEUTRAL

    def test_boundary_inclusive(self):
        assert classify_sentiment(0.05) is Sentiment.POSITIVE
        assert classify_sentiment(-0.05) is Sentiment.NEGATIVE
        assert classify_sentiment(0.049) is Sentiment.NEUTRAL

    def test_negative_example(self):
        compound = score_sentiment("not good", GOOD)
        assert classify_sentiment(compound) is Sentiment.NEGATIVE


TOY_EMOTIONS = EmotionLexicon(
    entries={
        "bomb": frozenset({"anger", "fear"}),
        "gift": frozenset({"joy", "surprise", "anticipation"}),
        "grief": frozenset({"sadness"}),
        "filth": frozenset({"disgust"}),
        "oath": frozenset({"trust"}),
    }
)


class TestEmotions:
    def test_no_tokens(self):
        counts = tag_emotions("nothing to see", TOY_EMOTIONS)
        assert all(v == 0 for v in counts.values())

    def test_multi_category_token(self):
        counts = tag_emotions("bomb", TOY_EMOTIONS)
        assert counts["anger"] == 1
        assert counts["fear"] == 1
        assert sum(counts.values()) == 2

    def test_hand_tally(self):
        counts = tag_emotions("the bomb, the gift, and the grief", TOY_EMOTIONS)
        assert counts == {
            "anger": 1,
            "anticipation": 1,
            "disgust": 0,
            "fear": 1,
            "joy": 1,
            "sadness": 1,
            "surprise": 1,
            "trust": 0,
        }

    def test_bag_of_words_order_invariance(self):
        a = tag_emotions("bomb gift grief", TOY_EMOTIONS)
        b = tag_emotions("grief bomb gift", TOY_EMOTIONS)
        assert a == b

    def test_dominant_simple(self):
        assert dominant_emotion({"anger": 2}) == "anger"

    def test_dominant_tie_break_order(self):
        assert dominant_emotion({"anger": 1, "anticipation": 1}) == "anger"
        assert dominant_emotion({"trust": 1, "surprise": 1}) == "surprise"

    def test_dominant_all_zero(self):
        assert dominant_emotion(dict.fromkeys(EMOTION_CATEGORIES, 0)) is None


class TestParsers:
    def test_sentiment_parse_with_comments(self):
        parsed = parse_sentiment_lexicon("# header\ngood\t1.9\n\nbad\t-2.5\n")
        assert parsed.entries == {"good": 1.9, "bad": -2.5}

    def test_sentiment_valence_range(self):
        with pytest.raises(LexiconError, match="outside"):
            parse_sentiment_lexicon("huge\t9.0\n")

    def test_sentiment_bad_row(self):
        with pytest.raises(LexiconError, match="expected token"):
            parse_sentiment_lexicon("solo\n")

    def test_emotion_parse_flags(self):
        parsed = parse_emotion_lexicon("calm\tjoy\t1\ncalm\tanger\t0\n")
        assert parsed.entries == {"calm": frozenset({"joy"})}

    def test_emotion_unknown_category(self):
        with pytest.raises(LexiconError, match="unknown category"):
            parse_emotion_lexicon("calm\tserenity\t1\n")

    def test_negators_and_boosters(self):
        assert "dont" in parse_negators("don't\nnever\n")
        assert parse_boosters("very\t0.293\nslightly\t-0.293\n") == {
            "very": 0.293,
            "slightly": -0.293,
        }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "lots"])
    def test_booster_increment_must_be_finite(self, value):
        with pytest.raises(LexiconError, match=rf"^b.tsv:2: bad increment '{value}'$"):
            parse_boosters(f"very\t0.293\nso\t{value}\n", path="b.tsv")

    def test_sentiment_entries_keyed_like_lookups(self):
        parsed = parse_sentiment_lexicon("Can't\t-2.0\n")
        assert parsed.entries == {"cant": -2.0}
        assert score_sentiment("I can't", parsed) == score_sentiment("I cant", parsed) < 0

    def test_boosters_keyed_like_lookups(self):
        boosters = parse_boosters("Kind'a\t-0.293\n")
        assert boosters == {"kinda": -0.293}
        damped = parse_sentiment_lexicon("good\t1.9\n", boosters=boosters)
        assert score_sentiment("kind'a good", damped) == score_sentiment("kinda good", damped)
        assert score_sentiment("kind'a good", damped) < score_sentiment("good", damped)

    def test_bundled_lexicons_load(self):
        bundle = lexicons_from_paths()
        assert len(bundle.sentiment.entries) > 100
        assert "not" in bundle.sentiment.negators
        assert bundle.sentiment.boosters["very"] == 0.293
        categories = set()
        for cats in bundle.emotions.entries.values():
            categories |= cats
        assert categories == set(EMOTION_CATEGORIES)


WORDS = ["good", "calm", "awful", "not", "very", "the", "fox", "GOOD", "AWFUL", "x1"]
FUZZ_LEX = lex(
    {"good": 1.9, "calm": 2.0, "awful": -2.5},
    negators=["not"],
    boosters={"very": 0.293},
)


@st.composite
def token_texts(draw):
    tokens = draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=12))
    return " ".join(tokens)


class TestScorerProperties:
    @given(token_texts())
    @settings(max_examples=300, deadline=None)
    def test_bounded(self, text):
        assert -1.0 < score_sentiment(text, FUZZ_LEX) < 1.0

    @given(token_texts())
    @settings(max_examples=300, deadline=None)
    def test_sign_symmetry_exact(self, text):
        mirrored = SentimentLexicon(
            entries={k: -v for k, v in FUZZ_LEX.entries.items()},
            negators=FUZZ_LEX.negators,
            boosters=FUZZ_LEX.boosters,
        )
        assert score_sentiment(text, mirrored) == -score_sentiment(text, FUZZ_LEX)

    @given(st.lists(st.sampled_from(["good", "calm", "fox", "the"]), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_appending_positive_token_never_decreases(self, tokens):
        base = " ".join(tokens)
        extended = (base + " calm").strip()
        assert score_sentiment(extended, FUZZ_LEX) >= score_sentiment(base, FUZZ_LEX)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_bounded(self, text):
        bundle = lexicons_from_paths().sentiment
        assert -1.0 < score_sentiment(text, bundle) < 1.0
