"""Rule-based tweet sentiment scoring and emotion tagging.

Scoring is fully deterministic: a token's lexicon valence is adjusted by
negators, boosters, and ALL-CAPS emphasis found in a three-token window,
and the adjusted sum S is squashed to S / sqrt(S^2 + 15).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from importlib import resources

from nextday.corpus import LexiconError
from nextday.text import decode_utf8, is_token, tokenize, tokenize_cased

NEGATION_SCALAR = -0.74
CAPS_INCREMENT = 0.733
NORMALIZATION_ALPHA = 15.0
MODIFIER_WINDOW = 3

POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05

EMOTION_CATEGORIES = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)


class Sentiment(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class SentimentLexicon:
    entries: dict[str, float]
    negators: frozenset[str]
    boosters: dict[str, float]


@dataclass(frozen=True)
class EmotionLexicon:
    entries: dict[str, frozenset[str]]


@dataclass(frozen=True)
class Lexicons:
    sentiment: SentimentLexicon
    emotions: EmotionLexicon


def _lexicon_key(token: str) -> str:
    return token.lower().replace("'", "")


def _entry_key(entry: str, keyed, path, line_no: int) -> str:
    """`keyed(entry)`, the stripped entry as its file keys it, when that is
    one token."""
    entry = entry.strip()
    key = keyed(entry)
    if not is_token(key):
        raise LexiconError(f"{path}:{line_no}: entry {entry!r} is not one token")
    return key


def score_sentiment(text: str, lex: SentimentLexicon) -> float:
    """Compound sentiment of `text` in (-1, 1); 0.0 when nothing matches.

    Per scored token, modifiers in the three preceding tokens apply in a
    fixed order: each negator multiplies the valence by -0.74, each
    booster then shifts it by its increment toward the current sign, and
    an ALL-CAPS surface form finally adds 0.733 toward the current sign.
    Negator tokens themselves are never scored as lexicon entries.
    """
    tokens = tokenize_cased(text)
    keys = [_lexicon_key(token) for token in tokens]
    total = 0.0
    for i, (token, key) in enumerate(zip(tokens, keys)):
        if key in lex.negators or key not in lex.entries:
            continue
        valence = lex.entries[key]
        window = keys[max(0, i - MODIFIER_WINDOW) : i]
        for prior in window:
            if prior in lex.negators:
                valence *= NEGATION_SCALAR
        for prior in window:
            increment = lex.boosters.get(prior)
            if increment is not None:
                valence += _toward_sign(valence, increment)
        if token.isupper() and any(c.isalpha() for c in token):
            valence += _toward_sign(valence, CAPS_INCREMENT)
        total += valence
    if total == 0.0:
        return 0.0
    return total / math.sqrt(total * total + NORMALIZATION_ALPHA)


def _toward_sign(valence: float, increment: float) -> float:
    if valence > 0:
        return increment
    if valence < 0:
        return -increment
    return 0.0


def classify_sentiment(compound: float) -> Sentiment:
    """Map a compound score to positive/negative/neutral (thresholds +-0.05)."""
    if compound >= POSITIVE_THRESHOLD:
        return Sentiment.POSITIVE
    if compound <= NEGATIVE_THRESHOLD:
        return Sentiment.NEGATIVE
    return Sentiment.NEUTRAL


def tag_emotions(text: str, lex: EmotionLexicon) -> dict[str, int]:
    """Count lexicon hits per emotion category (bag of words).

    A token contributes one hit to every category it is associated with.
    """
    counts = dict.fromkeys(EMOTION_CATEGORIES, 0)
    for token in tokenize(text):
        for category in lex.entries.get(token, ()):
            counts[category] += 1
    return counts


def dominant_emotion(hits: dict[str, int]) -> str | None:
    """Category with the most hits; ties go to the earlier category in
    the fixed order; None when all counts are zero."""
    best: str | None = None
    best_count = 0
    for category in EMOTION_CATEGORIES:
        count = hits.get(category, 0)
        if count > best_count:
            best = category
            best_count = count
    return best


def _data_lines(text: str) -> list[tuple[int, list[str]]]:
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append((line_no, line.rstrip("\n").split("\t")))
    return rows


def parse_sentiment_lexicon(
    text: str,
    negators: frozenset[str] = frozenset(),
    boosters: dict[str, float] | None = None,
    path="<string>",
) -> SentimentLexicon:
    entries: dict[str, float] = {}
    for line_no, cols in _data_lines(text):
        if len(cols) < 2:
            raise LexiconError(f"{path}:{line_no}: expected token<TAB>valence")
        token = _entry_key(cols[0], _lexicon_key, path, line_no)
        try:
            valence = float(cols[1])
        except ValueError:
            raise LexiconError(f"{path}:{line_no}: bad valence {cols[1]!r}") from None
        if not -4.0 <= valence <= 4.0:
            raise LexiconError(f"{path}:{line_no}: valence {valence} outside [-4, 4]")
        entries[token] = valence
    return SentimentLexicon(
        entries=entries, negators=negators, boosters=dict(boosters or {})
    )


def parse_emotion_lexicon(text: str, path="<string>") -> EmotionLexicon:
    collected: dict[str, set[str]] = {}
    for line_no, cols in _data_lines(text):
        if len(cols) != 3:
            raise LexiconError(f"{path}:{line_no}: expected token<TAB>category<TAB>flag")
        token, category, flag = (c.strip() for c in cols)
        token = _entry_key(token, str.lower, path, line_no)
        if category not in EMOTION_CATEGORIES:
            raise LexiconError(f"{path}:{line_no}: unknown category {category!r}")
        if flag not in ("0", "1"):
            raise LexiconError(f"{path}:{line_no}: flag must be 0 or 1")
        if flag == "1":
            collected.setdefault(token, set()).add(category)
    return EmotionLexicon(
        entries={token: frozenset(cats) for token, cats in collected.items()}
    )


def parse_negators(text: str, path="<string>") -> frozenset[str]:
    words = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(_entry_key(line, _lexicon_key, path, line_no))
    return frozenset(words)


def parse_boosters(text: str, path="<string>") -> dict[str, float]:
    boosters: dict[str, float] = {}
    for line_no, cols in _data_lines(text):
        if len(cols) < 2:
            raise LexiconError(f"{path}:{line_no}: expected token<TAB>increment")
        try:
            increment = float(cols[1])
        except ValueError:
            increment = math.nan
        if not math.isfinite(increment):
            raise LexiconError(f"{path}:{line_no}: bad increment {cols[1]!r}")
        boosters[_entry_key(cols[0], _lexicon_key, path, line_no)] = increment
    return boosters


def _lexicon_text(path, bundled: str) -> tuple[str, str]:
    """Text and display name of the file at `path`, or of the bundled file
    `bundled` when `path` is unset."""
    if path:
        with open(path, "rb") as fh:
            return decode_utf8(fh.read(), path, LexiconError), str(path)
    return resources.files("nextday.data").joinpath(bundled).read_text("utf-8"), bundled


def lexicons_from_paths(
    sentiment=None, emotions=None, negators=None, boosters=None
) -> Lexicons:
    """Load lexicons, falling back to the bundled files for unset paths."""
    text, name = _lexicon_text(sentiment, "sentiment.tsv")
    return Lexicons(
        parse_sentiment_lexicon(
            text,
            parse_negators(*_lexicon_text(negators, "negators.txt")),
            parse_boosters(*_lexicon_text(boosters, "boosters.tsv")),
            path=name,
        ),
        parse_emotion_lexicon(*_lexicon_text(emotions, "emotions.tsv")),
    )
